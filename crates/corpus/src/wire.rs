//! Crate-private varint/string framing shared by the on-disk corpus
//! formats ([`crate::encode`]'s legacy blob and [`crate::store`]'s block
//! store): length-prefixed strings and the document record
//! `[did][year][#sentences]([len][term]*)*` (all varints).

use crate::document::Document;
use mapreduce::{read_vu32_seq, read_vu64_at, write_vu64};
use std::io;

pub(crate) fn read_str(buf: &[u8], pos: &mut usize) -> io::Result<String> {
    let len = read_vu64_at(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 string"))?
        .to_string();
    *pos = end;
    Ok(s)
}

pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_vu64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn write_doc(out: &mut Vec<u8>, doc: &Document) {
    write_vu64(out, doc.id);
    write_vu64(out, u64::from(doc.year));
    write_vu64(out, doc.sentences.len() as u64);
    for s in &doc.sentences {
        write_vu64(out, s.len() as u64);
        for &t in s {
            write_vu64(out, u64::from(t));
        }
    }
}

/// Decode one [`write_doc`] record. Counts are untrusted, so every
/// pre-allocation is clamped by the buffer's size.
#[inline]
pub(crate) fn read_doc(buf: &[u8], pos: &mut usize) -> io::Result<Document> {
    let id = read_vu64_at(buf, pos)?;
    let year = u16::try_from(read_vu64_at(buf, pos)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "year out of range"))?;
    let n_sent = read_vu64_at(buf, pos)? as usize;
    let mut sentences = Vec::with_capacity(n_sent.min(buf.len()));
    for _ in 0..n_sent {
        let len = read_vu64_at(buf, pos)? as usize;
        let mut s = Vec::with_capacity(len.min(buf.len()));
        read_vu32_seq(buf, pos, len, &mut s)?;
        sentences.push(s);
    }
    Ok(Document {
        id,
        year,
        sentences,
    })
}
