//! The immutable serving segment: sorted `(gram, count)` records in
//! block-compressed form, opened by positioned reads.
//!
//! A segment holds one reduce partition's statistics, re-sorted by raw
//! key bytes so point lookups binary-search the block index and prefix
//! scans walk a contiguous block range. Blocks are encoded through the
//! shuffle's [`BlockCodec`](mapreduce::BlockCodec)s (`plain`, `front`,
//! `posting-delta`) and are individually self-contained — each restarts
//! the codec's delta chain — so serving one lookup decodes one block,
//! never the file.
//!
//! ```text
//! segment := magic "NGRAMSG2"  block*  footer  [footer-crc32 LE]  trailer
//! block   := codec-encoded records      (≈ SEGMENT_BLOCK_BYTES raw each)
//! record  := key = gram term-id varints, val = count varint
//! footer  := [codec][#entries][#blocks]
//!            ([offset][bytes][#recs][crc32][first-key][last-key])*  index
//!            [#top]([count][key])*              top entries by frequency
//! trailer := [footer-offset: u64 LE]  magic                  (16 bytes)
//! ```
//!
//! Magic, blocks, footer CRC and trailer are the [`mapreduce::blockfile`]
//! envelope shared with the corpus store (`NGRAMMR3`): open reads only
//! the trailer and footer, and first/last keys in the block index bound
//! every block, so a lookup reads at most one block and a prefix scan
//! exactly the overlapping range. A flipped bit anywhere is a typed
//! [`MrError`] (footer CRC at open, block CRC before decode), never a
//! silently wrong count; a crash mid-build never leaves a half-written
//! segment under its final name.

use mapreduce::blockfile::{BlockFile, BlockFileWriter};
use mapreduce::{
    decode_block, read_vu64_at, write_vu64, BlockEncoder, ByteReader, MrError, Result, RunCodec,
};
use std::path::{Path, PathBuf};

/// Magic bytes opening and closing a segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"NGRAMSG2";

/// Raw-frame budget per block. Smaller than the shuffle's 32 KiB because
/// the unit of serving work is one point lookup: a block is the amount of
/// decode one query pays for.
pub const SEGMENT_BLOCK_BYTES: usize = 8 * 1024;

/// How many of the highest-frequency entries a segment records in its
/// footer by default — the precomputed half of the top-k endpoint.
pub const SEGMENT_TOP_ENTRIES: usize = 1024;

fn bad(msg: &'static str) -> MrError {
    MrError::Corrupt(msg)
}

fn codec_id(codec: RunCodec) -> u64 {
    match codec {
        RunCodec::Plain => 0,
        RunCodec::FrontCoded => 1,
        RunCodec::PostingDelta => 2,
    }
}

fn codec_from_id(id: u64) -> Result<RunCodec> {
    match id {
        0 => Ok(RunCodec::Plain),
        1 => Ok(RunCodec::FrontCoded),
        2 => Ok(RunCodec::PostingDelta),
        _ => Err(bad("unknown segment codec id")),
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_vu64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_bytes(r: &mut ByteReader<'_>) -> Result<Vec<u8>> {
    let len = r.read_vu64()? as usize;
    Ok(r.read_bytes(len)?.to_vec())
}

/// One entry of a segment's block index.
#[derive(Clone, Debug)]
pub struct SegmentBlock {
    /// Absolute byte offset of the encoded block within the file.
    pub offset: u64,
    /// Encoded size of the block in bytes.
    pub bytes: u64,
    /// Number of records in the block.
    pub records: u64,
    /// CRC32 over the encoded block bytes, verified before decode.
    pub crc: u32,
    /// Raw key bytes of the block's first record.
    pub first_key: Vec<u8>,
    /// Raw key bytes of the block's last record.
    pub last_key: Vec<u8>,
}

/// Summary a sealed [`SegmentWriter`] leaves behind.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    /// Where the segment lives.
    pub path: PathBuf,
    /// Total records.
    pub entries: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Encoded block payload bytes (excluding footer and trailer).
    pub data_bytes: u64,
    /// The block codec.
    pub codec: RunCodec,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming segment writer. Records must arrive in strictly ascending
/// raw-key-byte order; the writer closes a block at every
/// [`SEGMENT_BLOCK_BYTES`] of raw frames, tracks the block index, and
/// keeps the running top entries by count for the footer.
pub struct SegmentWriter {
    out: BlockFileWriter,
    path: PathBuf,
    codec: RunCodec,
    block_budget: usize,
    top_budget: usize,
    encoder: BlockEncoder,
    scratch: Vec<u8>,
    val_buf: Vec<u8>,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
    block_records: u64,
    index: Vec<SegmentBlock>,
    entries: u64,
    /// Min-heap by count of the best entries seen so far.
    top: std::collections::BinaryHeap<std::cmp::Reverse<(u64, Vec<u8>)>>,
}

impl SegmentWriter {
    /// Create a segment at `path` encoded with `codec`.
    pub fn create(path: &Path, codec: RunCodec) -> Result<Self> {
        // Staged: readers only ever see fully sealed segments under the
        // final name.
        Ok(SegmentWriter {
            out: BlockFileWriter::create(path, SEGMENT_MAGIC)?,
            path: path.to_path_buf(),
            codec,
            block_budget: SEGMENT_BLOCK_BYTES,
            top_budget: SEGMENT_TOP_ENTRIES,
            encoder: BlockEncoder::new(codec),
            scratch: Vec::new(),
            val_buf: Vec::new(),
            first_key: Vec::new(),
            last_key: Vec::new(),
            block_records: 0,
            index: Vec::new(),
            entries: 0,
            top: std::collections::BinaryHeap::new(),
        })
    }

    /// Override the per-block raw-byte budget (tests; the default
    /// [`SEGMENT_BLOCK_BYTES`] is right for production use).
    pub fn block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Override how many top-frequency entries the footer records.
    pub fn top_entries(mut self, n: usize) -> Self {
        self.top_budget = n;
        self
    }

    /// Append one record. Keys must be strictly ascending.
    pub fn push(&mut self, key: &[u8], count: u64) -> Result<()> {
        if self.entries > 0 && key <= self.last_key.as_slice() {
            return Err(MrError::Config(
                "segment keys must be strictly ascending".into(),
            ));
        }
        if self.block_records == 0 {
            self.first_key.clear();
            self.first_key.extend_from_slice(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.val_buf.clear();
        write_vu64(&mut self.val_buf, count);
        self.encoder.push(key, &self.val_buf)?;
        self.block_records += 1;
        self.entries += 1;
        if self.top_budget > 0 {
            self.top.push(std::cmp::Reverse((count, key.to_vec())));
            if self.top.len() > self.top_budget {
                self.top.pop();
            }
        }
        if self.encoder.raw_bytes() >= self.block_budget {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.encoder.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.encoder.encode_into(&mut self.scratch);
        let extent = self.out.append(&self.scratch)?;
        self.index.push(SegmentBlock {
            offset: extent.offset,
            bytes: extent.bytes,
            records: self.block_records,
            crc: extent.crc,
            first_key: self.first_key.clone(),
            last_key: self.last_key.clone(),
        });
        self.block_records = 0;
        Ok(())
    }

    /// Seal the segment: flush the last block, write the footer, and
    /// publish the file.
    pub fn finish(mut self) -> Result<SegmentMeta> {
        self.flush_block()?;
        let mut footer = Vec::new();
        write_vu64(&mut footer, codec_id(self.codec));
        write_vu64(&mut footer, self.entries);
        write_vu64(&mut footer, self.index.len() as u64);
        for b in &self.index {
            write_vu64(&mut footer, b.offset);
            write_vu64(&mut footer, b.bytes);
            write_vu64(&mut footer, b.records);
            write_vu64(&mut footer, u64::from(b.crc));
            write_bytes(&mut footer, &b.first_key);
            write_bytes(&mut footer, &b.last_key);
        }
        // Top entries, highest count first (heap drains ascending).
        let mut top: Vec<(u64, Vec<u8>)> =
            self.top.into_iter().map(|std::cmp::Reverse(e)| e).collect();
        top.sort_by(|a, b| b.cmp(a));
        write_vu64(&mut footer, top.len() as u64);
        for (count, key) in &top {
            write_vu64(&mut footer, *count);
            write_bytes(&mut footer, key);
        }
        let data_bytes = self.out.finish(&footer)?;
        Ok(SegmentMeta {
            path: self.path,
            entries: self.entries,
            blocks: self.index.len() as u64,
            data_bytes,
            codec: self.codec,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Random-access reader over one segment: opens by trailer + footer only,
/// then serves whole blocks via positioned reads. Shareable across query
/// worker threads behind an `Arc`.
pub struct SegmentReader {
    file: BlockFile,
    codec: RunCodec,
    entries: u64,
    index: Vec<SegmentBlock>,
    top: Vec<(u64, Vec<u8>)>,
}

impl SegmentReader {
    /// Open `path`, validating the envelope and footer structure.
    pub fn open(path: &Path) -> Result<Self> {
        let (file, footer) = BlockFile::open(path, SEGMENT_MAGIC)?;
        let r = &mut ByteReader::new(&footer);
        let codec = codec_from_id(r.read_vu64()?)?;
        let entries = r.read_vu64()?;
        let n_blocks = r.read_vu64()? as usize;
        let mut index = Vec::with_capacity(n_blocks.min(footer.len()));
        for _ in 0..n_blocks {
            let block = SegmentBlock {
                offset: r.read_vu64()?,
                bytes: r.read_vu64()?,
                records: r.read_vu64()?,
                crc: u32::try_from(r.read_vu64()?)
                    .map_err(|_| bad("segment block checksum out of range"))?,
                first_key: read_bytes(r)?,
                last_key: read_bytes(r)?,
            };
            file.check_extent(block.offset, block.bytes)?;
            if block.first_key > block.last_key {
                return Err(bad("segment block key range inverted"));
            }
            if let Some(prev) = index.last() {
                let prev: &SegmentBlock = prev;
                if prev.last_key >= block.first_key {
                    return Err(bad("segment blocks out of order"));
                }
            }
            index.push(block);
        }
        if index.iter().map(|b| b.records).sum::<u64>() != entries {
            return Err(bad("segment block index disagrees with entry count"));
        }
        let n_top = r.read_vu64()? as usize;
        let mut top = Vec::with_capacity(n_top.min(footer.len()));
        for _ in 0..n_top {
            let count = r.read_vu64()?;
            let key = read_bytes(r)?;
            top.push((count, key));
        }
        if !r.is_empty() {
            return Err(bad("trailing bytes in segment footer"));
        }
        Ok(SegmentReader {
            file,
            codec,
            entries,
            index,
            top,
        })
    }

    /// Total records in the segment.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Encoded block payload bytes.
    pub fn data_bytes(&self) -> u64 {
        self.index.iter().map(|b| b.bytes).sum()
    }

    /// The codec blocks are encoded with.
    pub fn codec(&self) -> RunCodec {
        self.codec
    }

    /// The precomputed highest-frequency entries, descending by count.
    pub fn top_entries(&self) -> &[(u64, Vec<u8>)] {
        &self.top
    }

    /// Read and decode block `i`, calling `f` for each `(key, count)`.
    fn for_each_in_block(
        &self,
        i: usize,
        f: &mut dyn FnMut(&[u8], u64) -> Result<()>,
    ) -> Result<()> {
        let entry = &self.index[i];
        let buf = self
            .file
            .read_block(i, entry.offset, entry.bytes, entry.crc)?;
        decode_block(self.codec, buf, |key, val| {
            let mut vpos = 0usize;
            let count = read_vu64_at(val, &mut vpos)?;
            if vpos != val.len() {
                return Err(bad("trailing bytes in segment value"));
            }
            f(key, count)
        })
    }

    /// Point lookup by raw key bytes: binary-search the block index, read
    /// and decode at most one block.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<u64>> {
        // Index of the last block whose first_key <= key.
        let part = self
            .index
            .partition_point(|b| b.first_key.as_slice() <= key);
        if part == 0 {
            return Ok(None);
        }
        let i = part - 1;
        if self.index[i].last_key.as_slice() < key {
            return Ok(None);
        }
        let mut found = None;
        self.for_each_in_block(i, &mut |k, count| {
            if k == key {
                found = Some(count);
            }
            Ok(())
        })?;
        Ok(found)
    }

    /// Scan every record whose key starts with `prefix`, in ascending key
    /// order. `f` returns `false` to stop early.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> Result<bool>,
    ) -> Result<()> {
        // First candidate block: the last one starting at or before the
        // prefix — earlier blocks end before any prefixed key — but a
        // prefixed key can also start a later block, so walk forward from
        // there until a block starts past the prefix range.
        let start = self
            .index
            .partition_point(|b| b.first_key.as_slice() < prefix)
            .saturating_sub(1);
        let mut stop = false;
        for i in start..self.index.len() {
            if stop {
                break;
            }
            let b = &self.index[i];
            // A block strictly past the prefix range starts with a key
            // that is > prefix yet not an extension of it.
            if b.first_key.as_slice() > prefix && !b.first_key.starts_with(prefix) {
                break;
            }
            if b.last_key.as_slice() < prefix {
                continue;
            }
            self.for_each_in_block(i, &mut |k, count| {
                if stop {
                    return Ok(());
                }
                if k.starts_with(prefix) {
                    if !f(k, count)? {
                        stop = true;
                    }
                } else if k > prefix {
                    stop = true;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Scan the whole segment in key order.
    pub fn scan_all(&self, f: &mut dyn FnMut(&[u8], u64) -> Result<()>) -> Result<()> {
        for i in 0..self.index.len() {
            self.for_each_in_block(i, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::blockfile::TRAILER_BYTES;
    use mapreduce::crc32;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-seg-{}-{tag}.seg", std::process::id()))
    }

    /// Sorted synthetic keys: two-byte "grams" over a small alphabet.
    fn sample_records(n: u32) -> Vec<(Vec<u8>, u64)> {
        let mut recs: Vec<(Vec<u8>, u64)> = (0..n)
            .map(|i| {
                let mut key = Vec::new();
                write_vu64(&mut key, u64::from(i / 7));
                write_vu64(&mut key, u64::from(i % 7));
                (key, u64::from(i % 13) + 1)
            })
            .collect();
        recs.sort();
        recs
    }

    fn write_segment(path: &Path, codec: RunCodec, recs: &[(Vec<u8>, u64)]) -> SegmentMeta {
        let mut w = SegmentWriter::create(path, codec).unwrap().block_budget(64);
        for (k, c) in recs {
            w.push(k, *c).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn segment_round_trips_across_codecs() {
        let recs = sample_records(500);
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let path = temp_path(&format!("rt-{}", codec.name()));
            let meta = write_segment(&path, codec, &recs);
            assert_eq!(meta.entries, 500);
            assert!(meta.blocks > 4, "64-byte budget must split blocks");
            let r = SegmentReader::open(&path).unwrap();
            assert_eq!(r.entries(), 500);
            assert_eq!(r.codec(), codec);
            let mut got = Vec::new();
            r.scan_all(&mut |k, c| {
                got.push((k.to_vec(), c));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, recs);
            for (k, c) in &recs {
                assert_eq!(r.lookup(k).unwrap(), Some(*c), "codec {codec:?}");
            }
            assert_eq!(r.lookup(b"\xff\xff\xff").unwrap(), None);
            assert_eq!(r.lookup(b"").unwrap(), None);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn prefix_scan_returns_exactly_the_extension_range() {
        let recs = sample_records(700);
        let path = temp_path("prefix");
        write_segment(&path, RunCodec::FrontCoded, &recs);
        let r = SegmentReader::open(&path).unwrap();
        let mut prefix = Vec::new();
        write_vu64(&mut prefix, 3);
        let mut got = Vec::new();
        r.scan_prefix(&prefix, &mut |k, c| {
            got.push((k.to_vec(), c));
            Ok(true)
        })
        .unwrap();
        let expected: Vec<(Vec<u8>, u64)> = recs
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(got, expected);
        // Early stop works.
        let mut seen = 0;
        r.scan_prefix(&prefix, &mut |_, _| {
            seen += 1;
            Ok(seen < 3)
        })
        .unwrap();
        assert_eq!(seen, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn top_entries_are_the_true_maxima() {
        let recs = sample_records(400);
        let path = temp_path("top");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain)
            .unwrap()
            .block_budget(64)
            .top_entries(10);
        for (k, c) in &recs {
            w.push(k, *c).unwrap();
        }
        w.finish().unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let top = r.top_entries();
        assert_eq!(top.len(), 10);
        let mut expected: Vec<(u64, Vec<u8>)> = recs.iter().map(|(k, c)| (*c, k.clone())).collect();
        expected.sort_by(|a, b| b.cmp(a));
        expected.truncate(10);
        assert_eq!(top, &expected[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let path = temp_path("unsorted");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain).unwrap();
        w.push(b"bb", 1).unwrap();
        assert!(w.push(b"aa", 1).is_err());
        assert!(w.push(b"bb", 2).is_err(), "duplicates rejected too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_segment_round_trips() {
        let path = temp_path("empty");
        let meta = SegmentWriter::create(&path, RunCodec::FrontCoded)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(meta.entries, 0);
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.entries(), 0);
        assert_eq!(r.num_blocks(), 0);
        assert_eq!(r.lookup(b"x").unwrap(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn segment_appears_atomically_at_finish() {
        let path = temp_path("atomic");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain).unwrap();
        w.push(b"aa", 1).unwrap();
        assert!(
            !path.exists(),
            "segment must not exist under its final name before finish"
        );
        w.finish().unwrap();
        assert!(path.exists());
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(
            !PathBuf::from(tmp).exists(),
            "staging file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_block_byte_is_a_checksum_mismatch() {
        let recs = sample_records(300);
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let path = temp_path(&format!("blockflip-{}", codec.name()));
            write_segment(&path, codec, &recs);
            let clean = std::fs::read(&path).unwrap();
            let r = SegmentReader::open(&path).unwrap();
            let entry = r.index[1].clone();
            drop(r);
            for frac in [0.0, 0.5, 0.99] {
                let mut bytes = clean.clone();
                let at = entry.offset as usize + (entry.bytes as f64 * frac) as usize;
                bytes[at] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
                let r = SegmentReader::open(&path).expect("footer untouched, open succeeds");
                // Walking every block must surface the corrupt one as a
                // typed checksum error, not a wrong count.
                let err = r
                    .scan_all(&mut |_, _| Ok(()))
                    .expect_err("flip must fail the block checksum");
                match err {
                    MrError::ChecksumMismatch { block, .. } => assert_eq!(block, 1),
                    other => panic!("expected ChecksumMismatch, got {other:?}"),
                }
                // A lookup that lands in the corrupt block fails the same
                // way instead of answering from corrupted bytes.
                assert!(r.lookup(&entry.first_key).is_err(), "codec {codec:?}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn flipped_footer_byte_is_rejected_at_open() {
        let recs = sample_records(200);
        let path = temp_path("footerflip");
        write_segment(&path, RunCodec::FrontCoded, &recs);
        let clean = std::fs::read(&path).unwrap();
        let trailer = clean.len() - TRAILER_BYTES as usize;
        let footer_offset =
            u64::from_le_bytes(clean[trailer..trailer + 8].try_into().unwrap()) as usize;
        for at in (footer_offset..trailer).step_by(11) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                SegmentReader::open(&path).is_err(),
                "footer flip at {at} must be rejected at open"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let recs = sample_records(100);
        let path = temp_path("corrupt");
        write_segment(&path, RunCodec::Plain, &recs);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(SegmentReader::open(&path).is_err(), "cut at {cut}");
        }
        std::fs::write(&path, b"NOTASEGMENTxxxxxxxxxxxxxxxxx").unwrap();
        assert!(SegmentReader::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// The sealed bytes of every codec, pinned by length and CRC32 so a
    /// change to the writer that moves a single byte fails here.
    #[test]
    fn segment_bytes_match_golden_constants() {
        let recs = sample_records(500);
        let golden = [
            (RunCodec::Plain, 5117, 0x9953_c550),
            (RunCodec::FrontCoded, 4720, 0xfcdc_9a02),
            (RunCodec::PostingDelta, 5218, 0xfd76_aff0),
        ];
        for (codec, len, crc) in golden {
            let path = temp_path(&format!("golden-{}", codec.name()));
            let meta = write_segment(&path, codec, &recs);
            assert_eq!(meta.blocks, 39, "{codec:?}");
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), len, "{codec:?} length");
            assert_eq!(crc32(&bytes), crc, "{codec:?} bytes");
            let _ = std::fs::remove_file(&path);
        }
    }
}
