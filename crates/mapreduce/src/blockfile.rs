//! The block-file envelope shared by the corpus store and the serving
//! segment, and the staged publish every sealed file goes through.
//!
//! ```text
//! file    := magic  block*  footer  [footer-crc32 LE]  trailer
//! trailer := [footer-offset: u64 LE]  magic                  (16 bytes)
//! ```
//!
//! Each format keeps its own footer grammar, including the per-block
//! CRCs; this module frames, verifies and publishes the file.

use crate::crc::crc32;
use crate::error::{MrError, Result};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

const MAGIC_BYTES: u64 = 8;

/// Fixed trailer size: `[footer-offset: u64 LE][magic]`.
pub const TRAILER_BYTES: u64 = 8 + MAGIC_BYTES;

/// A file written at `<path>.tmp` that appears at `path` only once
/// [`StagedFile::commit`] renames it there, so a crashed or failed writer
/// never leaves a partial file under the final name.
pub struct StagedFile {
    out: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
}

impl StagedFile {
    /// Start staging `path`, creating its parent directory if needed.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let out = BufWriter::with_capacity(128 * 1024, File::create(&tmp)?);
        let (tmp, path) = (tmp.into(), path.to_path_buf());
        Ok(StagedFile { out, tmp, path })
    }

    /// Flush every staged byte, then rename the file into place.
    /// Returns the final path.
    pub fn commit(mut self) -> io::Result<PathBuf> {
        self.out.flush()?;
        drop(self.out);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(self.path)
    }
}

impl Write for StagedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Publish `bytes` at `path` through a [`StagedFile`].
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut out = StagedFile::create(path)?;
    out.write_all(bytes)?;
    out.commit().map(drop)
}

/// Where [`BlockFileWriter::append`] put a block, and its CRC32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockExtent {
    /// Absolute byte offset of the block within the file.
    pub offset: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// CRC32 of the payload.
    pub crc: u32,
}

/// Streaming writer of one block file, staged until [`finish`](Self::finish).
pub struct BlockFileWriter {
    out: StagedFile,
    magic: [u8; 8],
    offset: u64,
}

impl BlockFileWriter {
    /// Stage a block file at `path` and write its leading `magic`.
    pub fn create(path: &Path, magic: &[u8; 8]) -> io::Result<Self> {
        let mut out = StagedFile::create(path)?;
        out.write_all(magic)?;
        let (magic, offset) = (*magic, MAGIC_BYTES);
        Ok(BlockFileWriter { out, magic, offset })
    }

    /// Append one block payload.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<BlockExtent> {
        self.out.write_all(payload)?;
        let (offset, bytes, crc) = (self.offset, payload.len() as u64, crc32(payload));
        self.offset += bytes;
        Ok(BlockExtent { offset, bytes, crc })
    }

    /// Write `footer`, its CRC32 and the trailer, then publish the file.
    /// Returns the total block payload bytes.
    pub fn finish(mut self, footer: &[u8]) -> io::Result<u64> {
        self.out.write_all(footer)?;
        self.out.write_all(&crc32(footer).to_le_bytes())?;
        self.out.write_all(&self.offset.to_le_bytes())?;
        self.out.write_all(&self.magic)?;
        self.out.commit()?;
        Ok(self.offset - MAGIC_BYTES)
    }
}

/// Positioned read: no shared cursor, so concurrent readers can share
/// one handle.
fn read_exact_at(file: &File, path: &Path, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        let _ = path;
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        // Fallback for cursor-only platforms: a private handle per read.
        use std::io::{Read, Seek};
        let _ = file;
        let mut f = File::open(path)?;
        f.seek(io::SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// An opened block file whose frame has been verified. Reads are
/// positioned, so one `BlockFile` serves many threads.
pub struct BlockFile {
    file: File,
    path: PathBuf,
    footer_offset: u64,
    footer_crc: u32,
}

impl BlockFile {
    /// Open `path` and check, in order: the length floor, the leading and
    /// trailing `magic`, the footer-offset bounds, the footer-length floor
    /// and the footer CRC. Returns the file and its footer, CRC stripped.
    pub fn open(path: &Path, magic: &[u8; 8]) -> Result<(BlockFile, Vec<u8>)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < MAGIC_BYTES + TRAILER_BYTES {
            return Err(MrError::Corrupt("block file too short"));
        }
        let mut head = [0u8; MAGIC_BYTES as usize];
        read_exact_at(&file, path, &mut head, 0)?;
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        read_exact_at(&file, path, &mut trailer, len - TRAILER_BYTES)?;
        if &head != magic || &trailer[8..] != magic {
            return Err(MrError::Corrupt("bad block file magic (truncated?)"));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset < MAGIC_BYTES || footer_offset > len - TRAILER_BYTES {
            return Err(MrError::Corrupt("block file footer offset out of bounds"));
        }
        let footer_len = (len - TRAILER_BYTES - footer_offset) as usize;
        if footer_len < 4 {
            return Err(MrError::Corrupt("block file footer too short"));
        }
        let mut footer = vec![0u8; footer_len];
        read_exact_at(&file, path, &mut footer, footer_offset)?;
        let crc_at = footer_len - 4;
        let footer_crc = u32::from_le_bytes(footer[crc_at..].try_into().expect("4 bytes"));
        footer.truncate(crc_at);
        if crc32(&footer) != footer_crc {
            return Err(MrError::Corrupt("block file footer checksum mismatch"));
        }
        let path = path.to_path_buf();
        Ok((
            BlockFile {
                file,
                path,
                footer_offset,
                footer_crc,
            },
            footer,
        ))
    }

    /// Reject a footer-declared block extent that overflows or leaves the
    /// bytes between the leading magic and the footer.
    pub fn check_extent(&self, offset: u64, bytes: u64) -> Result<()> {
        match offset.checked_add(bytes) {
            Some(end) if offset >= MAGIC_BYTES && end <= self.footer_offset => Ok(()),
            _ => Err(MrError::Corrupt("block extent out of bounds")),
        }
    }

    /// Read block `i` (one positioned read) and verify it against `crc`
    /// before any decoder sees it.
    pub fn read_block(&self, i: usize, offset: u64, bytes: u64, crc: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; bytes as usize];
        read_exact_at(&self.file, &self.path, &mut buf, offset)?;
        if crc32(&buf) != crc {
            return Err(MrError::ChecksumMismatch {
                file: self.path.display().to_string(),
                block: i as u64,
            });
        }
        Ok(buf)
    }

    /// CRC32 of the footer, which records every block's extent and CRC:
    /// an identity of the file's content.
    pub fn footer_crc(&self) -> u32 {
        self.footer_crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_vu64_at, write_vu64};

    const MAGIC: &[u8; 8] = b"TESTBLK1";

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mr-blockfile-{}-{tag}.blk", std::process::id()))
    }

    /// A minimal footer grammar over the envelope: `[#blocks]([offset]
    /// [bytes][crc])*` — enough to drive every reader entry point.
    fn write_file(path: &Path, payloads: &[Vec<u8>]) -> u64 {
        let mut w = BlockFileWriter::create(path, MAGIC).unwrap();
        let mut footer = Vec::new();
        write_vu64(&mut footer, payloads.len() as u64);
        for p in payloads {
            let e = w.append(p).unwrap();
            write_vu64(&mut footer, e.offset);
            write_vu64(&mut footer, e.bytes);
            write_vu64(&mut footer, u64::from(e.crc));
        }
        w.finish(&footer).unwrap()
    }

    fn read_file(path: &Path) -> Result<Vec<Vec<u8>>> {
        let (file, footer) = BlockFile::open(path, MAGIC)?;
        let pos = &mut 0usize;
        let n = read_vu64_at(&footer, pos)?;
        let mut extents = Vec::new();
        for _ in 0..n {
            let offset = read_vu64_at(&footer, pos)?;
            let bytes = read_vu64_at(&footer, pos)?;
            let crc = u32::try_from(read_vu64_at(&footer, pos)?)
                .map_err(|_| MrError::Corrupt("crc out of range"))?;
            file.check_extent(offset, bytes)?;
            extents.push((offset, bytes, crc));
        }
        if *pos != footer.len() {
            return Err(MrError::Corrupt("trailing footer bytes"));
        }
        extents
            .iter()
            .enumerate()
            .map(|(i, &(offset, bytes, crc))| file.read_block(i, offset, bytes, crc))
            .collect()
    }

    fn sample_payloads() -> Vec<Vec<u8>> {
        vec![
            b"first block".to_vec(),
            Vec::new(),
            (0..=255u8).collect(),
            b"last".to_vec(),
        ]
    }

    #[test]
    fn empty_and_multi_block_files_round_trip() {
        for payloads in [Vec::new(), sample_payloads()] {
            let path = temp_path(&format!("rt-{}", payloads.len()));
            let data = write_file(&path, &payloads);
            assert_eq!(data, payloads.iter().map(|p| p.len() as u64).sum::<u64>());
            assert_eq!(read_file(&path).unwrap(), payloads);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn file_appears_only_at_commit() {
        let path = temp_path("staged");
        let mut out = StagedFile::create(&path).unwrap();
        out.write_all(b"payload").unwrap();
        assert!(!path.exists(), "nothing under the final name before commit");
        out.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "staging file renamed away");
        publish(&path, b"replaced").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"replaced");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let path = temp_path("magic");
        write_file(&path, &sample_payloads());
        assert!(BlockFile::open(&path, b"OTHERBLK").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let path = temp_path("trunc");
        write_file(&path, &sample_payloads());
        let clean = std::fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_file(&path).is_err(), "cut at {cut} must be rejected");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_bit_flip_errors_or_reads_the_original_payloads() {
        let payloads = sample_payloads();
        let path = temp_path("flip");
        write_file(&path, &payloads);
        let clean = std::fs::read(&path).unwrap();
        for at in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[at] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                if let Ok(got) = read_file(&path) {
                    assert_eq!(got, payloads, "flip of bit {bit} at byte {at} misread");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_block_names_the_corrupt_block() {
        let payloads = sample_payloads();
        let path = temp_path("which");
        write_file(&path, &payloads);
        let clean = std::fs::read(&path).unwrap();
        let (_, footer) = BlockFile::open(&path, MAGIC).unwrap();
        let pos = &mut 0usize;
        let n = read_vu64_at(&footer, pos).unwrap();
        for i in 0..n {
            let offset = read_vu64_at(&footer, pos).unwrap();
            let bytes = read_vu64_at(&footer, pos).unwrap();
            read_vu64_at(&footer, pos).unwrap();
            if bytes == 0 {
                continue;
            }
            let mut damaged = clean.clone();
            damaged[(offset + bytes / 2) as usize] ^= 0x20;
            std::fs::write(&path, &damaged).unwrap();
            match read_file(&path) {
                Err(MrError::ChecksumMismatch { block, file }) => {
                    assert_eq!(block, i);
                    assert_eq!(file, path.display().to_string());
                }
                other => panic!("block {i}: expected ChecksumMismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
