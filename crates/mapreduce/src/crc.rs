//! CRC32 (IEEE/zlib polynomial) — the integrity check guarding every run
//! frame written by [`RunWriter`](crate::RunWriter) and verified on
//! decode. Table-driven, dependency-free, and `const`-built so the table
//! lives in rodata.
//!
//! The block-file envelope of the corpus store and segment formats
//! ([`blockfile`](crate::blockfile)) reuses it too.

/// The reflected IEEE polynomial (same as zlib's `crc32`).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Incremental CRC32 state for multi-slice payloads.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorb `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// Streams bytes into the checksum, e.g. through `std::io::copy`.
impl std::io::Write for Crc32 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_byte_flips_are_detected() {
        let base = b"some run frame payload bytes".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(crc32(&flipped), want, "flip at byte {i} must change crc");
        }
    }
}
