//! The store's dependency-free byte codec: greedy LZ over a block's bytes
//! followed by an order-0 canonical Huffman pass over the LZ op stream.
//!
//! The LZ stage captures verbatim repetition (the generator's phrase
//! library, near-duplicate documents); the Huffman stage captures the
//! skew varint coding leaves on the table — term ids are Zipf-distributed,
//! so the byte histogram of a block is far from uniform even when no
//! 4-byte window ever repeats. Both [`crate::store::StoreCodec::Lz`] and
//! the residual of `StoreCodec::Rank` go through [`pack`] / [`unpack`].
//!
//! ```text
//! packed := [op-bytes: varint] huff
//! huff   := [#syms: varint]([sym: u8][code-len: u8])*  bitstream (MSB first)
//! ops    := op*
//! op     := [lit-len<<1: varint]     lit-len raw bytes     (literal run)
//!         | [(len-4)<<1|1: varint] [offset: varint]        (match, len ≥ 4)
//! ```
//!
//! Decoding is fully bounds-checked and never allocates from an untrusted
//! length: every size is clamped against the caller-supplied decoded size,
//! which the store's footer carries per block.

use mapreduce::{read_vu64_at, write_vu64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("store codec: {msg}"))
}

// ---------------------------------------------------------------------------
// LZ stage
// ---------------------------------------------------------------------------

/// Shortest back-reference worth emitting: a match op costs up to six
/// bytes (one for the length, up to five for an in-block offset).
const MIN_MATCH: usize = 4;

/// Hash-table size exponent for the greedy matcher (head-only chains).
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn emit_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if !lits.is_empty() {
        write_vu64(out, (lits.len() as u64) << 1);
        out.extend_from_slice(lits);
    }
}

/// Greedy LZ with a head-only hash table: at each position, probe the most
/// recent occurrence of the current 4-byte window, extend forward, and jump
/// past the match. Positions inside a match are not indexed — the classic
/// fast-compressor trade of a little ratio for linear-time encoding.
pub(crate) fn lz_compress(src: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![u32::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= src.len() {
        let h = hash4(&src[i..]);
        let cand = table[h] as usize;
        table[h] = i as u32;
        if cand != u32::MAX as usize && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH] {
            let mut len = MIN_MATCH;
            while i + len < src.len() && src[cand + len] == src[i + len] {
                len += 1;
            }
            emit_literals(out, &src[lit_start..i]);
            write_vu64(out, (((len - MIN_MATCH) as u64) << 1) | 1);
            write_vu64(out, (i - cand) as u64);
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    emit_literals(out, &src[lit_start..]);
}

/// Decode an LZ op stream into exactly `raw_len` bytes.
pub(crate) fn lz_decompress(src: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let pos = &mut 0usize;
    while out.len() < raw_len {
        let op = read_vu64_at(src, pos)?;
        if op & 1 == 0 {
            let lit = op >> 1;
            if lit == 0 {
                return Err(bad("empty literal run"));
            }
            if out.len() as u64 + lit > raw_len as u64 {
                return Err(bad("literal run overruns the block"));
            }
            let lit = lit as usize;
            let end = pos
                .checked_add(lit)
                .filter(|&e| e <= src.len())
                .ok_or_else(|| bad("truncated literal run"))?;
            out.extend_from_slice(&src[*pos..end]);
            *pos = end;
        } else {
            let len = (op >> 1) + MIN_MATCH as u64;
            if out.len() as u64 + len > raw_len as u64 {
                return Err(bad("match overruns the block"));
            }
            let off = read_vu64_at(src, pos)?;
            if off == 0 || off > out.len() as u64 {
                return Err(bad("match offset out of bounds"));
            }
            let start = out.len() - off as usize;
            let len = len as usize;
            if off as usize >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Byte-wise so overlapping matches (off < len) replicate,
                // the LZ idiom for runs.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if *pos != src.len() {
        return Err(bad("trailing bytes after op stream"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Huffman stage
// ---------------------------------------------------------------------------

/// Depth cap for sanity checking decoded tables. With 256 symbols and
/// block-sized counts an optimal code cannot get near this (depth d needs
/// Fibonacci-like counts summing past F(d), and F(48) ≫ any block size).
const MAX_CODE_LEN: usize = 48;

/// Optimal code lengths per byte value (0 for unused symbols).
fn huff_code_lengths(freq: &[u64; 256]) -> io::Result<[u8; 256]> {
    let mut lens = [0u8; 256];
    let used: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
    match used.len() {
        0 => return Ok(lens),
        1 => {
            lens[used[0]] = 1;
            return Ok(lens);
        }
        _ => {}
    }
    // Heap Huffman over (count, node-id); ids 0..256 are leaves, internal
    // nodes count up from 256. The id tiebreak makes the tree — and with
    // it the canonical table — deterministic.
    let mut parent = vec![usize::MAX; 2 * 256];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        used.iter().map(|&s| Reverse((freq[s], s))).collect();
    let mut next_node = 256usize;
    while heap.len() > 1 {
        let Reverse((f1, n1)) = heap.pop().expect("len > 1");
        let Reverse((f2, n2)) = heap.pop().expect("len > 1");
        parent[n1] = next_node;
        parent[n2] = next_node;
        heap.push(Reverse((f1 + f2, next_node)));
        next_node += 1;
    }
    for &s in &used {
        let mut depth = 0usize;
        let mut n = s;
        while parent[n] != usize::MAX {
            depth += 1;
            n = parent[n];
        }
        if depth > MAX_CODE_LEN {
            return Err(bad("huffman depth overflow"));
        }
        lens[s] = depth as u8;
    }
    Ok(lens)
}

/// Canonical code per symbol, derived from lengths alone — the decoder
/// rebuilds the identical table from the header's (symbol, length) pairs.
fn canonical_codes(lens: &[u8; 256]) -> [u64; 256] {
    let mut syms: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    syms.sort_by_key(|&s| (lens[s], s));
    let mut codes = [0u64; 256];
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &s in &syms {
        code <<= lens[s] - prev_len;
        prev_len = lens[s];
        codes[s] = code;
        code += 1;
    }
    codes
}

/// Huffman-code `src` into `out`: `[#syms]([sym][len])*` then the MSB-first
/// bitstream. The byte count of the stream is implied by the symbol count
/// the caller frames alongside.
pub(crate) fn huff_compress(src: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let mut freq = [0u64; 256];
    for &b in src {
        freq[b as usize] += 1;
    }
    let lens = huff_code_lengths(&freq)?;
    let codes = canonical_codes(&lens);
    let used: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    write_vu64(out, used.len() as u64);
    for &s in &used {
        out.push(s as u8);
        out.push(lens[s]);
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &b in src {
        let s = b as usize;
        acc = (acc << lens[s]) | codes[s];
        nbits += u32::from(lens[s]);
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        out.push((acc << (8 - nbits)) as u8);
    }
    Ok(())
}

/// Decode exactly `out_len` symbols from a [`huff_compress`] stream that
/// spans all of `buf`; rejects malformed tables, truncation, and trailing
/// garbage.
pub(crate) fn huff_decompress(buf: &[u8], out_len: usize) -> io::Result<Vec<u8>> {
    let pos = &mut 0usize;
    let n_used = read_vu64_at(buf, pos)? as usize;
    if n_used > 256 {
        return Err(bad("oversized huffman table"));
    }
    if n_used == 0 {
        if out_len != 0 {
            return Err(bad("empty huffman table for non-empty stream"));
        }
        if *pos != buf.len() {
            return Err(bad("trailing bytes after huffman table"));
        }
        return Ok(Vec::new());
    }
    let mut lens = [0u8; 256];
    let mut prev_sym: i32 = -1;
    for _ in 0..n_used {
        let end = pos
            .checked_add(2)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| bad("truncated huffman table"))?;
        let (sym, len) = (buf[*pos], buf[*pos + 1]);
        *pos = end;
        if i32::from(sym) <= prev_sym {
            return Err(bad("huffman table symbols out of order"));
        }
        prev_sym = i32::from(sym);
        if len == 0 || usize::from(len) > MAX_CODE_LEN {
            return Err(bad("huffman code length out of range"));
        }
        lens[sym as usize] = len;
    }
    // Canonical decode tables: first code and first symbol index per
    // length, with a Kraft check so no length class overflows its prefix
    // space (which would make decoding ambiguous or non-terminating).
    let mut syms: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    syms.sort_by_key(|&s| (lens[s], s));
    let mut count = [0u64; MAX_CODE_LEN + 1];
    for &s in &syms {
        count[usize::from(lens[s])] += 1;
    }
    let mut first_code = [0u64; MAX_CODE_LEN + 1];
    let mut first_idx = [0usize; MAX_CODE_LEN + 1];
    let mut code = 0u64;
    let mut idx = 0usize;
    for len in 1..=MAX_CODE_LEN {
        first_code[len] = code;
        first_idx[len] = idx;
        code += count[len];
        idx += count[len] as usize;
        if code > 1u64 << len {
            return Err(bad("invalid huffman code lengths"));
        }
        code <<= 1;
    }

    // One-peek lookup table for codes of ≤ LOOKUP_BITS bits: every index
    // whose top bits spell a code maps to `sym << 8 | code-len`. Entry 0
    // (code length 0 is never valid) escapes to the bit-by-bit walk —
    // longer codes, corrupt codes, and end-of-stream truncation.
    let mut lut = vec![0u16; 1 << LOOKUP_BITS];
    for (i, &s) in syms.iter().enumerate() {
        let len = usize::from(lens[s]);
        if len > LOOKUP_BITS {
            continue;
        }
        let code = first_code[len] + (i - first_idx[len]) as u64;
        let lo = (code as usize) << (LOOKUP_BITS - len);
        let hi = lo + (1 << (LOOKUP_BITS - len));
        for entry in &mut lut[lo..hi] {
            *entry = ((s as u16) << 8) | len as u16;
        }
    }

    // Fast path: while a full 8-byte load fits, decode several symbols
    // per loaded window with no per-symbol refill or bounds checks — a
    // window holds ≥ 57 valid stream bits, so peeks at offsets ≤ 44 stay
    // inside it, and every consumed bit is a real stream bit. The stream
    // tail and codes longer than the table fall back to a checked
    // bit-by-bit walk.
    let bits = &buf[*pos..];
    let total_bits = bits.len() * 8;
    let mut out = Vec::with_capacity(out_len);
    let mut bit_pos = 0usize;
    while out.len() < out_len {
        let byte = bit_pos >> 3;
        if byte + 8 <= bits.len() {
            let chunk: [u8; 8] = bits[byte..byte + 8].try_into().expect("8-byte slice");
            let window = u64::from_be_bytes(chunk) << (bit_pos & 7);
            let mut used = 0usize;
            while used <= 44 && out.len() < out_len {
                let entry = lut[((window << used) >> (64 - LOOKUP_BITS)) as usize];
                if entry == 0 {
                    break;
                }
                used += usize::from(entry & 0xff);
                out.push((entry >> 8) as u8);
            }
            bit_pos += used;
            if used > 0 {
                continue;
            }
        }
        let mut code = 0u64;
        let mut len = 0usize;
        loop {
            if bit_pos >= total_bits {
                return Err(bad("truncated huffman stream"));
            }
            code = (code << 1) | u64::from((bits[bit_pos >> 3] >> (7 - (bit_pos & 7))) & 1);
            bit_pos += 1;
            len += 1;
            if len > MAX_CODE_LEN {
                return Err(bad("invalid huffman code"));
            }
            if code >= first_code[len] && code - first_code[len] < count[len] {
                out.push(syms[first_idx[len] + (code - first_code[len]) as usize] as u8);
                break;
            }
        }
    }
    if bit_pos.div_ceil(8) != bits.len() {
        return Err(bad("trailing bytes in huffman stream"));
    }
    Ok(out)
}

/// Width of the one-peek decode table; codes longer than this (vanishingly
/// rare under block-sized skewed histograms) take the bit-by-bit path.
const LOOKUP_BITS: usize = 12;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Compress `src` into `out`: `[op-bytes: varint]` followed by the
/// Huffman-coded LZ op stream.
pub(crate) fn pack(src: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let mut ops = Vec::with_capacity(src.len() / 2 + 16);
    lz_compress(src, &mut ops);
    write_vu64(out, ops.len() as u64);
    huff_compress(&ops, out)
}

/// Decompress a [`pack`]ed buffer back into exactly `raw_len` bytes,
/// consuming all of `buf`.
pub(crate) fn unpack(buf: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let pos = &mut 0usize;
    let ops_len = read_vu64_at(buf, pos)?;
    // An op stream is never much larger than its decoded form (a 4-byte
    // match costs at most 6 op bytes); 2× + slack bounds any allocation
    // a corrupt length could request.
    if ops_len > 2 * raw_len as u64 + 1024 {
        return Err(bad("implausible op stream size"));
    }
    let ops = huff_decompress(&buf[*pos..], ops_len as usize)?;
    lz_decompress(&ops, raw_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_bytes(n: usize, vocabish: bool) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let v = next();
                if vocabish {
                    // Skewed small values, like varint-coded Zipf ids.
                    ((v % 97) * (v % 3)) as u8 & 0x7f
                } else {
                    v as u8
                }
            })
            .collect()
    }

    #[test]
    fn lz_round_trips_and_compresses_repetition() {
        let phrase = xorshift_bytes(300, true);
        let mut src = Vec::new();
        for _ in 0..50 {
            src.extend_from_slice(&phrase);
        }
        let mut ops = Vec::new();
        lz_compress(&src, &mut ops);
        assert!(
            ops.len() * 4 < src.len(),
            "repeated phrases must compress well, got {} of {}",
            ops.len(),
            src.len()
        );
        assert_eq!(lz_decompress(&ops, src.len()).unwrap(), src);
    }

    #[test]
    fn lz_round_trips_incompressible_and_tiny_inputs() {
        for src in [
            Vec::new(),
            vec![7u8],
            vec![1, 2, 3],
            xorshift_bytes(10_000, false),
        ] {
            let mut ops = Vec::new();
            lz_compress(&src, &mut ops);
            assert_eq!(lz_decompress(&ops, src.len()).unwrap(), src, "{src:?}");
        }
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // A run longer than its period forces off < len replication.
        let src = vec![5u8; 4096];
        let mut ops = Vec::new();
        lz_compress(&src, &mut ops);
        assert!(ops.len() < 32);
        assert_eq!(lz_decompress(&ops, src.len()).unwrap(), src);
    }

    #[test]
    fn lz_rejects_corrupt_streams() {
        let src = xorshift_bytes(500, true);
        let mut ops = Vec::new();
        lz_compress(&src, &mut ops);
        // Wrong target size.
        assert!(lz_decompress(&ops, src.len() + 1).is_err());
        assert!(lz_decompress(&ops, src.len().saturating_sub(1)).is_err());
        // Truncation anywhere fails.
        assert!(lz_decompress(&ops[..ops.len() / 2], src.len()).is_err());
        // A match op with an offset beyond the produced output.
        let mut evil = Vec::new();
        write_vu64(&mut evil, 1 << 1); // literal run of 1
        evil.push(9);
        write_vu64(&mut evil, 1); // match, len 4
        write_vu64(&mut evil, 40); // offset 40 > 1 byte produced
        assert!(lz_decompress(&evil, 5).is_err());
    }

    #[test]
    fn huffman_round_trips_skewed_and_uniform_bytes() {
        for src in [
            Vec::new(),
            vec![42u8; 1000],
            xorshift_bytes(20_000, true),
            xorshift_bytes(20_000, false),
            (0..=255u8).collect::<Vec<u8>>(),
        ] {
            let mut enc = Vec::new();
            huff_compress(&src, &mut enc).unwrap();
            assert_eq!(huff_decompress(&enc, src.len()).unwrap(), src);
        }
    }

    #[test]
    fn huffman_compresses_skewed_bytes() {
        let src = xorshift_bytes(50_000, true);
        let mut enc = Vec::new();
        huff_compress(&src, &mut enc).unwrap();
        assert!(
            enc.len() * 10 < src.len() * 9,
            "skewed bytes must shrink ≥ 10%: {} of {}",
            enc.len(),
            src.len()
        );
    }

    #[test]
    fn huffman_rejects_corrupt_tables_and_streams() {
        let src = xorshift_bytes(1000, true);
        let mut enc = Vec::new();
        huff_compress(&src, &mut enc).unwrap();
        // Truncations die.
        for cut in [1, enc.len() / 2, enc.len() - 1] {
            assert!(huff_decompress(&enc[..cut], src.len()).is_err(), "{cut}");
        }
        // Over-claimed symbol count.
        let mut evil = Vec::new();
        write_vu64(&mut evil, 300);
        assert!(huff_decompress(&evil, 10).is_err());
        // Kraft violation: two symbols both with code length 1 plus a third.
        let mut evil = Vec::new();
        write_vu64(&mut evil, 3);
        for s in 0..3u8 {
            evil.push(s);
            evil.push(1);
        }
        evil.push(0);
        assert!(huff_decompress(&evil, 1).is_err());
    }

    #[test]
    fn pack_round_trips_and_rejects_bad_frames() {
        let phrase = xorshift_bytes(200, true);
        let mut src = xorshift_bytes(3000, true);
        for _ in 0..20 {
            src.extend_from_slice(&phrase);
        }
        let mut packed = Vec::new();
        pack(&src, &mut packed).unwrap();
        assert!(packed.len() < src.len());
        assert_eq!(unpack(&packed, src.len()).unwrap(), src);
        assert!(unpack(&packed, src.len() + 3).is_err());
        assert!(unpack(&packed[..packed.len() - 2], src.len()).is_err());
        // Implausible op-stream size is rejected before any allocation.
        let mut evil = Vec::new();
        write_vu64(&mut evil, u64::MAX / 2);
        assert!(unpack(&evil, 100).is_err());
    }
}
