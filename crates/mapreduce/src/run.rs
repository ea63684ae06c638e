//! Sorted spill runs: the unit of data flowing from map tasks to reducers.
//!
//! A run is a sequence of fixed-budget **blocks**, each holding whole
//! records encoded through a [`BlockCodec`] and shipped inside a
//! CRC-guarded frame:
//!
//! ```text
//! run   := frame*
//! frame := [varint payload_len][crc32 LE u32][payload]
//! payload := one encoded block
//! block := record+                  (≈ RUN_BLOCK_BYTES of raw frames each)
//!
//! Plain record      := [varint klen][key][varint vlen][val]
//! FrontCoded record := [varint lcp<<5 | s<<1 | v]
//!                      ([varint slen-15  only when s = 15])
//!                      [suffix]
//!                      ([varint vlen][val]  only when v = 0)
//!                       key = prev_key[..lcp] ++ suffix
//!                       val = prev_val        when v = 1
//!                       slen = s              when s < 15
//! ```
//!
//! Every block frame carries a CRC32 of its payload, verified before a
//! single record is decoded, so a flipped or truncated byte surfaces as
//! [`MrError::ChecksumMismatch`] instead of a silent mis-decode (format
//! version 2; the unframed version-1 stream was retired with it — runs
//! never outlive their process, so no cross-version reads exist).
//! Under the frame, [`RunCodec::Plain`] payloads remain byte-identical to
//! the historical flat record format. [`RunCodec::FrontCoded`]
//! delta-codes each key against its predecessor — the natural fit for
//! SUFFIX-σ, whose reverse-lexicographically sorted suffixes share long
//! common prefixes — and restarts the delta chain at every block boundary
//! (the first record of a block is written with `lcp = 0`), so decoding
//! never depends on state older than one block.
//!
//! Runs live in memory by default; with `spill_to_disk` enabled they are
//! written to a per-job temporary directory — through a `.tmp` path
//! renamed into place at seal, so a crashed writer never leaves a
//! completed-looking spill file — modelling Hadoop's spill files and
//! keeping map-task memory bounded by the sort buffer.

use crate::crc::crc32;
use crate::error::{MrError, Result};
use crate::fault::FaultPlan;
use crate::io::{read_vu64_at, write_vu64};
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Raw-frame budget per block: once a block's staged frames reach this
/// size it is encoded and flushed. Small enough to keep encoder scratch
/// cache-resident, large enough that per-block overhead vanishes.
pub const RUN_BLOCK_BYTES: usize = 32 * 1024;

/// A per-job temporary directory, removed on drop.
pub struct TempDir {
    path: PathBuf,
    next_file: AtomicU64,
}

impl TempDir {
    /// Create a uniquely named directory under `base` (or the system temp
    /// directory when `base` is `None`).
    pub fn create(base: Option<&Path>) -> Result<Self> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "mapreduce-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = base.join(unique);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir {
            path,
            next_file: AtomicU64::new(0),
        })
    }

    /// Allocate a fresh file path inside the directory.
    pub fn next_path(&self) -> PathBuf {
        let n = self.next_file.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("spill-{n}.run"))
    }

    /// Directory location (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Which [`BlockCodec`] a run is encoded with. Carried on the [`Run`]
/// itself (not in the byte stream), selected per job through
/// `JobConfig::run_codec`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunCodec {
    /// Flat `[klen][key][vlen][val]` frames — byte-identical to the
    /// historical run format.
    #[default]
    Plain,
    /// Per-record front coding: each key stores only the length of its
    /// common prefix with the previous key plus the differing suffix.
    FrontCoded,
    /// Front-coded keys plus byte-delta values: each value stores only
    /// its common prefix length with the previous value and the differing
    /// suffix. Aimed at APRIORI-INDEX posting-list payloads, which front
    /// coding barely touches because its value path is all-or-nothing.
    PostingDelta,
}

impl RunCodec {
    /// Stable CLI / config name.
    pub fn name(&self) -> &'static str {
        match self {
            RunCodec::Plain => "plain",
            RunCodec::FrontCoded => "front",
            RunCodec::PostingDelta => "posting-delta",
        }
    }

    /// Parse a CLI / config name (`"plain"`, `"front"`, `"front-coded"`,
    /// `"posting-delta"`, `"postings"`).
    pub fn parse(s: &str) -> Option<RunCodec> {
        match s {
            "plain" => Some(RunCodec::Plain),
            "front" | "front-coded" => Some(RunCodec::FrontCoded),
            "posting-delta" | "postings" => Some(RunCodec::PostingDelta),
            _ => None,
        }
    }

    /// The codec implementation.
    pub fn block_codec(&self) -> &'static dyn BlockCodec {
        match self {
            RunCodec::Plain => &PlainCodec,
            RunCodec::FrontCoded => &FrontCodedCodec,
            RunCodec::PostingDelta => &PostingDeltaCodec,
        }
    }
}

/// Offsets of one staged record inside a [`RawBlock`]'s frame buffer.
#[derive(Clone, Copy, Debug)]
struct RawRec {
    key_start: u32,
    key_end: u32,
    val_start: u32,
    val_end: u32,
}

/// One writer-side block of records, staged as raw `[klen][key][vlen][val]`
/// frames plus an offset table — the input to [`BlockCodec::encode_block`].
pub struct RawBlock<'a> {
    data: &'a [u8],
    recs: &'a [RawRec],
}

impl RawBlock<'_> {
    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The `i`-th record's (key, value) byte slices.
    pub fn record(&self, i: usize) -> (&[u8], &[u8]) {
        let r = &self.recs[i];
        (
            &self.data[r.key_start as usize..r.key_end as usize],
            &self.data[r.val_start as usize..r.val_end as usize],
        )
    }

    /// The raw (plain-framed) bytes of the whole block.
    fn raw_frames(&self) -> &[u8] {
        self.data
    }
}

/// Decoder state a codec may carry between records of one run: the
/// previously decoded key and value (the front-coding delta bases).
#[derive(Default)]
pub struct DecodeState {
    prev_key: Vec<u8>,
    prev_val: Vec<u8>,
}

/// A run block encoding: turns one block of records into bytes on the way
/// out and decodes records one at a time on the way back in.
///
/// Decoding is sequential and stateful only through the previous record
/// ([`DecodeState`]), which encoders reset at block boundaries by emitting
/// a self-contained first record — so readers need no block framing.
pub trait BlockCodec: Send + Sync {
    /// Stable name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Encode every record of `block` into `out`.
    fn encode_block(&self, block: &RawBlock<'_>, out: &mut Vec<u8>);

    /// Decode the next record from `input` into `key`/`val` (both cleared
    /// by the caller), updating `state` to the decoded record. Returns
    /// `false` on clean end-of-run.
    fn decode_record(
        &self,
        input: &mut RunInput,
        state: &mut DecodeState,
        key: &mut Vec<u8>,
        val: &mut Vec<u8>,
    ) -> Result<bool>;
}

/// The identity codec: blocks are emitted as their raw frames, so the
/// stream is byte-identical to the pre-block flat format.
pub struct PlainCodec;

impl BlockCodec for PlainCodec {
    fn name(&self) -> &'static str {
        "plain"
    }

    fn encode_block(&self, block: &RawBlock<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(block.raw_frames());
    }

    fn decode_record(
        &self,
        input: &mut RunInput,
        _state: &mut DecodeState,
        key: &mut Vec<u8>,
        val: &mut Vec<u8>,
    ) -> Result<bool> {
        let Some(klen) = input.next_varint()? else {
            return Ok(false);
        };
        input.append_exact(klen as usize, key)?;
        let vlen = input.read_varint()?;
        input.append_exact(vlen as usize, val)?;
        Ok(true)
    }
}

/// Inline suffix lengths below this encode inside the header varint; the
/// sentinel value itself flags an explicit `slen - 15` varint following.
const SLEN_INLINE_MAX: u64 = 15;

/// Front coding: one varint header packs the key's longest-common-prefix
/// length with the previous key (computed on the *serialized* keys), the
/// suffix length (inline below 15 bytes, escaped otherwise), and a
/// value-repeat flag that elides `[vlen][val]` entirely when the value
/// equals the previous record's.
///
/// The packing is what makes the codec pay on *short* keys: a typical
/// shuffle record — a few varint-coded terms, a one-byte count equal to
/// its neighbor's — costs one header byte plus its unshared suffix.
/// Sorted runs with clustered keys (SUFFIX-σ suffixes, shared-prefix
/// n-grams) shrink to a fraction of their framed size, and the value flag
/// collapses the heavy duplication of un-combined map output (millions of
/// `(suffix, 1)` records). The worst case — nothing shared, long suffix —
/// costs one extra byte per record over plain framing.
pub struct FrontCodedCodec;

impl BlockCodec for FrontCodedCodec {
    fn name(&self) -> &'static str {
        "front"
    }

    fn encode_block(&self, block: &RawBlock<'_>, out: &mut Vec<u8>) {
        // Empty at the first record of the block, which restarts the
        // delta chain (lcp = 0, explicit value ⇒ self-contained record).
        let mut prev: Option<(&[u8], &[u8])> = None;
        for i in 0..block.len() {
            let (key, val) = block.record(i);
            let (prev_key, prev_val) = prev.unwrap_or((&[], &[]));
            let lcp = common_prefix_len(prev_key, key);
            let same_val = prev.is_some() && val == prev_val;
            let slen = (key.len() - lcp) as u64;
            let inline = slen.min(SLEN_INLINE_MAX);
            write_vu64(out, (lcp as u64) << 5 | inline << 1 | u64::from(same_val));
            if inline == SLEN_INLINE_MAX {
                write_vu64(out, slen - SLEN_INLINE_MAX);
            }
            out.extend_from_slice(&key[lcp..]);
            if !same_val {
                write_vu64(out, val.len() as u64);
                out.extend_from_slice(val);
            }
            prev = Some((key, val));
        }
    }

    fn decode_record(
        &self,
        input: &mut RunInput,
        state: &mut DecodeState,
        key: &mut Vec<u8>,
        val: &mut Vec<u8>,
    ) -> Result<bool> {
        let Some(header) = input.next_varint()? else {
            return Ok(false);
        };
        let same_val = header & 1 == 1;
        let inline = (header >> 1) & SLEN_INLINE_MAX;
        let lcp = (header >> 5) as usize;
        if lcp > state.prev_key.len() {
            return Err(MrError::Corrupt("front-coded lcp exceeds previous key"));
        }
        let suffix_len = if inline == SLEN_INLINE_MAX {
            // Checked: a corrupt escape varint must surface as an error,
            // not wrap into a bogus small length.
            usize::try_from(input.read_varint()?)
                .ok()
                .and_then(|extra| extra.checked_add(SLEN_INLINE_MAX as usize))
                .ok_or(MrError::Corrupt("front-coded suffix length overflow"))?
        } else {
            inline as usize
        };
        state.prev_key.truncate(lcp);
        input.append_exact(suffix_len, &mut state.prev_key)?;
        if same_val {
            val.extend_from_slice(&state.prev_val);
        } else {
            let vlen = input.read_varint()? as usize;
            input.append_exact(vlen, val)?;
            state.prev_val.clear();
            state.prev_val.extend_from_slice(val);
        }
        key.extend_from_slice(&state.prev_key);
        Ok(true)
    }
}

/// Front-coded keys (identical header layout to [`FrontCodedCodec`]) with
/// **byte-delta values**: when a value is not an exact repeat, it is
/// stored as `[vlcp][vslen][vsuffix]` against the previous record's value
/// instead of `[vlen][val]`.
///
/// This targets the payloads front coding barely touches: APRIORI-INDEX
/// shuffles gap-coded posting lists whose serialized bytes are large,
/// rarely identical, but structurally similar between neighbours — the
/// mapper emits single-posting lists `[1][did][n][gaps…]` sorted by gram,
/// so consecutive values share the leading count byte and the high-order
/// did bytes. Front coding's value path is all-or-nothing (repeat or full
/// copy) and pays full freight there; the byte delta recovers the shared
/// prefix at a worst case of one extra byte per record (`vlcp = 0`).
pub struct PostingDeltaCodec;

impl BlockCodec for PostingDeltaCodec {
    fn name(&self) -> &'static str {
        "posting-delta"
    }

    fn encode_block(&self, block: &RawBlock<'_>, out: &mut Vec<u8>) {
        let mut prev: Option<(&[u8], &[u8])> = None;
        for i in 0..block.len() {
            let (key, val) = block.record(i);
            let (prev_key, prev_val) = prev.unwrap_or((&[], &[]));
            let lcp = common_prefix_len(prev_key, key);
            let same_val = prev.is_some() && val == prev_val;
            let slen = (key.len() - lcp) as u64;
            let inline = slen.min(SLEN_INLINE_MAX);
            write_vu64(out, (lcp as u64) << 5 | inline << 1 | u64::from(same_val));
            if inline == SLEN_INLINE_MAX {
                write_vu64(out, slen - SLEN_INLINE_MAX);
            }
            out.extend_from_slice(&key[lcp..]);
            if !same_val {
                // The delta base resets with the block (prev is empty at
                // the first record), keeping decode state one block deep.
                let vlcp = if prev.is_some() {
                    common_prefix_len(prev_val, val)
                } else {
                    0
                };
                write_vu64(out, vlcp as u64);
                write_vu64(out, (val.len() - vlcp) as u64);
                out.extend_from_slice(&val[vlcp..]);
            }
            prev = Some((key, val));
        }
    }

    fn decode_record(
        &self,
        input: &mut RunInput,
        state: &mut DecodeState,
        key: &mut Vec<u8>,
        val: &mut Vec<u8>,
    ) -> Result<bool> {
        let Some(header) = input.next_varint()? else {
            return Ok(false);
        };
        let same_val = header & 1 == 1;
        let inline = (header >> 1) & SLEN_INLINE_MAX;
        let lcp = (header >> 5) as usize;
        if lcp > state.prev_key.len() {
            return Err(MrError::Corrupt("posting-delta lcp exceeds previous key"));
        }
        let suffix_len = if inline == SLEN_INLINE_MAX {
            usize::try_from(input.read_varint()?)
                .ok()
                .and_then(|extra| extra.checked_add(SLEN_INLINE_MAX as usize))
                .ok_or(MrError::Corrupt("posting-delta suffix length overflow"))?
        } else {
            inline as usize
        };
        state.prev_key.truncate(lcp);
        input.append_exact(suffix_len, &mut state.prev_key)?;
        if !same_val {
            let vlcp = usize::try_from(input.read_varint()?)
                .map_err(|_| MrError::Corrupt("posting-delta value lcp overflow"))?;
            if vlcp > state.prev_val.len() {
                return Err(MrError::Corrupt(
                    "posting-delta value lcp exceeds previous value",
                ));
            }
            let vslen = input.read_varint()? as usize;
            state.prev_val.truncate(vlcp);
            input.append_exact(vslen, &mut state.prev_val)?;
        }
        val.extend_from_slice(&state.prev_val);
        key.extend_from_slice(&state.prev_key);
        Ok(true)
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Standalone block encode/decode
// ---------------------------------------------------------------------------

/// Stages records and encodes them as **one self-contained block** of a
/// [`RunCodec`] — the write-side primitive for formats that need
/// individually addressable blocks (e.g. a serving index that positioned-
/// reads one block per lookup) rather than a sequential [`Run`].
///
/// Every codec restarts its delta chain at the first record of a block,
/// so a block produced here decodes with a fresh [`DecodeState`] — see
/// [`decode_block`].
pub struct BlockEncoder {
    codec: RunCodec,
    block: Vec<u8>,
    recs: Vec<RawRec>,
}

impl BlockEncoder {
    /// New empty encoder for `codec`.
    pub fn new(codec: RunCodec) -> Self {
        BlockEncoder {
            codec,
            block: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Stage one record. Records are encoded in push order.
    pub fn push(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        write_vu64(&mut self.block, key.len() as u64);
        let key_start = self.block.len();
        self.block.extend_from_slice(key);
        let key_end = self.block.len();
        write_vu64(&mut self.block, val.len() as u64);
        let val_start = self.block.len();
        self.block.extend_from_slice(val);
        let val_end = self.block.len();
        if u32::try_from(val_end).is_err() {
            return Err(MrError::Config(
                "block record exceeds the 4 GiB offset space".into(),
            ));
        }
        self.recs.push(RawRec {
            key_start: key_start as u32,
            key_end: key_end as u32,
            val_start: val_start as u32,
            val_end: val_end as u32,
        });
        Ok(())
    }

    /// Number of records staged.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no record is staged.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Raw (pre-codec) frame bytes staged so far — the block-budget gauge.
    pub fn raw_bytes(&self) -> usize {
        self.block.len()
    }

    /// Encode every staged record into `out` as one self-contained block
    /// and clear the stage for the next block.
    pub fn encode_into(&mut self, out: &mut Vec<u8>) {
        self.codec.block_codec().encode_block(
            &RawBlock {
                data: &self.block,
                recs: &self.recs,
            },
            out,
        );
        self.block.clear();
        self.recs.clear();
    }
}

/// Decode one self-contained block produced by [`BlockEncoder`], calling
/// `f` with each record's key and value bytes in encoding order.
///
/// The bytes are one bare codec payload — no run frame headers; the
/// containing format (e.g. a serving segment) owns integrity checking.
pub fn decode_block(
    codec: RunCodec,
    bytes: Vec<u8>,
    mut f: impl FnMut(&[u8], &[u8]) -> Result<()>,
) -> Result<()> {
    let mut input = RunInput::mem_unframed(Arc::new(bytes));
    let mut state = DecodeState::default();
    let codec = codec.block_codec();
    let (mut key, mut val) = (Vec::new(), Vec::new());
    loop {
        key.clear();
        val.clear();
        if !codec.decode_record(&mut input, &mut state, &mut key, &mut val)? {
            return Ok(());
        }
        f(&key, &val)?;
    }
}

// ---------------------------------------------------------------------------
// Run + writer + reader
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum RunSource {
    Mem(Arc<Vec<u8>>),
    File(PathBuf),
}

/// One sorted run of serialized records. Cloning is cheap — the backing
/// bytes are shared (`Arc` in memory, a path on disk) — which is what
/// lets run-backed map splits hand out rewindable copies for speculative
/// backup attempts.
#[derive(Clone)]
pub struct Run {
    source: RunSource,
    /// Number of records in the run.
    pub records: u64,
    /// Encoded bytes as stored/shipped (post-codec, including the
    /// per-block frame header and CRC).
    pub bytes: u64,
    /// Raw frame bytes before encoding (pre-codec, unframed).
    pub raw_bytes: u64,
    /// The codec the run's bytes are encoded with.
    pub codec: RunCodec,
    /// Fault-injection hooks for readers of this run (tests and the CI
    /// fault leg); `None` in production.
    pub(crate) fault: Option<Arc<FaultPlan>>,
}

impl Run {
    fn open_input(&self) -> Result<RunInput> {
        Ok(match &self.source {
            RunSource::Mem(data) => RunInput::mem_framed(
                Arc::clone(data),
                self.fault.clone(),
                "<mem-run>".to_string(),
            ),
            RunSource::File(path) => {
                let f = File::open(path)?;
                RunInput::file(
                    BufReader::with_capacity(128 * 1024, f),
                    self.fault.clone(),
                    path.display().to_string(),
                )
            }
        })
    }

    /// Open a sequential reader over the run.
    pub fn reader(&self) -> Result<RunReader> {
        Ok(RunReader {
            input: self.open_input()?,
            codec: self.codec.block_codec(),
            state: DecodeState::default(),
        })
    }

    /// True when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Reopen a run persisted by [`Run::persist_to`] (checkpoint resume).
    /// The framed bytes at `path` carry their own per-block CRCs, so a
    /// truncated or corrupted file is caught at read time.
    pub fn from_file(
        path: PathBuf,
        records: u64,
        bytes: u64,
        raw_bytes: u64,
        codec: RunCodec,
    ) -> Run {
        Run {
            source: RunSource::File(path),
            records,
            bytes,
            raw_bytes,
            codec,
            fault: None,
        }
    }

    /// Durably copy the run's framed bytes to `path` (checkpoint
    /// publication), staging through `path.tmp` and renaming into place so
    /// a crash mid-copy never leaves a file a resume would trust. Returns
    /// the number of bytes written.
    pub fn persist_to(&self, path: &Path) -> Result<u64> {
        let mut tmp = path.to_path_buf().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = match &self.source {
            RunSource::Mem(data) => {
                std::fs::write(&tmp, data.as_slice())?;
                data.len() as u64
            }
            RunSource::File(src) => std::fs::copy(src, &tmp)?,
        };
        std::fs::rename(&tmp, path)?;
        Ok(written)
    }
}

enum WriteBackend {
    /// In-memory run buffer.
    Mem { buf: Vec<u8> },
    /// File-backed run (spill-to-disk mode). Bytes go to `tmp`, which is
    /// atomically renamed to `path` when the run seals — a crash mid-run
    /// leaves only a `.tmp` no reader ever opens.
    File {
        w: BufWriter<File>,
        tmp: PathBuf,
        path: PathBuf,
    },
}

impl WriteBackend {
    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        match self {
            WriteBackend::Mem { buf } => buf.extend_from_slice(bytes),
            WriteBackend::File { w, .. } => w.write_all(bytes)?,
        }
        Ok(())
    }
}

/// Sequential writer producing a [`Run`]: records are staged as raw frames
/// into the current block and pushed through the codec at every
/// [`RUN_BLOCK_BYTES`] worth of input.
pub struct RunWriter {
    backend: WriteBackend,
    codec: RunCodec,
    block_budget: usize,
    /// Raw frames of the block being staged.
    block: Vec<u8>,
    /// Offset table of the staged block.
    recs: Vec<RawRec>,
    /// Encoded-block scratch, reused across flushes.
    scratch: Vec<u8>,
    /// Frame-header scratch (`[varint len][crc]`), reused across flushes.
    head: Vec<u8>,
    records: u64,
    raw_bytes: u64,
    encoded_bytes: u64,
}

impl RunWriter {
    /// Start an in-memory run with the [`RunCodec::Plain`] codec.
    pub fn mem() -> Self {
        Self::mem_codec(RunCodec::Plain)
    }

    /// Start an in-memory run encoded with `codec`.
    pub fn mem_codec(codec: RunCodec) -> Self {
        Self::new(WriteBackend::Mem { buf: Vec::new() }, codec)
    }

    /// Start a file-backed run inside `dir` with the plain codec.
    pub fn file(dir: &TempDir) -> Result<Self> {
        Self::file_codec(dir, RunCodec::Plain)
    }

    /// Start a file-backed run inside `dir` encoded with `codec`.
    pub fn file_codec(dir: &TempDir, codec: RunCodec) -> Result<Self> {
        let path = dir.next_path();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let f = File::create(&tmp)?;
        Ok(Self::new(
            WriteBackend::File {
                w: BufWriter::with_capacity(128 * 1024, f),
                tmp,
                path,
            },
            codec,
        ))
    }

    fn new(backend: WriteBackend, codec: RunCodec) -> Self {
        RunWriter {
            backend,
            codec,
            block_budget: RUN_BLOCK_BYTES,
            block: Vec::new(),
            recs: Vec::new(),
            scratch: Vec::new(),
            head: Vec::new(),
            records: 0,
            raw_bytes: 0,
            encoded_bytes: 0,
        }
    }

    /// Override the per-block raw-byte budget (tests and benchmarks; the
    /// default [`RUN_BLOCK_BYTES`] is right for production use).
    pub fn block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Append one record.
    pub fn write_record(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let frame_start = self.block.len();
        write_vu64(&mut self.block, key.len() as u64);
        let key_start = self.block.len();
        self.block.extend_from_slice(key);
        let key_end = self.block.len();
        write_vu64(&mut self.block, val.len() as u64);
        let val_start = self.block.len();
        self.block.extend_from_slice(val);
        let val_end = self.block.len();
        // Offsets are u32; a block only ever holds one record past the
        // budget, so this rejects single records ≥ 4 GiB rather than
        // wrapping offsets into silent corruption.
        if u32::try_from(val_end).is_err() {
            return Err(MrError::Config(
                "run record exceeds the 4 GiB block offset space".into(),
            ));
        }
        self.recs.push(RawRec {
            key_start: key_start as u32,
            key_end: key_end as u32,
            val_start: val_start as u32,
            val_end: val_end as u32,
        });
        self.records += 1;
        self.raw_bytes += (val_end - frame_start) as u64;
        if self.block.len() >= self.block_budget {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.recs.is_empty() {
            return Ok(());
        }
        let payload: &[u8] = if self.codec == RunCodec::Plain {
            // The plain codec is the identity ([`PlainCodec::encode_block`]
            // copies the raw frames verbatim): frame the staged block
            // directly instead of round-tripping it through scratch.
            &self.block
        } else {
            self.scratch.clear();
            self.codec.block_codec().encode_block(
                &RawBlock {
                    data: &self.block,
                    recs: &self.recs,
                },
                &mut self.scratch,
            );
            &self.scratch
        };
        // Frame: [varint payload_len][crc32 LE][payload]. The CRC is
        // verified before any record of the payload is decoded.
        self.head.clear();
        write_vu64(&mut self.head, payload.len() as u64);
        self.head.extend_from_slice(&crc32(payload).to_le_bytes());
        self.backend.write(&self.head)?;
        self.backend.write(payload)?;
        self.encoded_bytes += (self.head.len() + payload.len()) as u64;
        self.block.clear();
        self.recs.clear();
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Finish and seal the run. File-backed runs are renamed from their
    /// `.tmp` write path into place only here, so a reader can never open
    /// a partially written run.
    pub fn finish(mut self) -> Result<Run> {
        self.flush_block()?;
        let source = match self.backend {
            WriteBackend::Mem { buf } => RunSource::Mem(Arc::new(buf)),
            WriteBackend::File { mut w, tmp, path } => {
                w.flush()?;
                drop(w);
                std::fs::rename(&tmp, &path)?;
                RunSource::File(path)
            }
        };
        Ok(Run {
            source,
            records: self.records,
            bytes: self.encoded_bytes,
            raw_bytes: self.raw_bytes,
            codec: self.codec,
            fault: None,
        })
    }
}

/// Largest chunk a file reader fills at once while loading a frame
/// payload: bounds the allocation a corrupt length varint can cause to
/// one chunk (the read fails at EOF long before a bogus multi-gigabyte
/// length is ever reserved).
const FRAME_READ_CHUNK: usize = 64 * 1024;

enum InputSrc {
    /// Cursor over an in-memory run: the current frame's payload is the
    /// `pos..frame_end` window of `data` — verified in place, zero-copy.
    Mem {
        data: Arc<Vec<u8>>,
        pos: usize,
        frame_end: usize,
        /// `false` for [`decode_block`] inputs, whose bytes are one bare
        /// codec payload with no frame headers (their container — e.g. a
        /// serving segment — carries its own CRCs).
        framed: bool,
    },
    /// Reader over a file-backed run; each frame payload is loaded and
    /// verified into `frame` before any record of it is decoded.
    File {
        rd: BufReader<File>,
        frame: Vec<u8>,
        fpos: usize,
    },
}

/// Byte input of one run: an in-memory slice or a buffered spill file,
/// exposed to codecs one CRC-verified frame payload at a time.
/// [`BlockCodec::decode_record`] pulls varints and payload bytes from it.
pub struct RunInput {
    src: InputSrc,
    fault: Option<Arc<FaultPlan>>,
    /// Identifies the backing file/buffer in checksum errors.
    name: String,
    /// Frames consumed so far — the `block` of a checksum error.
    frames_read: u64,
}

impl RunInput {
    fn mem_framed(data: Arc<Vec<u8>>, fault: Option<Arc<FaultPlan>>, name: String) -> Self {
        RunInput {
            src: InputSrc::Mem {
                data,
                pos: 0,
                frame_end: 0,
                framed: true,
            },
            fault,
            name,
            frames_read: 0,
        }
    }

    /// Input over one bare codec payload with no frame headers (the
    /// [`decode_block`] path).
    fn mem_unframed(data: Arc<Vec<u8>>) -> Self {
        let end = data.len();
        RunInput {
            src: InputSrc::Mem {
                data,
                pos: 0,
                frame_end: end,
                framed: false,
            },
            fault: None,
            name: "<block>".to_string(),
            frames_read: 0,
        }
    }

    fn file(rd: BufReader<File>, fault: Option<Arc<FaultPlan>>, name: String) -> Self {
        RunInput {
            src: InputSrc::File {
                rd,
                frame: Vec::new(),
                fpos: 0,
            },
            fault,
            name,
            frames_read: 0,
        }
    }

    /// Load the next frame: parse its header, read the payload, and
    /// verify the CRC. Returns `false` on clean end-of-run. Only legal at
    /// a frame boundary (the current frame fully consumed).
    fn load_frame(&mut self) -> Result<bool> {
        let corrupt_byte = |payload: &mut [u8], fault: &Option<Arc<FaultPlan>>| {
            if let (Some(plan), Some(first)) = (fault, payload.first().copied()) {
                if plan.corrupt_this_frame() {
                    payload[0] = first ^ 0x01;
                }
            }
        };
        match &mut self.src {
            InputSrc::Mem {
                data,
                pos,
                frame_end,
                framed,
            } => {
                if !*framed || *pos >= data.len() {
                    return Ok(false);
                }
                let len = read_vu64_at(data, pos)
                    .map_err(|_| MrError::Corrupt("truncated run frame header"))?;
                let len = usize::try_from(len)
                    .map_err(|_| MrError::Corrupt("run frame length overflow"))?;
                let crc_end = pos
                    .checked_add(4)
                    .filter(|&e| e <= data.len())
                    .ok_or(MrError::Corrupt("truncated run frame checksum"))?;
                // Length-prefix read guarded above, so the slice is in
                // bounds by construction.
                let stored = u32::from_le_bytes(data[*pos..crc_end].try_into().expect("4 bytes"));
                let payload_end = crc_end
                    .checked_add(len)
                    .filter(|&e| e <= data.len())
                    .ok_or(MrError::Corrupt("truncated run frame payload"))?;
                let payload = &data[crc_end..payload_end];
                let actual = if self
                    .fault
                    .as_ref()
                    .is_some_and(|p| !payload.is_empty() && p.corrupt_this_frame())
                {
                    // Injected read corruption: checksum what a reader
                    // with byte 0 flipped would see. The shared buffer
                    // itself stays clean, so the retrying attempt — like
                    // a Hadoop re-read of a transient bit flip — sees
                    // good bytes.
                    let mut copy = payload.to_vec();
                    copy[0] ^= 0x01;
                    crc32(&copy)
                } else {
                    crc32(payload)
                };
                if actual != stored {
                    return Err(MrError::ChecksumMismatch {
                        file: self.name.clone(),
                        block: self.frames_read,
                    });
                }
                *pos = crc_end;
                *frame_end = payload_end;
                self.frames_read += 1;
                Ok(true)
            }
            InputSrc::File { rd, frame, fpos } => {
                let Some(len) = read_file_varint(rd)? else {
                    return Ok(false);
                };
                let len = usize::try_from(len)
                    .map_err(|_| MrError::Corrupt("run frame length overflow"))?;
                let mut crc_bytes = [0u8; 4];
                rd.read_exact(&mut crc_bytes)
                    .map_err(|_| MrError::Corrupt("truncated run frame checksum"))?;
                let stored = u32::from_le_bytes(crc_bytes);
                frame.clear();
                let mut remaining = len;
                while remaining > 0 {
                    let chunk = remaining.min(FRAME_READ_CHUNK);
                    let start = frame.len();
                    frame.resize(start + chunk, 0);
                    rd.read_exact(&mut frame[start..])
                        .map_err(|_| MrError::Corrupt("truncated run frame payload"))?;
                    remaining -= chunk;
                }
                corrupt_byte(frame, &self.fault);
                if crc32(frame) != stored {
                    return Err(MrError::ChecksumMismatch {
                        file: self.name.clone(),
                        block: self.frames_read,
                    });
                }
                *fpos = 0;
                self.frames_read += 1;
                Ok(true)
            }
        }
    }

    /// Read a varint; `None` on clean EOF at a record boundary. Advances
    /// to the next frame when the current one is fully consumed (records
    /// never span frames).
    fn next_varint(&mut self) -> Result<Option<u64>> {
        loop {
            match &mut self.src {
                InputSrc::Mem {
                    data,
                    pos,
                    frame_end,
                    ..
                } => {
                    if *pos < *frame_end {
                        return Ok(Some(read_vu64_at(&data[..*frame_end], pos)?));
                    }
                }
                InputSrc::File { frame, fpos, .. } => {
                    if *fpos < frame.len() {
                        return Ok(Some(read_vu64_at(frame, fpos)?));
                    }
                }
            }
            if !self.load_frame()? {
                return Ok(None);
            }
        }
    }

    /// Read a varint that must be present (mid-record, so it must not
    /// cross a frame boundary).
    fn read_varint(&mut self) -> Result<u64> {
        match &mut self.src {
            InputSrc::Mem {
                data,
                pos,
                frame_end,
                ..
            } => {
                if *pos >= *frame_end {
                    return Err(MrError::Corrupt("truncated run frame"));
                }
                read_vu64_at(&data[..*frame_end], pos)
            }
            InputSrc::File { frame, fpos, .. } => {
                if *fpos >= frame.len() {
                    return Err(MrError::Corrupt("truncated run frame"));
                }
                read_vu64_at(frame, fpos)
            }
        }
    }

    /// Append exactly `len` payload bytes to `out` (mid-record, within
    /// the current frame).
    fn append_exact(&mut self, len: usize, out: &mut Vec<u8>) -> Result<()> {
        match &mut self.src {
            InputSrc::Mem {
                data,
                pos,
                frame_end,
                ..
            } => {
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= *frame_end)
                    .ok_or(MrError::Corrupt("run frame out of bounds"))?;
                out.extend_from_slice(&data[*pos..end]);
                *pos = end;
                Ok(())
            }
            InputSrc::File { frame, fpos, .. } => {
                let end = fpos
                    .checked_add(len)
                    .filter(|&e| e <= frame.len())
                    .ok_or(MrError::Corrupt("run frame out of bounds"))?;
                out.extend_from_slice(&frame[*fpos..end]);
                *fpos = end;
                Ok(())
            }
        }
    }
}

/// Sequential reader over one run, decoding through the run's codec.
pub struct RunReader {
    input: RunInput,
    codec: &'static dyn BlockCodec,
    /// Last decoded record — the front-coding delta base.
    state: DecodeState,
}

impl RunReader {
    /// Read the next record into the supplied buffers (cleared first).
    /// Returns `false` at the end of the run.
    pub fn next_into(&mut self, key: &mut Vec<u8>, val: &mut Vec<u8>) -> Result<bool> {
        key.clear();
        val.clear();
        self.codec
            .decode_record(&mut self.input, &mut self.state, key, val)
    }
}

/// Read a varint from a file; `None` on clean EOF at a frame boundary.
fn read_file_varint(rd: &mut impl Read) -> Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match rd.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::UnexpectedEof && first => return Ok(None),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(MrError::Corrupt("truncated varint in run file"))
            }
            Err(e) => return Err(e.into()),
        }
        first = false;
        if shift >= 64 {
            return Err(MrError::Corrupt("varint overflow in run file"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-frame overhead for payloads < 128 bytes: 1-byte length varint
    /// plus the 4-byte CRC.
    const SMALL_FRAME_OVERHEAD: u64 = 5;

    /// Wrap a bare codec payload in a valid run frame (what
    /// [`RunWriter::flush_block`] emits), for tests that hand-craft
    /// corrupt payloads.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_vu64(&mut out, payload.len() as u64);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// A [`Run`] over hand-crafted framed bytes.
    fn mem_run(bytes: Vec<u8>, codec: RunCodec) -> Run {
        Run {
            source: RunSource::Mem(Arc::new(bytes)),
            records: 1,
            bytes: 0,
            raw_bytes: 0,
            codec,
            fault: None,
        }
    }

    fn round_trip(mut w: RunWriter) -> Run {
        w.write_record(b"alpha", b"1").unwrap();
        w.write_record(b"beta", b"").unwrap();
        w.write_record(b"", b"value-only").unwrap();
        w.finish().unwrap()
    }

    fn read_all(run: &Run) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rd = run.reader().unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        while rd.next_into(&mut k, &mut v).unwrap() {
            out.push((k.clone(), v.clone()));
        }
        out
    }

    #[test]
    fn mem_run_round_trips() {
        let run = round_trip(RunWriter::mem());
        assert_eq!(run.records, 3);
        // Format version 2: the plain codec is still the identity on the
        // payload, but every block ships inside one CRC frame.
        assert_eq!(
            run.bytes,
            run.raw_bytes + SMALL_FRAME_OVERHEAD,
            "plain codec is identity under one frame"
        );
        let recs = read_all(&run);
        assert_eq!(recs[0], (b"alpha".to_vec(), b"1".to_vec()));
        assert_eq!(recs[1], (b"beta".to_vec(), b"".to_vec()));
        assert_eq!(recs[2], (b"".to_vec(), b"value-only".to_vec()));
    }

    #[test]
    fn file_run_round_trips_and_dir_cleans_up() {
        let dir = TempDir::create(None).unwrap();
        let path = dir.path().to_path_buf();
        let run = round_trip(RunWriter::file(&dir).unwrap());
        assert_eq!(run.records, 3);
        assert_eq!(read_all(&run), read_all(&round_trip(RunWriter::mem())));
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "temp dir should be removed on drop");
    }

    #[test]
    fn empty_run_reads_nothing() {
        let run = RunWriter::mem().finish().unwrap();
        assert!(run.is_empty());
        assert_eq!(run.bytes, 0);
        assert!(read_all(&run).is_empty());
    }

    #[test]
    fn mem_run_can_be_read_twice() {
        let run = round_trip(RunWriter::mem());
        assert_eq!(read_all(&run).len(), 3);
        assert_eq!(read_all(&run).len(), 3);
    }

    #[test]
    fn front_coded_round_trips_and_compresses_shared_prefixes() {
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("shared/prefix/of/some/length/{i:04}").into_bytes())
            .collect();
        let mut plain = RunWriter::mem();
        let mut front = RunWriter::mem_codec(RunCodec::FrontCoded);
        for k in &keys {
            plain.write_record(k, b"v").unwrap();
            front.write_record(k, b"v").unwrap();
        }
        let plain = plain.finish().unwrap();
        let front = front.finish().unwrap();
        assert_eq!(read_all(&plain), read_all(&front));
        assert_eq!(front.raw_bytes, plain.raw_bytes);
        assert!(
            front.bytes * 2 < front.raw_bytes,
            "front coding must at least halve shared-prefix runs ({} vs {})",
            front.bytes,
            front.raw_bytes
        );
    }

    #[test]
    fn front_coded_restarts_at_block_boundaries() {
        // A 1-byte block budget forces one block per record: every record
        // is written self-contained (lcp = 0) and must still decode.
        let mut w = RunWriter::mem_codec(RunCodec::FrontCoded).block_budget(1);
        let keys = [&b"abcde"[..], b"abcdf", b"abx", b""];
        for k in &keys {
            w.write_record(k, b"v").unwrap();
        }
        let run = w.finish().unwrap();
        let got: Vec<Vec<u8>> = read_all(&run).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys.iter().map(|k| k.to_vec()).collect::<Vec<_>>());
        // No record shares a block, so no key stores a delta; for short
        // keys the packed header costs exactly the plain klen byte, so
        // the payloads are the same size — front coding never loses on
        // isolated short records. Each record is its own block here, so
        // each pays one frame of overhead (format version 2).
        assert_eq!(
            run.bytes,
            run.raw_bytes + keys.len() as u64 * SMALL_FRAME_OVERHEAD
        );
    }

    #[test]
    fn front_coded_long_suffixes_escape_the_inline_length() {
        // Suffixes ≥ 15 bytes take the header escape path (+1 byte over
        // plain when nothing is shared) and must still round-trip.
        let keys = [vec![b'a'; 40], vec![b'b'; 15], vec![b'c'; 14]];
        let mut w = RunWriter::mem_codec(RunCodec::FrontCoded).block_budget(1);
        for k in &keys {
            w.write_record(k, b"v").unwrap();
        }
        let run = w.finish().unwrap();
        let got: Vec<Vec<u8>> = read_all(&run).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys.to_vec());
        // Two of the three suffixes escape: exactly two extra payload
        // bytes, plus one frame per single-record block (format v2).
        assert_eq!(
            run.bytes,
            run.raw_bytes + 2 + keys.len() as u64 * SMALL_FRAME_OVERHEAD
        );
    }

    #[test]
    fn corrupt_front_coded_lcp_is_an_error() {
        // A non-zero lcp with no previous key must be rejected, not panic.
        let mut bytes = Vec::new();
        write_vu64(&mut bytes, (5 << 5) | (1 << 1)); // lcp=5, slen=1, explicit val
        bytes.push(b'x');
        write_vu64(&mut bytes, 0); // vlen
        let run = mem_run(framed(&bytes), RunCodec::FrontCoded);
        let mut rd = run.reader().unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        assert!(rd.next_into(&mut k, &mut v).is_err());
    }

    #[test]
    fn corrupt_suffix_length_escape_is_an_error() {
        // Escape varint near u64::MAX must not wrap into a small bogus
        // suffix length (silent mis-decode) — it must error.
        let mut bytes = Vec::new();
        write_vu64(&mut bytes, SLEN_INLINE_MAX << 1); // lcp=0, slen escaped
        write_vu64(&mut bytes, u64::MAX - 3); // corrupt escape length
        let run = mem_run(framed(&bytes), RunCodec::FrontCoded);
        let mut rd = run.reader().unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        assert!(rd.next_into(&mut k, &mut v).is_err());
    }

    #[test]
    fn reader_round_trips_many_blocks_across_codecs_and_backends() {
        let dir = TempDir::create(None).unwrap();
        let recs: Vec<(Vec<u8>, Vec<u8>)> = (0..20_000u32)
            .map(|i| {
                (
                    format!("shared/key/prefix/{:06}", i).into_bytes(),
                    (u64::from(i) * 3).to_le_bytes().to_vec(),
                )
            })
            .collect();
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            for file_backed in [false, true] {
                let mut w = if file_backed {
                    RunWriter::file_codec(&dir, codec).unwrap()
                } else {
                    RunWriter::mem_codec(codec)
                };
                for (k, v) in &recs {
                    w.write_record(k, v).unwrap();
                }
                let run = w.finish().unwrap();
                assert_eq!(
                    read_all(&run),
                    recs,
                    "codec {:?}, file_backed {file_backed}",
                    codec
                );
            }
        }
    }

    #[test]
    fn block_encoder_round_trips_across_codecs() {
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let mut enc = BlockEncoder::new(codec);
            assert!(enc.is_empty());
            let recs: Vec<(Vec<u8>, Vec<u8>)> = (0..300u32)
                .map(|i| {
                    (
                        format!("shared/key/{i:04}").into_bytes(),
                        u64::from(i % 7).to_le_bytes().to_vec(),
                    )
                })
                .collect();
            for (k, v) in &recs {
                enc.push(k, v).unwrap();
            }
            assert_eq!(enc.len(), 300);
            assert!(enc.raw_bytes() > 0);
            let mut out = Vec::new();
            enc.encode_into(&mut out);
            assert!(enc.is_empty(), "encode clears the stage");
            let mut got = Vec::new();
            decode_block(codec, out, |k, v| {
                got.push((k.to_vec(), v.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, recs, "codec {codec:?}");
        }
    }

    #[test]
    fn block_encoder_blocks_are_self_contained() {
        // Two blocks from one encoder must each decode with fresh state:
        // the second block's first record cannot delta against the first
        // block's last record.
        let mut enc = BlockEncoder::new(RunCodec::FrontCoded);
        enc.push(b"alpha/0", b"1").unwrap();
        enc.push(b"alpha/1", b"1").unwrap();
        let mut b1 = Vec::new();
        enc.encode_into(&mut b1);
        enc.push(b"alpha/2", b"1").unwrap();
        let mut b2 = Vec::new();
        enc.encode_into(&mut b2);
        let mut got = Vec::new();
        decode_block(RunCodec::FrontCoded, b2, |k, _| {
            got.push(k.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![b"alpha/2".to_vec()]);
    }

    #[test]
    fn codec_names_parse() {
        assert_eq!(RunCodec::parse("plain"), Some(RunCodec::Plain));
        assert_eq!(RunCodec::parse("front"), Some(RunCodec::FrontCoded));
        assert_eq!(RunCodec::parse("front-coded"), Some(RunCodec::FrontCoded));
        assert_eq!(
            RunCodec::parse("posting-delta"),
            Some(RunCodec::PostingDelta)
        );
        assert_eq!(RunCodec::parse("postings"), Some(RunCodec::PostingDelta));
        assert_eq!(RunCodec::parse("zstd"), None);
        assert_eq!(RunCodec::FrontCoded.name(), "front");
        assert_eq!(RunCodec::PostingDelta.name(), "posting-delta");
    }

    #[test]
    fn posting_delta_round_trips_and_beats_front_on_shared_value_prefixes() {
        // Posting-list-shaped payloads: same key repeated, values sharing
        // a long byte prefix but never identical (the front codec's
        // all-or-nothing value path copies every one in full).
        let mut plain = RunWriter::mem();
        let mut front = RunWriter::mem_codec(RunCodec::FrontCoded);
        let mut delta = RunWriter::mem_codec(RunCodec::PostingDelta);
        for i in 0..500u32 {
            let key = format!("gram/{:02}", i / 50).into_bytes();
            let mut val = vec![1u8; 24]; // shared prefix
            val.extend_from_slice(&i.to_be_bytes()); // unique tail
            for w in [&mut plain, &mut front, &mut delta] {
                w.write_record(&key, &val).unwrap();
            }
        }
        let plain = plain.finish().unwrap();
        let front = front.finish().unwrap();
        let delta = delta.finish().unwrap();
        assert_eq!(read_all(&plain), read_all(&delta));
        assert_eq!(read_all(&front), read_all(&delta));
        assert!(
            delta.bytes * 2 < front.bytes,
            "value deltas must beat all-or-nothing values here ({} vs {})",
            delta.bytes,
            front.bytes
        );
    }

    #[test]
    fn posting_delta_restarts_at_block_boundaries() {
        let mut w = RunWriter::mem_codec(RunCodec::PostingDelta).block_budget(1);
        let recs = [
            (&b"abcde"[..], &b"vvvv1"[..]),
            (b"abcdf", b"vvvv2"),
            (b"", b""),
            (b"x", b"vvvv2"),
        ];
        for (k, v) in &recs {
            w.write_record(k, v).unwrap();
        }
        let run = w.finish().unwrap();
        let got = read_all(&run);
        for (i, (k, v)) in recs.iter().enumerate() {
            assert_eq!(got[i], (k.to_vec(), v.to_vec()));
        }
    }

    #[test]
    fn corrupt_posting_delta_value_lcp_is_an_error() {
        // A value lcp with no previous value must be rejected, not panic.
        let mut bytes = Vec::new();
        write_vu64(&mut bytes, 1 << 1); // lcp=0, slen=1, explicit val
        bytes.push(b'k');
        write_vu64(&mut bytes, 9); // vlcp=9 > |prev_val|=0
        write_vu64(&mut bytes, 0); // vslen
        let run = mem_run(framed(&bytes), RunCodec::PostingDelta);
        let mut rd = run.reader().unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        assert!(rd.next_into(&mut k, &mut v).is_err());
    }

    /// Serialize a run's bytes for corruption tests (mem source only).
    fn run_bytes(run: &Run) -> Vec<u8> {
        match &run.source {
            RunSource::Mem(data) => data.as_ref().clone(),
            RunSource::File(_) => unreachable!("corruption tests use mem runs"),
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_frame_checksum() {
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let mut w = RunWriter::mem_codec(codec);
            for i in 0..100u32 {
                w.write_record(format!("key-{i:04}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            let run = w.finish().unwrap();
            let clean = run_bytes(&run);
            // Flip each byte of the first frame's payload region (skip
            // the 1-byte... header region varies; flip a byte well inside
            // the payload) and expect a checksum error, never a panic or
            // silent success.
            for victim in [6usize, clean.len() / 2, clean.len() - 1] {
                let mut bytes = clean.clone();
                bytes[victim] ^= 0x40;
                let bad = mem_run(bytes, codec);
                let mut rd = bad.reader().unwrap();
                let (mut k, mut v) = (Vec::new(), Vec::new());
                let res = loop {
                    match rd.next_into(&mut k, &mut v) {
                        Ok(true) => continue,
                        other => break other,
                    }
                };
                match res {
                    Err(MrError::ChecksumMismatch { file, .. }) => {
                        assert_eq!(file, "<mem-run>");
                    }
                    Err(MrError::Corrupt(_)) => {} // header-byte flips parse-fail
                    other => panic!("corruption must be a typed error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_run_is_a_typed_error() {
        let mut w = RunWriter::mem();
        for i in 0..100u32 {
            w.write_record(format!("key-{i:04}").as_bytes(), b"v")
                .unwrap();
        }
        let run = w.finish().unwrap();
        let clean = run_bytes(&run);
        for cut in [1, 3, 4, 5, clean.len() / 2, clean.len() - 1] {
            let bad = mem_run(clean[..cut].to_vec(), RunCodec::Plain);
            let mut rd = bad.reader().unwrap();
            let (mut k, mut v) = (Vec::new(), Vec::new());
            let res = loop {
                match rd.next_into(&mut k, &mut v) {
                    Ok(true) => continue,
                    other => break other,
                }
            };
            assert!(
                matches!(
                    res,
                    Err(MrError::Corrupt(_)) | Err(MrError::ChecksumMismatch { .. })
                ),
                "cut at {cut} must be a typed error, got {res:?}"
            );
        }
    }

    #[test]
    fn fault_plan_frame_corruption_is_one_shot() {
        let mut w = RunWriter::mem();
        for i in 0..10u32 {
            w.write_record(format!("key-{i}").as_bytes(), b"v").unwrap();
        }
        let mut run = w.finish().unwrap();
        run.fault = Some(Arc::new(FaultPlan::new().corrupt_frame_read(1)));
        // First read hits the injected corruption on frame 1...
        let mut rd = run.reader().unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        match rd.next_into(&mut k, &mut v) {
            Err(MrError::ChecksumMismatch { block, .. }) => assert_eq!(block, 0),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // ...and the retrying reader sees clean bytes (one-shot fault).
        drop(rd);
        let mut rd = run.reader().unwrap();
        let mut n = 0;
        while rd.next_into(&mut k, &mut v).unwrap() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn file_run_writes_through_tmp_and_renames_at_finish() {
        let dir = TempDir::create(None).unwrap();
        let w = RunWriter::file(&dir).unwrap();
        let in_flight: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            in_flight.iter().all(|n| n.ends_with(".tmp")),
            "in-flight run must be a .tmp file, saw {in_flight:?}"
        );
        let run = round_trip(w);
        let sealed: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            sealed.iter().all(|n| n.ends_with(".run")),
            "sealed run must have its final name, saw {sealed:?}"
        );
        assert_eq!(read_all(&run).len(), 3);
    }
}
