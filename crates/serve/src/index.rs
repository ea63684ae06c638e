//! The on-disk statistics index: a directory of serving segments plus
//! the dictionary and a manifest, fronted by an LRU hot-term cache.
//!
//! ```text
//! index/
//!   MANIFEST       key \t value   (format, corpus, method, tau, σ, …)
//!   terms.tsv      term \t cf     in id order — Dictionary::from_counts
//!                                  re-derives the exact term ids
//!   part-00000.seg serving segments, one per reduce partition
//!   part-00001.seg
//! ```
//!
//! [`build_index`] runs a [`Computation`] with a [`SegmentSinkFactory`]
//! so reduce output lands directly in segments — no intermediate record
//! vector. [`StatsIndex`] opens the directory and answers point lookups,
//! prefix scans, and top-k queries; point lookups go through a
//! byte-budgeted [`LruCache`] (negative results cached as empty values,
//! sound because every served count is ≥ τ ≥ 1).

use crate::segment::SegmentReader;
use crate::sink::SegmentSinkFactory;
use corpus::Dictionary;
use kvstore::LruCache;
use mapreduce::blockfile::{publish, StagedFile};
use mapreduce::{read_vu64_at, to_bytes, write_vu64, Cluster, MrError, Result, RunCodec};
use ngrams::{Computation, CountMode, Gram};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Dictionary file name.
pub const TERMS_FILE: &str = "terms.tsv";
/// Current manifest format version.
pub const INDEX_FORMAT: u64 = 1;
/// Default hot-term cache budget.
pub const DEFAULT_CACHE_BYTES: usize = 4 << 20;

fn bad(msg: &'static str) -> MrError {
    MrError::Corrupt(msg)
}

/// Knobs of [`build_index`].
#[derive(Clone, Debug)]
pub struct IndexOptions {
    /// Block codec for the segments.
    pub codec: RunCodec,
    /// Top-frequency entries each segment precomputes for top-k serving.
    pub top_entries: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            codec: RunCodec::FrontCoded,
            top_entries: crate::segment::SEGMENT_TOP_ENTRIES,
        }
    }
}

/// What an index directory describes (parsed from its `MANIFEST`).
#[derive(Clone, Debug)]
pub struct IndexMeta {
    /// The directory.
    pub dir: PathBuf,
    /// Corpus name recorded at build time.
    pub corpus: String,
    /// Method name (`"SUFFIX-SIGMA"`, …).
    pub method: String,
    /// `"cf"` or `"df"`.
    pub count_mode: String,
    /// Minimum frequency τ the statistics were computed with.
    pub tau: u64,
    /// Maximum n-gram length σ.
    pub sigma: u64,
    /// Segment block codec.
    pub codec: RunCodec,
    /// Number of segment files.
    pub segments: u64,
    /// Total `(gram, count)` entries across segments.
    pub entries: u64,
}

/// Build a statistics index: run `computation` on `cluster` with reduce
/// output landing in segments under `dir`, then persist the dictionary
/// and manifest. Returns the new index's metadata.
///
/// The computation must produce `(Gram, u64)` statistics (any of the four
/// methods, cf or df); `dictionary` must be the collection's, since term
/// ids inside segment keys are resolved through it at query time.
pub fn build_index(
    cluster: &Cluster,
    computation: &Computation<'_>,
    dictionary: &Dictionary,
    corpus: &str,
    dir: &Path,
    opts: &IndexOptions,
) -> Result<IndexMeta> {
    computation.validate()?;
    std::fs::create_dir_all(dir)?;
    let sinks = SegmentSinkFactory::new(dir, opts.codec).top_entries(opts.top_entries);
    let (metas, _stats) = computation.run_to_sink(cluster, &sinks)?;
    let entries: u64 = metas.iter().map(|m| m.entries).sum();

    // Dictionary and manifest are staged and renamed into place, so a
    // crash mid-build never leaves a directory that opens with a
    // truncated dictionary or manifest.
    let mut terms = StagedFile::create(&dir.join(TERMS_FILE))?;
    for (_id, term, cf) in dictionary.iter() {
        writeln!(terms, "{term}\t{cf}")?;
    }
    terms.commit()?;

    let params = computation.params();
    let mut manifest = String::new();
    let _ = writeln!(manifest, "format\t{INDEX_FORMAT}");
    let _ = writeln!(manifest, "corpus\t{corpus}");
    let _ = writeln!(manifest, "method\t{}", computation.method().name());
    let mode = match params.mode {
        CountMode::Cf => "cf",
        CountMode::Df => "df",
    };
    let _ = writeln!(manifest, "count_mode\t{mode}");
    let _ = writeln!(manifest, "tau\t{}", params.tau);
    let _ = writeln!(manifest, "sigma\t{}", params.sigma);
    let _ = writeln!(manifest, "codec\t{}", opts.codec.name());
    let _ = writeln!(manifest, "segments\t{}", metas.len());
    let _ = writeln!(manifest, "entries\t{entries}");
    // The manifest is written last: its presence marks the index
    // complete, so it must never exist before every segment is sealed.
    publish(&dir.join(MANIFEST_FILE), manifest.as_bytes())?;

    Ok(IndexMeta {
        dir: dir.to_path_buf(),
        corpus: corpus.to_string(),
        method: computation.method().name().to_string(),
        count_mode: mode.to_string(),
        tau: params.tau,
        sigma: params.sigma as u64,
        codec: opts.codec,
        segments: metas.len() as u64,
        entries,
    })
}

/// An opened statistics index: manifest + dictionary + segment readers +
/// hot-term cache. Query methods take `&self`; the cache mutex is the
/// only shared mutable state, so one index serves many worker threads.
pub struct StatsIndex {
    meta: IndexMeta,
    dictionary: Dictionary,
    segments: Vec<SegmentReader>,
    cache: Mutex<LruCache>,
    /// Cache hits that answered "not present" from a cached empty value
    /// (a subset of the hits in [`StatsIndex::cache_stats`]).
    negative_hits: std::sync::atomic::AtomicU64,
}

impl StatsIndex {
    /// Open the index at `dir` with the default cache budget.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with_cache(dir, DEFAULT_CACHE_BYTES)
    }

    /// Open the index at `dir` with a `cache_bytes` hot-term cache
    /// (0 disables caching in practice: nothing fits).
    pub fn open_with_cache(dir: &Path, cache_bytes: usize) -> Result<Self> {
        // The manifest is the build's commit record — written last, so
        // its absence means the build never finished (or this is not an
        // index directory at all). Refuse with a typed error instead of
        // serving whatever segments happen to exist.
        let incomplete = |missing: String| MrError::IndexIncomplete {
            dir: dir.display().to_string(),
            missing,
        };
        if !dir.join(MANIFEST_FILE).is_file() {
            return Err(incomplete(MANIFEST_FILE.to_string()));
        }
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let mut corpus = None;
        let mut method = None;
        let mut count_mode = None;
        let mut tau = None;
        let mut sigma = None;
        let mut codec = None;
        let mut segments = None;
        let mut entries = None;
        for line in manifest.lines() {
            let Some((key, value)) = line.split_once('\t') else {
                return Err(bad("manifest line is not key\\tvalue"));
            };
            match key {
                "format" if value.parse::<u64>().ok() != Some(INDEX_FORMAT) => {
                    return Err(bad("unsupported index format version"));
                }
                "format" => {}
                "corpus" => corpus = Some(value.to_string()),
                "method" => method = Some(value.to_string()),
                "count_mode" => count_mode = Some(value.to_string()),
                "tau" => tau = value.parse::<u64>().ok(),
                "sigma" => sigma = value.parse::<u64>().ok(),
                "codec" => codec = RunCodec::parse(value),
                "segments" => segments = value.parse::<u64>().ok(),
                "entries" => entries = value.parse::<u64>().ok(),
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        let meta = IndexMeta {
            dir: dir.to_path_buf(),
            corpus: corpus.ok_or(bad("manifest missing corpus"))?,
            method: method.ok_or(bad("manifest missing method"))?,
            count_mode: count_mode.ok_or(bad("manifest missing count_mode"))?,
            tau: tau.ok_or(bad("manifest missing tau"))?,
            sigma: sigma.ok_or(bad("manifest missing sigma"))?,
            codec: codec.ok_or(bad("manifest missing codec"))?,
            segments: segments.ok_or(bad("manifest missing segments"))?,
            entries: entries.ok_or(bad("manifest missing entries"))?,
        };

        if !dir.join(TERMS_FILE).is_file() {
            return Err(incomplete(TERMS_FILE.to_string()));
        }
        let terms = std::fs::read_to_string(dir.join(TERMS_FILE))?;
        let counts = terms
            .lines()
            .map(|line| {
                let (term, cf) = line.split_once('\t').ok_or(bad("terms.tsv line"))?;
                let cf = cf.parse::<u64>().map_err(|_| bad("terms.tsv count"))?;
                Ok((term.to_string(), cf))
            })
            .collect::<Result<Vec<_>>>()?;
        let dictionary = Dictionary::from_counts(counts);

        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|e| e == "seg")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("part-"))
            })
            .collect();
        paths.sort();
        if (paths.len() as u64) < meta.segments {
            return Err(incomplete(format!(
                "{} of {} segments",
                meta.segments - paths.len() as u64,
                meta.segments
            )));
        }
        if paths.len() as u64 != meta.segments {
            return Err(bad("segment count disagrees with manifest"));
        }
        let mut segs = Vec::with_capacity(paths.len());
        let mut total = 0u64;
        for p in &paths {
            let r = SegmentReader::open(p)?;
            if r.codec() != meta.codec {
                return Err(bad("segment codec disagrees with manifest"));
            }
            total += r.entries();
            segs.push(r);
        }
        if total != meta.entries {
            return Err(bad("entry count disagrees with manifest"));
        }
        Ok(StatsIndex {
            meta,
            dictionary,
            segments: segs,
            cache: Mutex::new(LruCache::new(cache_bytes)),
            negative_hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The manifest metadata.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// The collection's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Total entries served.
    pub fn entries(&self) -> u64 {
        self.meta.entries
    }

    /// `(hits, misses)` of the hot-term cache since open.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }

    /// Cache hits that answered "below τ / unknown" from a cached empty
    /// value — the negative-lookup share of the hits in
    /// [`StatsIndex::cache_stats`].
    pub fn cache_negative_hits(&self) -> u64 {
        self.negative_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Current bytes held by the hot-term cache.
    pub fn cache_used_bytes(&self) -> usize {
        self.cache.lock().used_bytes()
    }

    /// Encode query text into term ids; `None` if any token is
    /// out-of-vocabulary (such a gram cannot have been counted).
    pub fn encode(&self, text: &str) -> Option<Vec<u32>> {
        let terms: Option<Vec<u32>> = text
            .split_whitespace()
            .map(|t| self.dictionary.id(t))
            .collect();
        terms.filter(|t| !t.is_empty())
    }

    /// Decode a raw segment key back to query text.
    fn decode_key(&self, key: &[u8]) -> Result<String> {
        let gram: Gram = mapreduce::from_bytes(key)?;
        Ok(self.dictionary.decode(gram.terms()))
    }

    /// Point lookup by query text (whitespace-separated terms). `None`
    /// when the gram is below τ, too long, or contains unknown terms.
    pub fn lookup(&self, text: &str) -> Result<Option<u64>> {
        match self.encode(text) {
            Some(terms) => self.lookup_gram(&terms),
            None => Ok(None),
        }
    }

    /// Point lookup by term ids, through the hot-term cache.
    pub fn lookup_gram(&self, terms: &[u32]) -> Result<Option<u64>> {
        let key = to_bytes(&Gram::new(terms));
        {
            let mut cache = self.cache.lock();
            if let Some(value) = cache.get(&key) {
                // Empty value = cached negative (counts are ≥ τ ≥ 1).
                if value.is_empty() {
                    self.negative_hits
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return Ok(None);
                }
                let mut pos = 0usize;
                return Ok(Some(read_vu64_at(value, &mut pos)?));
            }
        }
        let mut found = None;
        for seg in &self.segments {
            if let Some(count) = seg.lookup(&key)? {
                found = Some(count);
                break; // grams are unique across partitions
            }
        }
        let mut value = Vec::new();
        if let Some(count) = found {
            write_vu64(&mut value, count);
        }
        self.cache.lock().put(&key, &value);
        Ok(found)
    }

    /// All grams extending `text`, ascending by gram, capped at `limit`.
    /// The empty prefix enumerates the whole index. Results are decoded
    /// to text. Prefix here means *term* prefix: `"new york"` matches
    /// `"new york times"` but not `"new yorkshire"`.
    pub fn prefix(&self, text: &str, limit: usize) -> Result<Vec<(String, u64)>> {
        let trimmed = text.trim();
        let prefix_key = if trimmed.is_empty() {
            Vec::new()
        } else {
            match self.encode(trimmed) {
                Some(terms) => to_bytes(&Gram::new(terms.as_slice())),
                None => return Ok(Vec::new()),
            }
        };
        // Segments partition by hash, so each holds a slice of the range;
        // k-way merge by key keeps the output globally sorted.
        let mut per_seg: Vec<Vec<(Vec<u8>, u64)>> = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            let mut rows = Vec::new();
            seg.scan_prefix(&prefix_key, &mut |k, c| {
                rows.push((k.to_vec(), c));
                Ok(rows.len() < limit)
            })?;
            per_seg.push(rows);
        }
        let mut all: Vec<(Vec<u8>, u64)> = per_seg.into_iter().flatten().collect();
        all.sort();
        all.truncate(limit);
        all.into_iter()
            .map(|(k, c)| Ok((self.decode_key(&k)?, c)))
            .collect()
    }

    /// The `k` highest-frequency grams (ties broken by gram order),
    /// decoded to text. Served from the segments' precomputed top lists
    /// when they cover `k`; otherwise falls back to a full scan.
    pub fn topk(&self, k: usize) -> Result<Vec<(String, u64)>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // The global top-k is contained in the union of per-segment top
        // lists iff every segment's list either covers k entries or is
        // exhaustive for that segment.
        let covered = self.segments.iter().all(|s| {
            let stored = s.top_entries().len();
            stored >= k || (stored as u64) == s.entries()
        });
        let mut rows: Vec<(u64, Vec<u8>)> = Vec::new();
        if covered {
            for seg in &self.segments {
                rows.extend(seg.top_entries().iter().cloned());
            }
        } else {
            for seg in &self.segments {
                seg.scan_all(&mut |key, c| {
                    rows.push((c, key.to_vec()));
                    Ok(())
                })?;
            }
        }
        // Highest count first; among equals, ascending gram.
        rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(c, key)| Ok((self.decode_key(&key)?, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{generate, CorpusProfile};
    use ngrams::{Method, NGramParams};

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-index-{}-{tag}", std::process::id()))
    }

    fn build(tag: &str, opts: &IndexOptions) -> (StatsIndex, Vec<(String, u64)>) {
        let coll = generate(&CorpusProfile::tiny(tag, 30), 17);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(2, 4);
        let computation = Computation::new(Method::SuffixSigma, &params).input(&coll);
        let expected: Vec<(String, u64)> = computation
            .run(&cluster)
            .unwrap()
            .grams
            .iter()
            .map(|(g, c)| (coll.dictionary.decode(g.terms()), *c))
            .collect();
        let dir = tmp_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        build_index(&cluster, &computation, &coll.dictionary, tag, &dir, opts).unwrap();
        (StatsIndex::open(&dir).unwrap(), expected)
    }

    #[test]
    fn index_serves_every_computed_gram() {
        let (index, expected) = build("roundtrip", &IndexOptions::default());
        assert!(!expected.is_empty());
        assert_eq!(index.entries(), expected.len() as u64);
        for (text, count) in &expected {
            assert_eq!(index.lookup(text).unwrap(), Some(*count), "gram {text:?}");
        }
        assert_eq!(index.lookup("definitely unknown words").unwrap(), None);
        // Second pass hits the cache.
        let (h0, _) = index.cache_stats();
        for (text, _) in expected.iter().take(5) {
            index.lookup(text).unwrap();
        }
        let (h1, _) = index.cache_stats();
        assert_eq!(h1 - h0, 5);
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn prefix_and_topk_agree_with_the_full_listing() {
        let (index, mut expected) = build("queries", &IndexOptions::default());
        // prefix("") enumerates everything in gram order. `expected` is
        // sorted by Gram already (driver sorts); decoded rows follow it.
        let all = index.prefix("", usize::MAX).unwrap();
        assert_eq!(all.len(), expected.len());
        assert_eq!(
            all.iter().map(|(_, c)| *c).sum::<u64>(),
            expected.iter().map(|(_, c)| *c).sum::<u64>()
        );
        // A one-term prefix returns exactly the extensions.
        let first_term = expected[0].0.split_whitespace().next().unwrap().to_string();
        let hits = index.prefix(&first_term, usize::MAX).unwrap();
        for (text, _) in &hits {
            assert!(
                text == &first_term || text.starts_with(&format!("{first_term} ")),
                "{text:?} does not extend {first_term:?}"
            );
        }
        assert!(!hits.is_empty());
        // topk matches a count-sorted listing.
        expected.sort_by_key(|e| std::cmp::Reverse(e.1));
        let top = index.topk(3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(
            top.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            expected.iter().take(3).map(|(_, c)| *c).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn topk_falls_back_to_scan_when_stored_tops_are_short() {
        let opts = IndexOptions {
            top_entries: 1,
            ..IndexOptions::default()
        };
        let (index, mut expected) = build("fallback", &opts);
        expected.sort_by_key(|e| std::cmp::Reverse(e.1));
        let k = 5.min(expected.len());
        let top = index.topk(k).unwrap();
        assert_eq!(
            top.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            expected.iter().take(k).map(|(_, c)| *c).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn partial_index_is_refused_with_a_typed_error() {
        let (index, _) = build("partial", &IndexOptions::default());
        let dir = index.meta().dir.clone();
        drop(index);

        // A segment named by the manifest is gone: mid-write copy.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let stashed = std::fs::read(&seg).unwrap();
        std::fs::remove_file(&seg).unwrap();
        let err = StatsIndex::open(&dir)
            .err()
            .expect("missing segment must refuse open");
        assert!(
            matches!(&err, MrError::IndexIncomplete { .. }),
            "wanted IndexIncomplete, got {err:?}"
        );
        std::fs::write(&seg, stashed).unwrap();
        assert!(StatsIndex::open(&dir).is_ok(), "restored index must open");

        // No MANIFEST: the build never committed.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = StatsIndex::open(&dir)
            .err()
            .expect("missing manifest must refuse open");
        assert!(
            matches!(&err, MrError::IndexIncomplete { missing, .. } if missing == MANIFEST_FILE),
            "wanted IndexIncomplete(MANIFEST), got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_metadata() {
        let (index, _) = build("meta", &IndexOptions::default());
        let meta = index.meta();
        assert_eq!(meta.method, "SUFFIX-SIGMA");
        assert_eq!(meta.count_mode, "cf");
        assert_eq!(meta.tau, 2);
        assert_eq!(meta.sigma, 4);
        assert_eq!(meta.codec, RunCodec::FrontCoded);
        let _ = std::fs::remove_dir_all(meta.dir.clone());
    }
}
