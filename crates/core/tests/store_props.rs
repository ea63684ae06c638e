//! Property tests of the block-store input path: on random Zipf corpora,
//! a [`CorpusSplitSource`] over a written store must yield exactly the
//! records of `prepare_input(&load(...), τ, split)` for both τ-split
//! settings, all four methods driven from the store must agree with their
//! in-memory runs, and the input-side counters must witness that no map
//! task ever held more than one block of the corpus.

use corpus::{generate, save_store, CorpusProfile, CorpusReader, CorpusWriter, StoreCodec};
use mapreduce::{Cluster, Counter, InputStats, JobConfig, RecordSource, RecordStream};
use ngrams::{prepare_input, Computation, CorpusSplitSource, InputSeq, Method, NGramParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// All runs go through the [`Computation`] builder — the one front door.
fn compute(
    cluster: &Cluster,
    coll: &corpus::Collection,
    method: Method,
    params: &NGramParams,
) -> mapreduce::Result<ngrams::NGramResult> {
    Computation::new(method, params).input(coll).run(cluster)
}

/// Store-driven runs use the builder's out-of-core input.
fn compute_from_store(
    cluster: &Cluster,
    reader: &Arc<CorpusReader>,
    method: Method,
    params: &NGramParams,
) -> mapreduce::Result<ngrams::NGramResult> {
    Computation::new(method, params)
        .input_store(Arc::clone(reader))
        .run(cluster)
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_store_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "core-store-props-{}-{}.ngs",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Drain every split of a store source into one sorted record vector.
/// Sorting by (did, base) gives a canonical order: block-to-split
/// placement differs from the slice source's round-robin, but fragment
/// identity must not.
fn drain_source(source: CorpusSplitSource, n_splits: usize) -> Vec<(u64, InputSeq)> {
    let mut out = Vec::new();
    for mut split in source.into_splits(n_splits).unwrap() {
        split
            .for_each(&mut |&did, seq| {
                out.push((did, seq.clone()));
                Ok(())
            })
            .unwrap();
    }
    out.sort_by_key(|(did, seq)| (*did, seq.base));
    out
}

/// Write `coll` with an explicit codec *and* block budget (the save
/// helpers fix the budget at the production default).
fn write_store_codec(
    coll: &corpus::Collection,
    path: &std::path::Path,
    codec: StoreCodec,
    block_budget: usize,
) -> corpus::StoreMeta {
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
    let mut w = CorpusWriter::create(path, &coll.name)
        .unwrap()
        .codec(codec, &counts)
        .block_budget(block_budget);
    for d in &coll.docs {
        w.push(d).unwrap();
    }
    w.finish(&coll.dictionary).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn store_source_equals_prepare_input(
        seed in 0u64..10_000,
        docs in 8usize..40,
        tau in 1u64..4,
        n_splits in 1usize..5,
        block_budget in prop_oneof![Just(128usize), Just(1024), Just(corpus::STORE_BLOCK_BYTES)],
    ) {
        let coll = generate(&CorpusProfile::tiny("store-prop", docs), seed);
        let path = temp_store_path();
        let mut w = CorpusWriter::create(&path, &coll.name)
            .unwrap()
            .block_budget(block_budget);
        for d in &coll.docs {
            w.push(d).unwrap();
        }
        w.finish(&coll.dictionary).unwrap();
        let reader = Arc::new(CorpusReader::open(&path).unwrap());
        // The store must round-trip the collection (prepare_input's input).
        let loaded = reader.load_collection().unwrap();
        prop_assert_eq!(&loaded.docs, &coll.docs);
        for split_at_tau in [false, true] {
            let got = drain_source(
                CorpusSplitSource::new(Arc::clone(&reader), tau, split_at_tau),
                n_splits,
            );
            let mut expected = prepare_input(&loaded, tau, split_at_tau);
            expected.sort_by_key(|(did, seq)| (*did, seq.base));
            prop_assert_eq!(
                got,
                expected,
                "split_at_tau={}, seed={}, budget={}",
                split_at_tau,
                seed,
                block_budget
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn all_methods_from_store_match_in_memory(
        seed in 0u64..10_000,
        docs in 8usize..24,
        tau in 2u64..4,
    ) {
        let coll = generate(&CorpusProfile::tiny("store-agree", docs), seed);
        let path = temp_store_path();
        save_store(&coll, &path).unwrap();
        let reader = Arc::new(CorpusReader::open(&path).unwrap());
        let cluster = Cluster::new(2);
        let mut params = NGramParams::new(tau, 4);
        params.job = JobConfig {
            spill_to_disk: true,
            sort_buffer_bytes: 512,
            ..JobConfig::default()
        };
        for method in Method::ALL {
            let in_memory = compute(&cluster, &coll, method, &params)
                .unwrap_or_else(|e| panic!("{} in-memory failed: {e}", method.name()));
            let from_store = compute_from_store(&cluster, &reader, method, &params)
                .unwrap_or_else(|e| panic!("{} from-store failed: {e}", method.name()));
            prop_assert_eq!(
                &from_store.grams,
                &in_memory.grams,
                "{} store-driven output diverged (seed={})",
                method.name(),
                seed
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compressed_store_runs_are_record_identical_to_plain(
        seed in 0u64..10_000,
        docs in 8usize..24,
        tau in 2u64..4,
        split_docs in any::<bool>(),
        block_budget in prop_oneof![Just(512usize), Just(4096), Just(corpus::STORE_BLOCK_BYTES)],
    ) {
        // The tentpole identity: a store written with any codec drives
        // every method to the exact same records as the plain store, at
        // every block budget and τ-split setting.
        let coll = generate(&CorpusProfile::tiny("store-codec-prop", docs), seed);
        let cluster = Cluster::new(2);
        let mut params = NGramParams::new(tau, 4);
        params.split_docs = split_docs;
        params.job = JobConfig {
            spill_to_disk: true,
            sort_buffer_bytes: 512,
            ..JobConfig::default()
        };
        let plain_path = temp_store_path();
        let plain_meta = write_store_codec(&coll, &plain_path, StoreCodec::Plain, block_budget);
        let plain_reader = Arc::new(CorpusReader::open(&plain_path).unwrap());
        for codec in [StoreCodec::Rank, StoreCodec::Lz] {
            let path = temp_store_path();
            let meta = write_store_codec(&coll, &path, codec, block_budget);
            // Budgets are defined on raw bytes, so the decoded payload is
            // invariant across codecs.
            prop_assert_eq!(meta.raw_data_bytes, plain_meta.data_bytes);
            let reader = Arc::new(CorpusReader::open(&path).unwrap());
            for method in Method::ALL {
                let plain_run = compute_from_store(&cluster, &plain_reader, method, &params)
                    .unwrap_or_else(|e| panic!("{} plain failed: {e}", method.name()));
                let codec_run = compute_from_store(&cluster, &reader, method, &params)
                    .unwrap_or_else(|e| panic!("{} {} failed: {e}", method.name(), codec.name()));
                prop_assert_eq!(
                    &codec_run.grams,
                    &plain_run.grams,
                    "{} diverged on a {} store (seed={}, budget={}, split_docs={})",
                    method.name(),
                    codec.name(),
                    seed,
                    block_budget,
                    split_docs
                );
            }
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&plain_path);
    }

}

#[test]
fn store_driven_compute_is_bounded_by_one_block() {
    // A multi-block store with a tiny block budget: the input-side peak
    // counter must stay at one block (budget plus at most one document of
    // overshoot), far below the corpus size — the out-of-core guarantee.
    let coll = generate(&CorpusProfile::tiny("bounded", 300), 23);
    let path = temp_store_path();
    const BUDGET: usize = 2048;
    let mut w = CorpusWriter::create(&path, &coll.name)
        .unwrap()
        .block_budget(BUDGET);
    for d in &coll.docs {
        w.push(d).unwrap();
    }
    let meta = w.finish(&coll.dictionary).unwrap();
    let reader = Arc::new(CorpusReader::open(&path).unwrap());
    assert!(reader.num_blocks() > 2, "corpus must span several blocks");
    let max_block = (0..reader.num_blocks())
        .map(|i| reader.block_entry(i).bytes)
        .max()
        .unwrap();

    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(3, 4);
    params.job = JobConfig {
        spill_to_disk: true,
        ..JobConfig::default()
    };
    let result = compute_from_store(&cluster, &reader, Method::SuffixSigma, &params).unwrap();
    assert!(!result.grams.is_empty());

    let peak = result.counters.get(Counter::InputPeakBlockBytes);
    assert_eq!(
        peak, max_block,
        "peak input allocation must be exactly the largest single block"
    );
    assert!(
        peak < meta.data_bytes,
        "peak ({peak}) must be far below the corpus ({})",
        meta.data_bytes
    );
    // Every block was read exactly once by the single job...
    assert_eq!(
        result.counters.get(Counter::InputBlocksRead),
        reader.num_blocks() as u64
    );
    // ...for a total input volume of the whole corpus. On a plain store
    // the decoded volume equals the on-disk volume.
    assert_eq!(result.counters.get(Counter::MapInputBytes), meta.data_bytes);
    assert_eq!(result.counters.get(Counter::InputRawBytes), meta.data_bytes);
    let _ = std::fs::remove_file(&path);
}

/// The compressed-store sibling of the one-block witness: peak residency
/// is the largest *decoded* block (what's actually allocated), on-disk
/// input bytes shrink below decoded bytes, and the new raw-bytes counter
/// reports the decoded total — the end-to-end "shrink input bytes"
/// acceptance check at test scale.
#[test]
fn compressed_store_compute_peak_is_one_decoded_block() {
    let coll = generate(&CorpusProfile::tiny("bounded-rank", 300), 23);
    let path = temp_store_path();
    const BUDGET: usize = 2048;
    let meta = write_store_codec(&coll, &path, StoreCodec::Rank, BUDGET);
    assert!(
        meta.data_bytes < meta.raw_data_bytes,
        "rank codec must shrink this corpus ({} vs {})",
        meta.data_bytes,
        meta.raw_data_bytes
    );
    let reader = Arc::new(CorpusReader::open(&path).unwrap());
    assert!(reader.num_blocks() > 2, "corpus must span several blocks");
    let max_raw = (0..reader.num_blocks())
        .map(|i| reader.block_entry(i).raw_bytes)
        .max()
        .unwrap();

    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(3, 4);
    params.job = JobConfig {
        spill_to_disk: true,
        ..JobConfig::default()
    };
    let result = compute_from_store(&cluster, &reader, Method::SuffixSigma, &params).unwrap();
    assert!(!result.grams.is_empty());
    assert_eq!(
        result.counters.get(Counter::InputPeakBlockBytes),
        max_raw,
        "peak input allocation must be exactly the largest decoded block"
    );
    assert_eq!(result.counters.get(Counter::MapInputBytes), meta.data_bytes);
    assert_eq!(
        result.counters.get(Counter::InputRawBytes),
        meta.raw_data_bytes
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn input_stats_default_is_zero_for_memory_sources() {
    // In-memory slices have no serialized form: the default InputStats
    // keeps the new counters at zero so the legacy path reads unchanged.
    let records: Vec<(u64, InputSeq)> = vec![];
    let splits = mapreduce::SliceSource::new(&records)
        .into_splits(2)
        .unwrap();
    for s in splits {
        assert_eq!(s.input_stats(), InputStats::default());
    }
}
