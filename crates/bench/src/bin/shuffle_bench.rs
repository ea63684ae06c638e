//! End-to-end shuffle benchmark: every method × shuffle configuration at
//! a fixed corpus scale, written to `BENCH_shuffle.json` so each perf PR
//! measures itself against the recorded trajectory.
//!
//! Six configurations isolate the shuffle fast-path levers and the input
//! stage:
//!
//! * `baseline`    — plain codec, prefix-digest sort *disabled* (the
//!   pre-optimization engine);
//! * `prefix`      — plain codec, prefix-accelerated sort (digest compare
//!   inline, decode comparator only on ties);
//! * `front`       — prefix sort plus front-coded runs (shuffle
//!   compression; `encoded_run_bytes / raw_run_bytes` is the ratio);
//! * `store`       — prefix sort, plain codec, but map input pulled from a
//!   block-store corpus on disk instead of an in-memory vector — the
//!   out-of-core input stage, with the input-side counters
//!   (`input_bytes`, `input_blocks`, `input_peak_block_bytes`) recording
//!   what the map tasks actually fetched;
//! * `store-front` — the store input with front-coded runs and a small
//!   sort buffer, so every map task spills several times mid-map;
//! * `store-rank`  — the `store` leg reading a `StoreCodec::Rank`
//!   compressed store: on-disk input bytes shrink
//!   (`input_bytes / input_raw_bytes` is the store compression ratio,
//!   mirroring the run-codec ratio) while decoded block residency and
//!   output stay identical.
//!
//! Wall clocks are the best of [`REPS`] runs to damp scheduler noise.
//! One extra rep per configuration runs with [`JobConfig::trace`] on and
//! folds its spans into the trailing per-phase keys (`map_wall_nanos`,
//! `merge_wall_nanos`, `reduce_wall_nanos`, `task_skew`); the recorded
//! best-of wall itself stays untraced.
//! Knobs: `NGRAM_BENCH_SCALE` (default [`bench::DEFAULT_SCALE`]),
//! `NGRAM_BENCH_SLOTS`, `NGRAM_BENCH_SHUFFLE_OUT` (default
//! `BENCH_shuffle.json` in the working directory).

use bench::{cluster_from_env, corpora, fmt_bytes, fmt_duration, scale_from_env};
use corpus::{CorpusReader, StoreCodec};
use mapreduce::{Counter, RunCodec};
use ngrams::{Computation, Method, NGramParams, NGramResult};
use std::sync::Arc;
use std::time::Duration;

/// Repetitions per configuration; the JSON records the fastest.
const REPS: usize = 3;

/// Where a configuration's map input comes from.
enum BenchInput<'a> {
    /// The in-memory collection (prepared-record slices).
    Mem(&'a corpus::Collection),
    /// A block store on disk, read block-by-block per map split.
    Store(Arc<CorpusReader>),
}

/// One benchmark configuration: name, run codec, prefix sort,
/// sort-buffer bytes (`0` = the engine default).
type Config = (&'static str, RunCodec, bool, usize);

/// Sort buffer of the `store-front` leg: small enough that every map task
/// spills several times mid-map (with the default 64 MiB buffer this
/// workload only ever spills once, at task end).
const SPILLY_SORT_BUFFER: usize = 256 * 1024;

struct Entry {
    method: &'static str,
    config: &'static str,
    codec: RunCodec,
    prefix_sort: bool,
    wall: Duration,
    map_sort: Duration,
    raw_run_bytes: u64,
    encoded_run_bytes: u64,
    shuffle_bytes: u64,
    spills: u64,
    records: u64,
    input_bytes: u64,
    input_raw_bytes: u64,
    input_blocks: u64,
    input_peak_block_bytes: u64,
    task_attempts: u64,
    task_retries: u64,
    task_panics: u64,
    output: usize,
    map_wall_nanos: u64,
    merge_wall_nanos: u64,
    reduce_wall_nanos: u64,
    task_skew: f64,
    task_skipped_checkpointed: u64,
    checkpoint_bytes: u64,
    speculative_attempts: u64,
    speculative_wins: u64,
}

/// The [`NGramParams`] of one configuration; `trace` turns span tracing
/// on for the extra profiled rep only.
fn bench_params(config: Config, trace: bool) -> NGramParams {
    let (_, codec, prefix_sort, sort_buffer) = config;
    let mut params = NGramParams::new(5, 5);
    params.job.run_codec = codec;
    params.job.prefix_sort = prefix_sort;
    params.job.trace = trace;
    if sort_buffer > 0 {
        params.job.sort_buffer_bytes = sort_buffer;
    }
    params
}

fn run_once(
    cluster: &mapreduce::Cluster,
    input: &BenchInput<'_>,
    method: Method,
    params: &NGramParams,
) -> NGramResult {
    match input {
        BenchInput::Mem(coll) => Computation::new(method, params)
            .input(coll)
            .run(cluster)
            .expect("method run failed"),
        BenchInput::Store(reader) => Computation::new(method, params)
            .input_store(std::sync::Arc::clone(reader))
            .run(cluster)
            .expect("store run failed"),
    }
}

fn run_one(
    cluster: &mapreduce::Cluster,
    input: &BenchInput<'_>,
    method: Method,
    config: Config,
) -> Entry {
    let (name, codec, prefix_sort, _) = config;
    let mut best: Option<Entry> = None;
    for _ in 0..REPS {
        let params = bench_params(config, false);
        let result = run_once(cluster, input, method, &params);
        let c = &result.counters;
        let entry = Entry {
            method: method.name(),
            config: name,
            codec,
            prefix_sort,
            wall: result.elapsed,
            map_sort: Duration::from_nanos(c.get(Counter::MapSortNanos)),
            raw_run_bytes: c.get(Counter::RawRunBytes),
            encoded_run_bytes: c.get(Counter::EncodedRunBytes),
            shuffle_bytes: c.get(Counter::ShuffleBytes),
            spills: c.get(Counter::Spills),
            records: c.get(Counter::MapOutputRecords),
            input_bytes: c.get(Counter::MapInputBytes),
            input_raw_bytes: c.get(Counter::InputRawBytes),
            input_blocks: c.get(Counter::InputBlocksRead),
            input_peak_block_bytes: c.get(Counter::InputPeakBlockBytes),
            task_attempts: c.get(Counter::TaskAttempts),
            task_retries: c.get(Counter::TaskRetries),
            task_panics: c.get(Counter::TaskPanics),
            output: result.grams.len(),
            map_wall_nanos: 0,
            merge_wall_nanos: 0,
            reduce_wall_nanos: 0,
            task_skew: 1.0,
            task_skipped_checkpointed: c.get(Counter::TaskSkippedCheckpointed),
            checkpoint_bytes: c.get(Counter::CheckpointBytes),
            speculative_attempts: c.get(Counter::SpeculativeAttempts),
            speculative_wins: c.get(Counter::SpeculativeWins),
        };
        if best.as_ref().is_none_or(|b| entry.wall < b.wall) {
            best = Some(entry);
        }
    }
    let mut best = best.expect("REPS > 0");

    // One extra *traced* rep decomposes the wall into per-phase times
    // (map / k-way merge / reduce) and task skew — the units the paper
    // compares methods by. It runs after, and apart from, the untraced
    // reps so tracing overhead never touches the recorded best-of wall.
    let mark = cluster.job_log().len();
    let params = bench_params(config, true);
    run_once(cluster, input, method, &params);
    let traces: Vec<mapreduce::JobTrace> = cluster
        .job_log()
        .into_iter()
        .skip(mark)
        .filter_map(|entry| entry.trace)
        .collect();
    let profile = mapreduce::JobProfile::from_traces(traces);
    best.map_wall_nanos = profile.phase_wall("map").as_nanos() as u64;
    best.merge_wall_nanos = profile.merge_wall.as_nanos() as u64;
    best.reduce_wall_nanos = profile.phase_wall("reduce").as_nanos() as u64;
    best.task_skew = profile.task_skew;
    best
}

fn json_line(e: &Entry) -> String {
    format!(
        concat!(
            "{{\"method\": \"{}\", \"config\": \"{}\", \"codec\": \"{}\", ",
            "\"prefix_sort\": {}, \"wall_ms\": {:.3}, \"map_sort_ms\": {:.3}, ",
            "\"raw_run_bytes\": {}, \"encoded_run_bytes\": {}, ",
            "\"shuffle_bytes\": {}, \"spills\": {}, \"map_output_records\": {}, ",
            "\"input_bytes\": {}, \"input_blocks\": {}, \"input_peak_block_bytes\": {}, ",
            "\"output_grams\": {}, \"input_raw_bytes\": {}, ",
            "\"task_attempts\": {}, \"task_retries\": {}, \"task_panics\": {}, ",
            "\"map_wall_nanos\": {}, \"merge_wall_nanos\": {}, ",
            "\"reduce_wall_nanos\": {}, \"task_skew\": {:.3}, ",
            "\"task_skipped_checkpointed\": {}, \"checkpoint_bytes\": {}, ",
            "\"speculative_attempts\": {}, \"speculative_wins\": {}}}"
        ),
        e.method,
        e.config,
        e.codec.name(),
        e.prefix_sort,
        e.wall.as_secs_f64() * 1e3,
        e.map_sort.as_secs_f64() * 1e3,
        e.raw_run_bytes,
        e.encoded_run_bytes,
        e.shuffle_bytes,
        e.spills,
        e.records,
        e.input_bytes,
        e.input_blocks,
        e.input_peak_block_bytes,
        e.output,
        e.input_raw_bytes,
        e.task_attempts,
        e.task_retries,
        e.task_panics,
        e.map_wall_nanos,
        e.merge_wall_nanos,
        e.reduce_wall_nanos,
        e.task_skew,
        e.task_skipped_checkpointed,
        e.checkpoint_bytes,
        e.speculative_attempts,
        e.speculative_wins,
    )
}

fn main() {
    let scale = scale_from_env();
    let cluster = cluster_from_env();
    let (nyt, _) = corpora(scale);
    eprintln!(
        "shuffle_bench: corpus `{}` at scale {scale} ({} docs), {} slots, τ=5 σ=5, {REPS} reps",
        nyt.name,
        nyt.docs.len(),
        cluster.slots()
    );

    // The store legs read the same collection from a freshly written
    // block store, plus a rank-compressed twin (both removed afterwards).
    let store_path =
        std::env::temp_dir().join(format!("shuffle-bench-store-{}.ngs", std::process::id()));
    corpus::save_store(&nyt, &store_path).expect("cannot write bench store");
    let reader = Arc::new(CorpusReader::open(&store_path).expect("cannot open bench store"));
    let rank_path =
        std::env::temp_dir().join(format!("shuffle-bench-rank-{}.ngs", std::process::id()));
    corpus::save_store_codec(&nyt, &rank_path, StoreCodec::Rank).expect("cannot write rank store");
    let rank_reader = Arc::new(CorpusReader::open(&rank_path).expect("cannot open rank store"));
    {
        let m = rank_reader.meta();
        eprintln!(
            "rank store: {} on disk / {} decoded ({:.3}x)",
            fmt_bytes(m.data_bytes),
            fmt_bytes(m.raw_data_bytes),
            m.data_bytes as f64 / m.raw_data_bytes.max(1) as f64,
        );
    }
    {
        // Report the size-balanced split plan the store legs will use.
        let splits = cluster.slots() * 4;
        let (_, loads) = ngrams::plan_splits(&reader, splits);
        eprintln!(
            "store: {} blocks over {} splits, per-split byte skew {:.3} (max/mean)",
            reader.num_blocks(),
            splits,
            ngrams::split_skew(&loads),
        );
    }

    const MEM_CONFIGS: [Config; 3] = [
        ("baseline", RunCodec::Plain, false, 0),
        ("prefix", RunCodec::Plain, true, 0),
        ("front", RunCodec::FrontCoded, true, 0),
    ];
    const STORE_CONFIGS: [Config; 2] = [
        ("store", RunCodec::Plain, true, 0),
        (
            "store-front",
            RunCodec::FrontCoded,
            true,
            SPILLY_SORT_BUFFER,
        ),
    ];
    // The twin of `store`, reading the rank-compressed store instead.
    const RANK_CONFIGS: [Config; 1] = [("store-rank", RunCodec::Plain, true, 0)];

    let mut entries: Vec<Entry> = Vec::new();
    for method in Method::ALL {
        for config in MEM_CONFIGS {
            let e = run_one(&cluster, &BenchInput::Mem(&nyt), method, config);
            eprintln!(
                "{:>14} {:>11}: wall {:>8}  map-sort {:>8}  runs {} raw / {} encoded ({:.2}x)  spills {}",
                e.method,
                e.config,
                fmt_duration(e.wall),
                fmt_duration(e.map_sort),
                fmt_bytes(e.raw_run_bytes),
                fmt_bytes(e.encoded_run_bytes),
                e.encoded_run_bytes as f64 / e.raw_run_bytes.max(1) as f64,
                e.spills,
            );
            entries.push(e);
        }
        let store_legs = STORE_CONFIGS
            .iter()
            .map(|&c| (&reader, c))
            .chain(RANK_CONFIGS.iter().map(|&c| (&rank_reader, c)));
        for (leg_reader, config) in store_legs {
            let e = run_one(
                &cluster,
                &BenchInput::Store(Arc::clone(leg_reader)),
                method,
                config,
            );
            eprintln!(
                "{:>14} {:>11}: wall {:>8}  map-sort {:>8}  input {} disk / {} raw in {} blocks (peak {})",
                e.method,
                e.config,
                fmt_duration(e.wall),
                fmt_duration(e.map_sort),
                fmt_bytes(e.input_bytes),
                fmt_bytes(e.input_raw_bytes),
                e.input_blocks,
                fmt_bytes(e.input_peak_block_bytes),
            );
            entries.push(e);
        }
    }
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&rank_path);

    // Resume timing note: one checkpointed SUFFIX-σ `front` rep against
    // its resumed twin — what a restart costs when every map task is fed
    // from the checkpoint instead of re-executed. Stderr only; the JSON
    // matrix stays fault-free (its checkpoint counters read zero).
    {
        let ckpt_root =
            std::env::temp_dir().join(format!("shuffle-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&ckpt_root);
        let run_ckpt = |resume: bool| {
            let mut params = bench_params(("front", RunCodec::FrontCoded, true, 0), false);
            params.job.checkpoint = Some(Arc::new(
                mapreduce::CheckpointSpec::new(&ckpt_root, "shuffle-bench").resume(resume),
            ));
            run_once(
                &cluster,
                &BenchInput::Mem(&nyt),
                Method::SuffixSigma,
                &params,
            )
        };
        let first = run_ckpt(false);
        let resumed = run_ckpt(true);
        eprintln!(
            "resume: SUFFIX-SIGMA front wall {} checkpointed ({} written) -> {} resumed ({} map task(s) skipped)",
            fmt_duration(first.elapsed),
            fmt_bytes(first.counters.get(Counter::CheckpointBytes)),
            fmt_duration(resumed.elapsed),
            resumed.counters.get(Counter::TaskSkippedCheckpointed),
        );
        let _ = std::fs::remove_dir_all(&ckpt_root);
    }

    let out_path = std::env::var("NGRAM_BENCH_SHUFFLE_OUT")
        .unwrap_or_else(|_| "BENCH_shuffle.json".to_string());
    let body: Vec<String> = entries
        .iter()
        .map(|e| format!("    {}", json_line(e)))
        .collect();
    let json = format!(
        "{{\n  \"corpus\": \"{}\",\n  \"scale\": {scale},\n  \"docs\": {},\n  \
         \"slots\": {},\n  \"tau\": 5,\n  \"sigma\": 5,\n  \"reps\": {REPS},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        nyt.name,
        nyt.docs.len(),
        cluster.slots(),
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("cannot write bench JSON");
    eprintln!("wrote {out_path}");
}
