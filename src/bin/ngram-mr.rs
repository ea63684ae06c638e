//! `ngram-mr` — command-line interface to the library.
//!
//! ```text
//! ngram-mr generate  --profile nyt|web|tiny --scale 0.1 --seed 42 --out corpus.bin
//!                    [--format legacy|blocks] [--store-codec plain|rank|lz]
//! ngram-mr stats     --input corpus.bin
//! ngram-mr compute   --input corpus.bin --method suffix-sigma --tau 5 --sigma 5
//!                    [--mode cf|df] [--output all|closed|maximal] [--slots N]
//!                    [--spill-to-disk] [--tmp-dir DIR]
//!                    [--run-codec plain|front|posting-delta]
//!                    [--max-task-attempts N] [--faults SPEC]
//!                    [--checkpoint-dir DIR] [--resume] [--speculate F]
//!                    [--decode] [--out results.tsv] [--profile report.json]
//! ngram-mr timeseries --input corpus.bin --tau 5 --sigma 3 [--out series.tsv]
//!                    [--profile report.json]
//! ngram-mr index     --input corpus.bin --dir stats.idx --method suffix-sigma
//!                    --tau 5 --sigma 5 [--mode cf|df] [--codec plain|front|posting-delta]
//!                    [--top N] [--slots N] [--checkpoint-dir DIR] [--resume]
//!                    [--profile report.json]
//! ngram-mr serve     --index [NAME=]DIR[,[NAME=]DIR...] [--addr HOST:PORT]
//!                    [--workers N] [--cache-bytes N]
//! ngram-mr query     --addr HOST:PORT --path /v1/NAME/ngram?q=...
//! ```
//!
//! `--format blocks` writes the block-structured corpus store (magic
//! `NGRAMMR3`) with a streaming two-pass generator: pass 1 streams the
//! synthetic documents to count words and build the dictionary, pass 2
//! replays the stream and encodes straight into ~256 KiB blocks — the
//! collection is never materialized. `--store-codec rank|lz` compresses
//! each block (frequency-rank remap + LZ/Huffman, or the raw byte codec);
//! readers auto-detect per block from the footer. Every `--input`
//! auto-detects the format: `stats` answers from a store's footer in O(1)
//! — including on-disk vs decoded bytes and the per-codec block mix —
//! and `compute` reads store blocks lazily per map split, decoding one
//! block at a time.
//!
//! `compute` streams its results: records are written to `--out` (or
//! stdout) *during* the reduce phase through a
//! [`mapreduce::WriterSinkFactory`], so the result set is never collected
//! in memory and lines appear in reduce-task completion order rather than
//! sorted. `--spill-to-disk` additionally sends shuffle spills and
//! chained-job runs to `--tmp-dir`, bounding memory by the sort buffers.
//!
//! `--checkpoint-dir DIR` makes `compute` and `index` crash-safe: every
//! completed map task durably publishes its spill runs plus a CRC-guarded
//! completion record under a manifest keyed by the computation's
//! fingerprint (input path and size, method, τ/σ/mode/output). After a
//! crash, re-running the same command with `--resume` skips the recorded
//! tasks (`TASK_SKIPPED_CHECKPOINTED` counts them) and refuses a manifest
//! written for different input or parameters. `--speculate F` enables
//! straggler backups: idle workers re-run in-flight map tasks whose wall
//! exceeds F× the completed-task median, first finisher wins.
//!
//! Every compute-shaped subcommand (`compute`, `timeseries`, `index`)
//! accepts `--profile FILE`: the run executes with
//! [`mapreduce::JobConfig::trace`] on and the folded
//! [`mapreduce::JobProfile`] — per-phase wall breakdown, task timeline,
//! skew, fault events, counters — is written to `FILE` as JSON.
//! Diagnostics go through the [`mapreduce::logging`] facility: set
//! `NGRAM_MR_LOG=error|warn|info|debug` (default `warn`) to pick the
//! stderr verbosity; run summaries print at `info`.
//!
//! `index` runs the same computation but lands reduce output in a
//! serving index (block-compressed segments + dictionary + manifest);
//! `serve` mounts one or more such indexes behind the HTTP/1.1 query API
//! (`/v1/{index}/ngram|prefix|topk|stats`); `query` is a minimal HTTP
//! client for scripting against a running server.

use mapreduce::{log_error, log_info};
use ngram_mr::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ngram-mr generate   --profile nyt|web|tiny --scale F --seed N --out FILE\n                      \
         [--format legacy|blocks] [--store-codec plain|rank|lz]\n  \
         ngram-mr stats      --input FILE\n  \
         ngram-mr compute    --input FILE --method naive|apriori-scan|apriori-index|suffix-sigma\n                      \
         --tau N --sigma N [--mode cf|df] [--output all|closed|maximal]\n                      \
         [--slots N] [--spill-to-disk] [--tmp-dir DIR]\n                      \
         [--run-codec plain|front|posting-delta]\n                      \
         [--max-task-attempts N] [--faults map-panic=T[@A],reduce-panic=T[@A],die=T[@A],die-reduce=T[@A],spill-eio=N,ckpt-eio=N,corrupt-frame=N]\n                      \
         [--checkpoint-dir DIR] [--resume] [--speculate F]\n                      \
         [--decode] [--out FILE] [--profile FILE]\n  \
         ngram-mr timeseries --input FILE --tau N --sigma N [--decode] [--out FILE] [--profile FILE]\n  \
         ngram-mr index      --input FILE --dir DIR --method METHOD --tau N --sigma N\n                      \
         [--mode cf|df] [--codec plain|front|posting-delta] [--top N] [--slots N]\n                      \
         [--checkpoint-dir DIR] [--resume] [--speculate F] [--profile FILE]\n  \
         ngram-mr serve      --index [NAME=]DIR[,[NAME=]DIR...] [--addr HOST:PORT]\n                      \
         [--workers N] [--cache-bytes N]\n  \
         ngram-mr query      --addr HOST:PORT --path /v1/NAME/ENDPOINT[?QUERY]\n\n\
         corpus FILEs may be legacy blobs (NGRAMMR1) or block stores\n\
         (NGRAMMR3, `generate --format blocks`); every --input auto-detects.\n\
         --profile FILE traces the run and writes a JSON job profile;\n\
         NGRAM_MR_LOG=error|warn|info|debug picks stderr verbosity (default warn)."
    );
    std::process::exit(2)
}

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                // Boolean flags have no value; value flags consume one.
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(name.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                log_error!("cli", "unexpected argument: {arg}");
                usage();
            }
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            log_error!("cli", "missing required flag --{name}");
            usage()
        })
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                log_error!("cli", "invalid value for --{name}: {v}");
                usage()
            }),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// A corpus input of either format, auto-detected by magic.
enum CorpusInput {
    /// Legacy `NGRAMMR1` blob, fully materialized.
    Legacy(Collection),
    /// Block store, opened by footer only — blocks stay on disk.
    Store(Arc<corpus::CorpusReader>),
}

fn open_corpus(args: &Args) -> CorpusInput {
    let path = PathBuf::from(args.require("input"));
    if corpus::is_store_file(&path) {
        match corpus::CorpusReader::open(&path) {
            Ok(r) => CorpusInput::Store(Arc::new(r)),
            Err(e) => {
                log_error!("cli", "cannot open corpus store {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    } else {
        match corpus::load(&path) {
            Ok(c) => CorpusInput::Legacy(c),
            Err(e) => {
                log_error!("cli", "cannot load corpus {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    }
}

fn load_corpus(args: &Args) -> Collection {
    match open_corpus(args) {
        CorpusInput::Legacy(c) => c,
        CorpusInput::Store(r) => r.load_collection().unwrap_or_else(|e| {
            log_error!("cli", "cannot read corpus store blocks: {e}");
            std::process::exit(1)
        }),
    }
}

/// Collect the span traces the cluster's job log recorded for this
/// process (every subcommand builds a fresh [`Cluster`], so the whole
/// log belongs to the current run).
fn cluster_traces(cluster: &Cluster) -> Vec<mapreduce::JobTrace> {
    cluster
        .job_log()
        .into_iter()
        .filter_map(|entry| entry.trace)
        .collect()
}

/// Fold `traces` into a [`mapreduce::JobProfile`] and write its JSON to
/// the `--profile` path; no-op when the flag is absent.
fn write_profile(args: &Args, traces: Vec<mapreduce::JobTrace>) {
    let Some(path) = args.get("profile") else {
        return;
    };
    let profile = mapreduce::JobProfile::from_traces(traces);
    if let Err(e) = std::fs::write(path, profile.to_json()) {
        log_error!("cli", "cannot write profile {path}: {e}");
        std::process::exit(1)
    }
    log_info!(
        "cli",
        "wrote profile {path} ({} job(s), phase coverage {:.1}%)",
        profile.jobs.len(),
        profile.phase_coverage() * 100.0
    );
}

fn cluster(args: &Args) -> Cluster {
    match args.get("slots") {
        Some(s) => Cluster::new(s.parse().unwrap_or(1)),
        None => Cluster::with_available_parallelism(),
    }
}

fn out_writer(args: &Args) -> Box<dyn Write + Send> {
    match args.get("out") {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).expect("cannot create output file"),
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    }
}

fn cmd_generate(args: &Args) -> ExitCode {
    let scale: f64 = args.parse_num("scale", 0.1);
    let seed: u64 = args.parse_num("seed", 42);
    let profile = match args.require("profile") {
        "nyt" => CorpusProfile::nyt_like(scale),
        "web" => CorpusProfile::web_like(scale),
        "tiny" => CorpusProfile::tiny("tiny", (100.0 * scale).max(1.0) as usize),
        other => {
            log_error!("cli", "unknown profile {other}");
            usage()
        }
    };
    let out = PathBuf::from(args.require("out"));
    let format = args.get("format").unwrap_or("legacy");
    let codec = match args.get("store-codec") {
        None => corpus::StoreCodec::Plain,
        Some(name) => corpus::StoreCodec::parse(name).unwrap_or_else(|| {
            log_error!(
                "cli",
                "unknown store codec {name} (expected plain, rank, or lz)"
            );
            usage()
        }),
    };
    let t0 = std::time::Instant::now();
    match format {
        "legacy" => {
            if args.has("store-codec") {
                log_error!("cli", "--store-codec requires --format blocks");
                usage()
            }
            let coll = generate(&profile, seed);
            corpus::save(&coll, &out).expect("cannot write corpus");
            println!(
                "wrote {} ({} docs, {} tokens, legacy) in {:?}",
                out.display(),
                coll.docs.len(),
                coll.term_occurrences(),
                t0.elapsed()
            );
        }
        "blocks" | "store" => {
            // Streaming two-pass generation: documents are streamed to
            // count words, then re-streamed straight into (optionally
            // compressed) blocks — the collection never exists in memory.
            let streamed =
                corpus::generate_store(&profile, seed, &out, codec).expect("cannot write store");
            let meta = &streamed.meta;
            println!(
                "wrote {} ({} docs, {} tokens, blocks/{}, {} bytes on disk / {} raw, \
                 peak doc window {} bytes) in {:?}",
                out.display(),
                meta.num_docs,
                meta.num_tokens,
                codec.name(),
                meta.data_bytes,
                meta.raw_data_bytes,
                streamed.peak_doc_bytes,
                t0.elapsed()
            );
        }
        other => {
            log_error!("cli", "unknown format {other} (expected legacy or blocks)");
            usage()
        }
    }
    ExitCode::SUCCESS
}

fn cmd_stats(args: &Args) -> ExitCode {
    match open_corpus(args) {
        // Block stores answer from the footer: no document is read.
        CorpusInput::Store(reader) => {
            let meta = reader.meta();
            println!("corpus `{}` (block store):", meta.name);
            println!("{}", meta.stats());
            println!("{:<28}{:>14}", "# blocks", reader.num_blocks());
            println!("{:<28}{:>14}", "data bytes (on disk)", meta.data_bytes);
            println!("{:<28}{:>14}", "data bytes (decoded)", meta.raw_data_bytes);
            if meta.raw_data_bytes > 0 {
                println!(
                    "{:<28}{:>14.3}",
                    "compression ratio",
                    meta.data_bytes as f64 / meta.raw_data_bytes as f64
                );
            }
            // Per-codec block mix, counted from the footer's block index —
            // still O(#blocks) footer data, no document I/O.
            for codec in corpus::StoreCodec::ALL {
                let n = (0..reader.num_blocks())
                    .filter(|&i| reader.block_entry(i).codec == codec)
                    .count();
                if n > 0 {
                    println!("{:<28}{:>14}", format!("blocks[{}]", codec.name()), n);
                }
            }
        }
        CorpusInput::Legacy(coll) => {
            println!("corpus `{}`:", coll.name);
            println!("{}", CollectionStats::compute(&coll));
        }
    }
    ExitCode::SUCCESS
}

fn parse_method(args: &Args) -> Method {
    match args.require("method") {
        "naive" => Method::Naive,
        "apriori-scan" => Method::AprioriScan,
        "apriori-index" => Method::AprioriIndex,
        "suffix-sigma" => Method::SuffixSigma,
        other => {
            log_error!("cli", "unknown method {other}");
            usage()
        }
    }
}

fn parse_params(args: &Args) -> NGramParams {
    NGramParams {
        mode: match args.get("mode").unwrap_or("cf") {
            "cf" => CountMode::Cf,
            "df" => CountMode::Df,
            other => {
                log_error!("cli", "unknown mode {other}");
                usage()
            }
        },
        output: match args.get("output").unwrap_or("all") {
            "all" => OutputMode::All,
            "closed" => OutputMode::Closed,
            "maximal" => OutputMode::Maximal,
            other => {
                log_error!("cli", "unknown output mode {other}");
                usage()
            }
        },
        job: mapreduce::JobConfig {
            spill_to_disk: args.has("spill-to-disk"),
            tmp_dir: args.get("tmp-dir").map(PathBuf::from),
            // --profile needs the span trace to fold into the report.
            trace: args.has("profile"),
            run_codec: match args.get("run-codec") {
                None => mapreduce::RunCodec::default(),
                Some(name) => mapreduce::RunCodec::parse(name).unwrap_or_else(|| {
                    log_error!(
                        "cli",
                        "unknown run codec {name} (expected plain, front, or posting-delta)"
                    );
                    usage()
                }),
            },
            max_task_attempts: args.parse_num(
                "max-task-attempts",
                mapreduce::JobConfig::default().max_task_attempts,
            ),
            fault_plan: args.get("faults").map(|spec| {
                std::sync::Arc::new(mapreduce::FaultPlan::parse(spec).unwrap_or_else(|e| {
                    log_error!("cli", "invalid --faults spec: {e}");
                    usage()
                }))
            }),
            speculative_slack: args.parse_num("speculate", 0.0f64),
            ..mapreduce::JobConfig::default()
        },
        ..NGramParams::new(args.parse_num("tau", 2u64), args.parse_num("sigma", 5usize))
    }
}

/// Wire `--checkpoint-dir`/`--resume` into the job config. The spec
/// token binds the manifest to this exact computation — input path and
/// size plus every parameter that changes the task plan — so a resume
/// against different input or parameters is refused, not silently
/// merged.
fn install_checkpoint(args: &Args, method: Method, params: &mut NGramParams) {
    let Some(dir) = args.get("checkpoint-dir") else {
        if args.has("resume") {
            log_error!("cli", "--resume requires --checkpoint-dir");
            usage();
        }
        return;
    };
    let input = args.require("input");
    let size = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let token = format!(
        "{input}|{size}|{}|tau={}|sigma={}|mode={:?}|output={:?}",
        method.name(),
        params.tau,
        params.sigma,
        params.mode,
        params.output,
    );
    params.job.checkpoint = Some(std::sync::Arc::new(
        mapreduce::CheckpointSpec::new(PathBuf::from(dir), token).resume(args.has("resume")),
    ));
}

/// Attach the right input shape for an auto-detected corpus: block
/// stores stream out-of-core, legacy blobs run in memory.
fn computation_for<'a>(
    input: &'a CorpusInput,
    method: Method,
    params: &NGramParams,
) -> Computation<'a> {
    let computation = Computation::new(method, params);
    match input {
        CorpusInput::Store(reader) => computation.input_store(Arc::clone(reader)),
        CorpusInput::Legacy(coll) => computation.input(coll),
    }
}

fn cmd_compute(args: &Args) -> ExitCode {
    let input = open_corpus(args);
    let method = parse_method(args);
    let mut params = parse_params(args);
    install_checkpoint(args, method, &mut params);
    let computation = computation_for(&input, method, &params);
    // Validate before opening --out: a doomed run must not truncate a
    // pre-existing results file.
    if let Err(e) = computation.validate() {
        log_error!("cli", "computation failed: {e}");
        return ExitCode::FAILURE;
    }
    let cluster = cluster(args);
    // Only --decode needs the term dictionary (a store serves it from
    // the footer without touching a document block); without it, skip
    // the O(#terms) clone/rebuild entirely.
    let dictionary: Option<Dictionary> = args.has("decode").then(|| match &input {
        CorpusInput::Store(reader) => reader.dictionary(),
        CorpusInput::Legacy(coll) => coll.dictionary.clone(),
    });
    // Stream results as the reducers produce them instead of collecting
    // them first; lines land in reduce completion order, unsorted.
    let format = move |buf: &mut Vec<u8>, gram: &Gram, count: &u64| {
        if let Some(dictionary) = &dictionary {
            buf.extend_from_slice(
                format!("{}\t{}\n", count, dictionary.decode(gram.terms())).as_bytes(),
            );
        } else {
            let ids: Vec<String> = gram.terms().iter().map(u32::to_string).collect();
            buf.extend_from_slice(format!("{}\t{}\n", count, ids.join(" ")).as_bytes());
        }
    };
    let sinks = mapreduce::WriterSinkFactory::new(out_writer(args), format);
    let stats = match computation.run_to_sink(&cluster, &sinks) {
        Ok((_, stats)) => stats,
        Err(e) => {
            log_error!("cli", "computation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    sinks.flush().expect("cannot flush output");
    log_info!(
        "cli",
        "{}: {} n-grams, {} job(s), {:?}, {} records, {} bytes ({} input bytes, peak block {})",
        method.name(),
        sinks.records(),
        stats.jobs,
        stats.elapsed,
        stats.counters.get(Counter::MapOutputRecords),
        stats.counters.get(Counter::MapOutputBytes),
        stats.counters.get(Counter::MapInputBytes),
        stats.counters.get(Counter::InputPeakBlockBytes),
    );
    if params.job.checkpoint.is_some() {
        log_info!(
            "cli",
            "checkpoint: TASK_SKIPPED_CHECKPOINTED={} TASK_ATTEMPTS={} CHECKPOINT_BYTES={} SPECULATIVE_ATTEMPTS={} SPECULATIVE_WINS={}",
            stats.counters.get(Counter::TaskSkippedCheckpointed),
            stats.counters.get(Counter::TaskAttempts),
            stats.counters.get(Counter::CheckpointBytes),
            stats.counters.get(Counter::SpeculativeAttempts),
            stats.counters.get(Counter::SpeculativeWins),
        );
    }
    write_profile(args, stats.traces);
    ExitCode::SUCCESS
}

fn cmd_timeseries(args: &Args) -> ExitCode {
    let coll = load_corpus(args);
    let mut params = NGramParams::new(args.parse_num("tau", 2u64), args.parse_num("sigma", 3usize));
    params.job.trace = args.has("profile");
    let cluster = cluster(args);
    let series = match compute_time_series(&cluster, &coll, Method::SuffixSigma, &params) {
        Ok(s) => s,
        Err(e) => {
            log_error!("cli", "computation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    log_info!("cli", "{} series", series.len());
    let decode = args.has("decode");
    let mut w = out_writer(args);
    for (gram, ts) in &series {
        let key = if decode {
            coll.dictionary.decode(gram.terms())
        } else {
            gram.terms()
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        };
        let points: Vec<String> = ts.iter().map(|(y, c)| format!("{y}:{c}")).collect();
        writeln!(w, "{}\t{}\t{}", ts.total(), key, points.join(",")).unwrap();
    }
    w.flush().unwrap();
    write_profile(args, cluster_traces(&cluster));
    ExitCode::SUCCESS
}

fn cmd_index(args: &Args) -> ExitCode {
    let input = open_corpus(args);
    let method = parse_method(args);
    let mut params = parse_params(args);
    install_checkpoint(args, method, &mut params);
    let computation = computation_for(&input, method, &params);
    if let Err(e) = computation.validate() {
        log_error!("cli", "index build failed: {e}");
        return ExitCode::FAILURE;
    }
    let dir = PathBuf::from(args.require("dir"));
    let codec = match args.get("codec") {
        None => mapreduce::RunCodec::FrontCoded,
        Some(name) => mapreduce::RunCodec::parse(name).unwrap_or_else(|| {
            log_error!("cli", "unknown segment codec {name}");
            usage()
        }),
    };
    let opts = serve::IndexOptions {
        codec,
        top_entries: args.parse_num("top", serve::IndexOptions::default().top_entries),
    };
    let (dictionary, corpus_name) = match &input {
        CorpusInput::Store(reader) => (reader.dictionary(), reader.meta().name.clone()),
        CorpusInput::Legacy(coll) => (coll.dictionary.clone(), coll.name.clone()),
    };
    let cluster = cluster(args);
    let t0 = std::time::Instant::now();
    match serve::build_index(
        &cluster,
        &computation,
        &dictionary,
        &corpus_name,
        &dir,
        &opts,
    ) {
        Ok(meta) => {
            log_info!(
                "cli",
                "indexed {} ({}, {}): {} entries in {} segment(s), codec {}, {:?}",
                dir.display(),
                meta.method,
                meta.count_mode,
                meta.entries,
                meta.segments,
                meta.codec.name(),
                t0.elapsed()
            );
            if params.job.checkpoint.is_some() {
                let skipped: u64 = cluster
                    .job_log()
                    .iter()
                    .map(|e| e.counters.get(Counter::TaskSkippedCheckpointed))
                    .sum();
                log_info!("cli", "checkpoint: TASK_SKIPPED_CHECKPOINTED={skipped}");
            }
            write_profile(args, cluster_traces(&cluster));
            ExitCode::SUCCESS
        }
        Err(e) => {
            log_error!("cli", "index build failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let cache_bytes: usize = args.parse_num("cache-bytes", serve::DEFAULT_CACHE_BYTES);
    let mut indexes = std::collections::HashMap::new();
    for spec in args.require("index").split(',') {
        let (name, dir) = match spec.split_once('=') {
            Some((name, dir)) => (name.to_string(), PathBuf::from(dir)),
            None => {
                let dir = PathBuf::from(spec);
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "default".to_string());
                (name, dir)
            }
        };
        match StatsIndex::open_with_cache(&dir, cache_bytes) {
            Ok(index) => {
                log_info!(
                    "cli",
                    "mounted /v1/{name} from {} ({} entries, {} segments)",
                    dir.display(),
                    index.entries(),
                    index.meta().segments
                );
                indexes.insert(name, Arc::new(index));
            }
            Err(e) => {
                log_error!("cli", "cannot open index {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7071");
    let workers: usize = args.parse_num("workers", serve::DEFAULT_WORKERS);
    let server = match StatsServer::bind(addr, indexes) {
        Ok(s) => s.workers(workers),
        Err(e) => {
            log_error!("cli", "cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    log_info!(
        "cli",
        "serving on http://{}/ ({workers} workers)",
        server.local_addr()
    );
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log_error!("cli", "server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(args: &Args) -> ExitCode {
    let addr = args.require("addr");
    let path = args.require("path");
    let mut stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            log_error!("cli", "cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    if let Err(e) = stream.write_all(request.as_bytes()) {
        log_error!("cli", "cannot send request: {e}");
        return ExitCode::FAILURE;
    }
    let mut response = Vec::new();
    if let Err(e) = std::io::Read::read_to_end(&mut stream, &mut response) {
        log_error!("cli", "cannot read response: {e}");
        return ExitCode::FAILURE;
    }
    let text = String::from_utf8_lossy(&response);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        log_error!("cli", "malformed response");
        return ExitCode::FAILURE;
    };
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    println!("{body}");
    if status == 200 {
        ExitCode::SUCCESS
    } else {
        log_error!("cli", "HTTP {status}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let args = Args::parse(rest);
    match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args),
        "compute" => cmd_compute(&args),
        "timeseries" => cmd_timeseries(&args),
        "index" => cmd_index(&args),
        "serve" => cmd_serve(&args),
        "query" => cmd_query(&args),
        _ => usage(),
    }
}
