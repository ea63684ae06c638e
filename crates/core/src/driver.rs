//! The top-level entry point: choose a method, a statistic, and the
//! paper's parameters (τ, σ), and compute n-gram statistics over a
//! collection on a simulated cluster.

use crate::aggregate::{CountAgg, CountMode, DfAgg, IndexAgg, PrefixAggregator, TsAgg};
use crate::apriori_index::{apriori_index_streamed, IndexParams};
use crate::apriori_scan::{apriori_scan_streamed, ScanParams};
use crate::gram::{FirstTermPartitioner, Gram, ReverseLexComparator};
use crate::input::{prepare_input, InputProvider, InputSeq};
use crate::maximal::filter_suffix_side_streamed;
use crate::naive::{NaiveMapper, NaiveReducer, SumCombiner};
use crate::postings::PostingList;
use crate::store_input::StoreInput;
use crate::suffix_sigma::{EmitFilter, StackReducer, SuffixMapper};
use crate::timeseries::TimeSeries;
use corpus::{Collection, CorpusReader};
use mapreduce::{
    Cluster, CounterSnapshot, Job, JobConfig, MrError, RecordSink, RecordSinkFactory, Result,
    RunRecordSource, RunSinkFactory, SliceSource, VarintSeqComparator, VecSinkFactory,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four methods of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Algorithm 1: emit every n-gram, count, filter.
    Naive,
    /// Algorithm 2: one pruned scan per n-gram length.
    AprioriScan,
    /// Algorithm 3: incremental inverted index with posting-list joins.
    AprioriIndex,
    /// Algorithm 4: suffix sorting & aggregation (the contribution).
    SuffixSigma,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [
        Method::Naive,
        Method::AprioriScan,
        Method::AprioriIndex,
        Method::SuffixSigma,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Naive => "NAIVE",
            Method::AprioriScan => "APRIORI-SCAN",
            Method::AprioriIndex => "APRIORI-INDEX",
            Method::SuffixSigma => "SUFFIX-SIGMA",
        }
    }
}

/// Which subset of the frequent n-grams is produced (§VI-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// All n-grams with frequency ≥ τ.
    #[default]
    All,
    /// Only maximal n-grams (no frequent strict supersequence).
    Maximal,
    /// Only closed n-grams (no equal-frequency strict supersequence).
    Closed,
}

/// Parameters of one computation (the paper's τ and σ plus engineering
/// knobs from §V).
#[derive(Clone, Debug)]
pub struct NGramParams {
    /// Minimum frequency τ.
    pub tau: u64,
    /// Maximum n-gram length σ (`usize::MAX` for unbounded).
    pub sigma: usize,
    /// Collection or document frequency.
    pub mode: CountMode,
    /// Full, maximal, or closed output (SUFFIX-σ only for non-`All`).
    pub output: OutputMode,
    /// Document splitting at infrequent terms (§V; benefits all methods).
    pub split_docs: bool,
    /// NAÏVE local pre-aggregation via a combiner (§III-A; cf mode only).
    pub combiner: bool,
    /// APRIORI-INDEX phase switch-over K (paper's calibrated best: 4).
    pub apriori_k: usize,
    /// Memory budget for APRIORI dictionaries / join buffers before they
    /// migrate to the key-value store (§V).
    pub memory_budget_bytes: usize,
    /// Job template: slots, task counts, sort buffer, disk spilling.
    pub job: JobConfig,
}

impl Default for NGramParams {
    fn default() -> Self {
        NGramParams {
            tau: 2,
            sigma: 5,
            mode: CountMode::Cf,
            output: OutputMode::All,
            split_docs: true,
            combiner: true,
            apriori_k: 4,
            memory_budget_bytes: 256 << 20,
            job: JobConfig::default(),
        }
    }
}

impl NGramParams {
    /// Convenience constructor for the two headline knobs.
    pub fn new(tau: u64, sigma: usize) -> Self {
        NGramParams {
            tau,
            sigma,
            ..Default::default()
        }
    }
}

/// Result of one computation: the statistics plus the run telemetry the
/// paper reports (wallclock, #records, bytes — aggregated over all jobs
/// the method launched).
#[derive(Clone, Debug)]
pub struct NGramResult {
    /// `(n-gram, frequency)` pairs, sorted by gram.
    pub grams: Vec<(Gram, u64)>,
    /// Counters summed over every job of the run.
    pub counters: CounterSnapshot,
    /// Number of MapReduce jobs launched.
    pub jobs: usize,
    /// End-to-end wallclock (includes driver work between jobs).
    pub elapsed: Duration,
}

/// Telemetry of a sink-directed computation: what
/// [`Computation::run_to_sink`] reports besides the records it pushed into the caller's sinks.
#[derive(Clone, Debug)]
pub struct NGramRunStats {
    /// Counters summed over every job of the run.
    pub counters: CounterSnapshot,
    /// Number of MapReduce jobs launched.
    pub jobs: usize,
    /// End-to-end wallclock (includes driver work between jobs).
    pub elapsed: Duration,
    /// Span traces of the run's jobs, in launch order — non-empty iff
    /// the computation ran with `JobConfig::trace` on. Fold with
    /// [`mapreduce::JobProfile::from_traces`] for the `--profile`
    /// artifact.
    pub traces: Vec<mapreduce::JobTrace>,
}

/// Check that `method` supports the requested parameter combination
/// (maximal/closed output is a SUFFIX-σ + collection-frequency feature).
///
/// Cheap and side-effect free — callers that acquire output resources
/// (files, sinks) can validate first so a doomed run never touches them.
pub fn validate_params(method: Method, params: &NGramParams) -> Result<()> {
    if params.output != OutputMode::All && method != Method::SuffixSigma {
        return Err(MrError::Config(format!(
            "maximal/closed output is implemented for SUFFIX-SIGMA (the paper's §VI-A extension), not {}",
            method.name()
        )));
    }
    if params.output != OutputMode::All && params.mode != CountMode::Cf {
        return Err(MrError::Config(
            "maximal/closed output is defined over collection frequency".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The Computation builder — the one front door for n-gram statistics
// ---------------------------------------------------------------------------

/// The input a [`Computation`] reads.
///
/// Every driver path reduces to one of three shapes: a borrowed in-memory
/// [`Collection`] (prepared into flattened records at run time), a shared
/// block-store [`CorpusReader`] (read out-of-core, split lazily per
/// block), or pre-flattened records the caller prepared itself.
pub enum ComputeInput<'a> {
    /// An in-memory collection; `prepare_input` runs when the computation
    /// does (τ-splitting included).
    Collection(&'a Collection),
    /// A block-store corpus, streamed from disk; τ-splitting uses the
    /// store's precomputed unigram frequencies, so no counting pass over
    /// the corpus happens.
    Store(Arc<CorpusReader>),
    /// Records already flattened by [`prepare_input`] — reused across
    /// runs without re-preparation.
    Records(&'a [(u64, InputSeq)]),
}

/// One n-gram statistics computation: a method, its parameters, and an
/// input, run on a cluster.
///
/// This is the single entry point for n-gram statistics: pick the
/// input shape with one of the `input*` builders, then either collect
/// ([`run`](Computation::run)) or stream into sinks
/// ([`run_to_sink`](Computation::run_to_sink)).
///
/// All four methods produce identical output for identical parameters;
/// they differ in cost, which is the subject of the paper's evaluation.
///
/// ```
/// use ngrams::{Computation, Method, NGramParams};
/// use corpus::{generate, CorpusProfile};
/// use mapreduce::Cluster;
///
/// let coll = generate(&CorpusProfile::tiny("doc", 20), 7);
/// let cluster = Cluster::new(2);
/// let result = Computation::new(Method::SuffixSigma, &NGramParams::new(3, 4))
///     .input(&coll)
///     .run(&cluster)
///     .unwrap();
/// assert!(!result.grams.is_empty());
/// ```
pub struct Computation<'a> {
    method: Method,
    params: NGramParams,
    input: Option<ComputeInput<'a>>,
}

impl<'a> Computation<'a> {
    /// Start a computation with `method` and `params` (cloned) and no
    /// input attached yet.
    pub fn new(method: Method, params: &NGramParams) -> Self {
        Computation {
            method,
            params: params.clone(),
            input: None,
        }
    }

    /// Read from an in-memory collection.
    pub fn input(mut self, coll: &'a Collection) -> Self {
        self.input = Some(ComputeInput::Collection(coll));
        self
    }

    /// Read out-of-core from a block-store corpus. Combined with
    /// `JobConfig::spill_to_disk`, peak memory is the sort buffers plus
    /// one corpus block, independent of corpus size.
    pub fn input_store(mut self, reader: Arc<CorpusReader>) -> Self {
        self.input = Some(ComputeInput::Store(reader));
        self
    }

    /// Read pre-flattened records (the output of [`prepare_input`]).
    pub fn input_records(mut self, records: &'a [(u64, InputSeq)]) -> Self {
        self.input = Some(ComputeInput::Records(records));
        self
    }

    /// The method this computation runs.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The parameters this computation runs with.
    pub fn params(&self) -> &NGramParams {
        &self.params
    }

    /// Check method/parameter compatibility without running (see
    /// [`validate_params`]). Cheap and side-effect free — callers that
    /// acquire output resources can validate first so a doomed run never
    /// touches them.
    pub fn validate(&self) -> Result<()> {
        validate_params(self.method, &self.params)
    }

    /// Run, collecting the statistics into a sorted vector.
    pub fn run(&self, cluster: &Cluster) -> Result<NGramResult> {
        let sinks = VecSinkFactory::default();
        let (artifacts, stats) = self.run_to_sink(cluster, &sinks)?;
        let mut grams: Vec<(Gram, u64)> = artifacts.into_iter().flatten().collect();
        grams.sort();
        Ok(NGramResult {
            grams,
            counters: stats.counters,
            jobs: stats.jobs,
            elapsed: stats.elapsed,
        })
    }

    /// Run, pushing every result record into sinks created from `sinks`
    /// instead of collecting them — the streaming sibling of
    /// [`run`](Computation::run).
    ///
    /// For the single-job methods the caller's sinks receive records
    /// *during* the final reduce phase; for the multi-job APRIORI methods
    /// each round's output is pumped into one sink as its runs are read
    /// back. Pair with a [`mapreduce::WriterSinkFactory`] to stream TSV
    /// to a file, or a [`mapreduce::CountingSinkFactory`] for a dry run.
    /// Returns the sealed sink artifacts plus run telemetry.
    pub fn run_to_sink<F>(
        &self,
        cluster: &Cluster,
        sinks: &F,
    ) -> Result<(Vec<F::Artifact>, NGramRunStats)>
    where
        F: RecordSinkFactory<Gram, u64>,
    {
        match self.input.as_ref().ok_or_else(|| {
            MrError::Config(
                "computation has no input: call .input(), .input_store(), or .input_records()"
                    .into(),
            )
        })? {
            ComputeInput::Collection(coll) => {
                let input = prepare_input(coll, self.params.tau, self.params.split_docs);
                let slice: &[_] = &input;
                run_source_to_sink(cluster, &slice, self.method, &self.params, sinks)
            }
            ComputeInput::Store(reader) => {
                let provider =
                    StoreInput::new(Arc::clone(reader), self.params.tau, self.params.split_docs);
                run_source_to_sink(cluster, &provider, self.method, &self.params, sinks)
            }
            ComputeInput::Records(records) => {
                run_source_to_sink(cluster, records, self.method, &self.params, sinks)
            }
        }
    }
}

/// The engine under every [`Computation`]: dispatch `(method, mode)` over
/// any [`InputProvider`] and stream results into the caller's sinks.
/// Iterative methods pull a fresh source from the provider at every round.
fn run_source_to_sink<P, F>(
    cluster: &Cluster,
    input: &P,
    method: Method,
    params: &NGramParams,
    sinks: &F,
) -> Result<(Vec<F::Artifact>, NGramRunStats)>
where
    P: InputProvider,
    F: RecordSinkFactory<Gram, u64>,
{
    validate_params(method, params)?;
    let started = Instant::now();
    let log_mark = cluster.job_log().len();

    let artifacts: Vec<F::Artifact> = match (method, params.mode) {
        (Method::Naive, CountMode::Cf) => run_naive(
            cluster,
            input,
            CountAgg { tau: params.tau },
            params,
            true,
            sinks,
        )?,
        (Method::Naive, CountMode::Df) => run_naive(
            cluster,
            input,
            DfAgg { tau: params.tau },
            params,
            false,
            sinks,
        )?,
        (Method::AprioriScan, _) => {
            let mut sink = sinks.make(0)?;
            apriori_scan_streamed(
                cluster,
                input,
                &ScanParams {
                    tau: params.tau,
                    sigma: params.sigma,
                    mode: params.mode,
                    dict_budget_bytes: params.memory_budget_bytes,
                    job: named(params, "apriori-scan"),
                },
                &mut |g, c| {
                    sink.push(g, c);
                    Ok(())
                },
            )?;
            vec![sinks.seal(0, sink)?]
        }
        (Method::AprioriIndex, _) => {
            let mut sink = sinks.make(0)?;
            apriori_index_streamed(
                cluster,
                input,
                &IndexParams {
                    tau: params.tau,
                    sigma: params.sigma,
                    mode: params.mode,
                    k_max_indexed: params.apriori_k,
                    buffer_budget_bytes: params.memory_budget_bytes,
                    job: named(params, "apriori-index"),
                },
                &mut |g, c| {
                    sink.push(g, c);
                    Ok(())
                },
            )?;
            vec![sinks.seal(0, sink)?]
        }
        (Method::SuffixSigma, CountMode::Cf) => {
            let filter = match params.output {
                OutputMode::All => EmitFilter::All,
                OutputMode::Maximal => EmitFilter::PrefixMaximal,
                OutputMode::Closed => EmitFilter::PrefixClosed,
            };
            match params.output {
                OutputMode::All => run_suffix_sigma(
                    cluster,
                    input,
                    CountAgg { tau: params.tau },
                    params,
                    filter,
                    sinks,
                )?,
                _ => {
                    // Pass 1 streams prefix-filtered n-grams into runs;
                    // the post-filter job consumes them directly, so the
                    // intermediate n-gram set is never a record vector.
                    let run_sinks = RunSinkFactory::<Gram, u64>::with_spill(
                        params.job.spill_to_disk,
                        params.job.tmp_dir.as_deref(),
                    )?
                    .codec(params.job.run_codec);
                    let pass1 = run_suffix_sigma(
                        cluster,
                        input,
                        CountAgg { tau: params.tau },
                        params,
                        filter,
                        &run_sinks,
                    )?;
                    let source = RunRecordSource::new(pass1, run_sinks.temp());
                    filter_suffix_side_streamed(
                        cluster,
                        source,
                        filter,
                        named(params, "suffix-sigma"),
                        sinks,
                    )?
                    .artifacts
                }
            }
        }
        (Method::SuffixSigma, CountMode::Df) => run_suffix_sigma(
            cluster,
            input,
            DfAgg { tau: params.tau },
            params,
            EmitFilter::All,
            sinks,
        )?,
    };

    Ok((artifacts, stats_since(cluster, log_mark, started)))
}

/// Compute per-year time series (§VI-B) with NAÏVE or SUFFIX-σ, pushing
/// every `(gram, series)` record into sinks created from `sinks` *during*
/// the reduce phase — the streaming sibling of [`compute_time_series`],
/// mirroring [`Computation::run_to_sink`]. Nothing materializes the result set;
/// the input is fed to the job as a borrowed slice.
///
/// The APRIORI methods are not extended here, matching the paper, which
/// presents this aggregation as a SUFFIX-σ capability with NAÏVE as the
/// only straightforward alternative.
pub fn compute_time_series_to_sink<F>(
    cluster: &Cluster,
    coll: &Collection,
    method: Method,
    params: &NGramParams,
    sinks: &F,
) -> Result<(Vec<F::Artifact>, NGramRunStats)>
where
    F: RecordSinkFactory<Gram, TimeSeries>,
{
    let started = Instant::now();
    let log_mark = cluster.job_log().len();
    let input = prepare_input(coll, params.tau, params.split_docs);
    let agg = TsAgg { tau: params.tau };
    let artifacts = match method {
        Method::Naive => {
            let cfg = named(params, "naive-ts");
            let sigma = params.sigma;
            let a = agg.clone();
            let a2 = agg.clone();
            let job = Job::<NaiveMapper<TsAgg>, NaiveReducer<TsAgg>>::new(
                cfg,
                move || NaiveMapper {
                    sigma,
                    agg: a.clone(),
                },
                move || NaiveReducer { agg: a2.clone() },
            )
            .sort_comparator(VarintSeqComparator);
            job.run_streamed(cluster, SliceSource::new(&input), sinks)?
                .artifacts
        }
        Method::SuffixSigma => {
            let cfg = named(params, "suffix-sigma-ts");
            let sigma = params.sigma;
            let a = agg.clone();
            let a2 = agg;
            let job = Job::<SuffixMapper<TsAgg>, StackReducer<TsAgg>>::new(
                cfg,
                move || SuffixMapper {
                    sigma,
                    agg: a.clone(),
                },
                move || StackReducer::new(a2.clone(), EmitFilter::All),
            )
            .partitioner(FirstTermPartitioner)
            .sort_comparator(ReverseLexComparator);
            job.run_streamed(cluster, SliceSource::new(&input), sinks)?
                .artifacts
        }
        other => {
            return Err(MrError::Config(format!(
                "time-series aggregation is implemented for NAIVE and SUFFIX-SIGMA, not {}",
                other.name()
            )))
        }
    };
    Ok((artifacts, stats_since(cluster, log_mark, started)))
}

/// Compute per-year time series, collected and sorted — a
/// [`VecSinkFactory`] pairing of [`compute_time_series_to_sink`] for
/// callers that want the records in memory.
pub fn compute_time_series(
    cluster: &Cluster,
    coll: &Collection,
    method: Method,
    params: &NGramParams,
) -> Result<Vec<(Gram, TimeSeries)>> {
    let sinks = VecSinkFactory::default();
    let (artifacts, _) = compute_time_series_to_sink(cluster, coll, method, params, &sinks)?;
    let mut out: Vec<(Gram, TimeSeries)> = artifacts.into_iter().flatten().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Build a positional inverted index of all frequent n-grams with a
/// single SUFFIX-σ job (§VI-B, "build an inverted index that records for
/// every n-gram how often or where it occurs in individual documents"),
/// pushing every `(gram, postings)` record into the caller's sinks
/// *during* reduce — the streaming sibling of [`compute_inverted_index`].
///
/// Produces the same index APRIORI-INDEX materializes incrementally
/// ([`crate::apriori_index_postings`]) at a fraction of the shuffle
/// volume: one record per term occurrence.
pub fn compute_inverted_index_to_sink<F>(
    cluster: &Cluster,
    coll: &Collection,
    params: &NGramParams,
    sinks: &F,
) -> Result<(Vec<F::Artifact>, NGramRunStats)>
where
    F: RecordSinkFactory<Gram, PostingList>,
{
    let started = Instant::now();
    let log_mark = cluster.job_log().len();
    let input = prepare_input(coll, params.tau, params.split_docs);
    let cfg = named(params, "suffix-sigma-index");
    let sigma = params.sigma;
    let agg = IndexAgg { tau: params.tau };
    let a = agg.clone();
    let job = Job::<SuffixMapper<IndexAgg>, StackReducer<IndexAgg>>::new(
        cfg,
        move || SuffixMapper {
            sigma,
            agg: agg.clone(),
        },
        move || StackReducer::new(a.clone(), EmitFilter::All),
    )
    .partitioner(FirstTermPartitioner)
    .sort_comparator(ReverseLexComparator);
    let artifacts = job
        .run_streamed(cluster, SliceSource::new(&input), sinks)?
        .artifacts;
    Ok((artifacts, stats_since(cluster, log_mark, started)))
}

/// Build the positional inverted index, collected and sorted — a
/// [`VecSinkFactory`] pairing of [`compute_inverted_index_to_sink`].
pub fn compute_inverted_index(
    cluster: &Cluster,
    coll: &Collection,
    params: &NGramParams,
) -> Result<Vec<(Gram, PostingList)>> {
    let sinks = VecSinkFactory::default();
    let (artifacts, _) = compute_inverted_index_to_sink(cluster, coll, params, &sinks)?;
    let mut out: Vec<(Gram, PostingList)> = artifacts.into_iter().flatten().collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    Ok(out)
}

/// Aggregate counters over the jobs launched since `log_mark` into the
/// telemetry struct every sink-directed driver returns.
fn stats_since(cluster: &Cluster, log_mark: usize, started: Instant) -> NGramRunStats {
    let log = cluster.job_log();
    let mut counters = CounterSnapshot::default();
    let mut traces = Vec::new();
    for entry in &log[log_mark..] {
        counters.merge(&entry.counters);
        if let Some(trace) = &entry.trace {
            traces.push(trace.clone());
        }
    }
    NGramRunStats {
        counters,
        jobs: log.len() - log_mark,
        elapsed: started.elapsed(),
        traces,
    }
}

fn named(params: &NGramParams, name: &str) -> JobConfig {
    let mut cfg = params.job.clone();
    cfg.name = name.to_string();
    cfg
}

fn run_naive<P, A, F>(
    cluster: &Cluster,
    input: &P,
    agg: A,
    params: &NGramParams,
    combinable: bool,
    sinks: &F,
) -> Result<Vec<F::Artifact>>
where
    P: InputProvider,
    A: PrefixAggregator<Stat = u64, In = u64>,
    F: RecordSinkFactory<Gram, u64>,
{
    let cfg = named(params, "naive");
    let sigma = params.sigma;
    let a = agg.clone();
    let a2 = agg;
    let mut job = Job::<NaiveMapper<A>, NaiveReducer<A>>::new(
        cfg,
        move || NaiveMapper {
            sigma,
            agg: a.clone(),
        },
        move || NaiveReducer { agg: a2.clone() },
    )
    // Same order as the default deserializing `Gram: Ord` comparator
    // (element-wise numeric, shorter-prefix-first over bare varints), but
    // raw — no per-comparison Gram allocation — and digest-accelerated.
    .sort_comparator(VarintSeqComparator);
    if params.combiner && combinable {
        job = job.combiner(|| Box::new(SumCombiner));
    }
    Ok(job.run_streamed(cluster, input.source()?, sinks)?.artifacts)
}

fn run_suffix_sigma<P, A, F>(
    cluster: &Cluster,
    input: &P,
    agg: A,
    params: &NGramParams,
    filter: EmitFilter,
    sinks: &F,
) -> Result<Vec<F::Artifact>>
where
    P: InputProvider,
    A: PrefixAggregator<Stat = u64>,
    F: RecordSinkFactory<Gram, u64>,
{
    let cfg = named(params, "suffix-sigma");
    let sigma = params.sigma;
    let a = agg.clone();
    let a2 = agg;
    let job = Job::<SuffixMapper<A>, StackReducer<A>>::new(
        cfg,
        move || SuffixMapper {
            sigma,
            agg: a.clone(),
        },
        move || StackReducer::new(a2.clone(), filter),
    )
    .partitioner(FirstTermPartitioner)
    .sort_comparator(ReverseLexComparator);
    Ok(job.run_streamed(cluster, input.source()?, sinks)?.artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{generate, CorpusProfile};

    fn run(
        cluster: &Cluster,
        coll: &Collection,
        method: Method,
        params: &NGramParams,
    ) -> Result<NGramResult> {
        Computation::new(method, params).input(coll).run(cluster)
    }

    #[test]
    fn all_methods_agree_on_a_tiny_corpus() {
        let coll = generate(&CorpusProfile::tiny("agree", 30), 17);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(3, 4);
        let baseline = run(&cluster, &coll, Method::SuffixSigma, &params)
            .unwrap()
            .grams;
        assert!(
            !baseline.is_empty(),
            "tiny corpus must have frequent n-grams"
        );
        for method in [Method::Naive, Method::AprioriScan, Method::AprioriIndex] {
            let got = run(&cluster, &coll, method, &params).unwrap().grams;
            assert_eq!(got, baseline, "{} disagrees", method.name());
        }
    }

    #[test]
    fn maximal_output_rejected_for_other_methods() {
        let coll = generate(&CorpusProfile::tiny("rej", 5), 1);
        let cluster = Cluster::new(1);
        let mut params = NGramParams::new(2, 3);
        params.output = OutputMode::Maximal;
        assert!(run(&cluster, &coll, Method::Naive, &params).is_err());
        assert!(run(&cluster, &coll, Method::SuffixSigma, &params).is_ok());
    }

    #[test]
    fn computation_without_input_is_a_config_error() {
        let cluster = Cluster::new(1);
        let err = Computation::new(Method::Naive, &NGramParams::new(2, 3))
            .run(&cluster)
            .unwrap_err();
        assert!(matches!(err, MrError::Config(_)));
    }

    #[test]
    fn prepared_records_input_matches_collection_input() {
        let coll = generate(&CorpusProfile::tiny("recs", 25), 11);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(2, 3);
        let via_coll = run(&cluster, &coll, Method::SuffixSigma, &params)
            .unwrap()
            .grams;
        let records = prepare_input(&coll, params.tau, params.split_docs);
        let via_records = Computation::new(Method::SuffixSigma, &params)
            .input_records(&records)
            .run(&cluster)
            .unwrap()
            .grams;
        assert_eq!(via_coll, via_records);
        assert!(!via_coll.is_empty());
    }

    #[test]
    fn suffix_sigma_inverted_index_equals_apriori_index() {
        let coll = generate(&CorpusProfile::tiny("invidx", 25), 41);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(2, 3);
        let via_suffix = compute_inverted_index(&cluster, &coll, &params).unwrap();

        let input = crate::input::prepare_input(&coll, params.tau, params.split_docs);
        let mut via_apriori = crate::apriori_index::apriori_index_postings(
            &cluster,
            &input,
            &crate::apriori_index::IndexParams {
                tau: params.tau,
                sigma: params.sigma,
                mode: CountMode::Cf,
                k_max_indexed: 2,
                buffer_budget_bytes: 1 << 20,
                job: JobConfig::default(),
            },
        )
        .unwrap();
        via_apriori.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(via_suffix, via_apriori);
        assert!(!via_suffix.is_empty());
        // The counts derived from the index equal the plain run.
        let counted = run(&cluster, &coll, Method::SuffixSigma, &params).unwrap();
        let from_index: Vec<(Gram, u64)> = via_suffix
            .iter()
            .map(|(g, l)| (g.clone(), l.cf()))
            .collect();
        assert_eq!(from_index, counted.grams);
    }

    #[test]
    fn job_counts_match_method_structure() {
        let coll = generate(&CorpusProfile::tiny("jobs", 30), 23);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(2, 3);
        let naive = run(&cluster, &coll, Method::Naive, &params).unwrap();
        assert_eq!(naive.jobs, 1);
        let suffix = run(&cluster, &coll, Method::SuffixSigma, &params).unwrap();
        assert_eq!(suffix.jobs, 1);
        let scan = run(&cluster, &coll, Method::AprioriScan, &params).unwrap();
        assert!(scan.jobs >= 3, "one job per k plus the terminating scan");
    }
}
