//! Streaming dataflow tests: jobs chained run-to-run through
//! `RunSinkFactory` / `RunRecordSource` must produce the same answers as
//! the materialized `Job::run` path — without any intermediate
//! `Vec<(K, V)>` ever existing. The final stage uses a `CountingSinkFactory`
//! (which discards records), so the whole two-job pipeline completes while
//! the only typed record containers in play are the per-record scratch
//! buffers inside the streams.

use mapreduce::*;

/// Emits (term, 1) per token.
struct CountMapper;

impl Mapper for CountMapper {
    type InKey = u64;
    type InValue = Vec<u32>;
    type OutKey = u32;
    type OutValue = u64;

    fn map(&mut self, _did: &u64, doc: &Vec<u32>, ctx: &mut MapContext<'_, u32, u64>) {
        for &t in doc {
            ctx.emit(&t, &1);
        }
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type Key = u32;
    type ValueIn = u64;
    type KeyOut = u32;
    type ValueOut = u64;

    fn reduce(
        &mut self,
        key: u32,
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, u32, u64>,
    ) {
        ctx.emit(key, values.sum());
    }
}

/// Passes records through unchanged (the chained second job).
struct Identity;

impl Mapper for Identity {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;

    fn map(&mut self, k: &u32, v: &u64, ctx: &mut MapContext<'_, u32, u64>) {
        ctx.emit(k, v);
    }
}

fn corpus(num_docs: usize, doc_len: usize, vocab: u32) -> Vec<(u64, Vec<u32>)> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..num_docs as u64)
        .map(|did| {
            let doc = (0..doc_len)
                .map(|_| (next() % vocab as u64) as u32)
                .collect();
            (did, doc)
        })
        .collect()
}

fn expected_counts(input: &[(u64, Vec<u32>)]) -> Vec<(u32, u64)> {
    let mut m = std::collections::BTreeMap::new();
    for (_, doc) in input {
        for &t in doc {
            *m.entry(t).or_insert(0u64) += 1;
        }
    }
    m.into_iter().collect()
}

/// Chain count → identity re-reduce through runs, counting at the end.
/// No `Vec<(K, V)>` is constructed anywhere: job 1 reads a borrowed
/// slice, the boundary is serialized runs, and the final sink only
/// counts. The count and the engine counters pin the record flow.
#[test]
fn chained_jobs_stream_run_to_run_without_materializing() {
    let input = corpus(30, 200, 50);
    let expected = expected_counts(&input);
    let cluster = Cluster::new(4);

    let job1 = Job::<CountMapper, SumReducer>::new(
        JobConfig::named("count"),
        || CountMapper,
        || SumReducer,
    );
    let boundary = RunSinkFactory::<u32, u64>::mem();
    let run1 = job1
        .run_streamed(&cluster, SliceSource::new(&input), &boundary)
        .unwrap();
    let runs = run1.artifacts;
    let boundary_records: u64 = runs.iter().map(|r| r.records).sum();
    assert_eq!(boundary_records, expected.len() as u64);

    let job2 =
        Job::<Identity, SumReducer>::new(JobConfig::named("pass"), || Identity, || SumReducer);
    let counting = CountingSinkFactory::new();
    let run2 = job2
        .run_streamed(
            &cluster,
            RunRecordSource::<u32, u64>::new(runs, boundary.temp()),
            &counting,
        )
        .unwrap();

    assert_eq!(counting.total(), expected.len() as u64);
    let per_task_total: u64 = run2.artifacts.iter().sum();
    assert_eq!(per_task_total, counting.total());
    // The chained job saw exactly the boundary records as map input.
    assert_eq!(
        run2.stats.counters.get(Counter::MapInputRecords),
        boundary_records
    );
}

/// The same chain with the boundary runs spilled to disk: the pipeline's
/// in-memory state is bounded by buffers, and the answer is unchanged.
#[test]
fn chained_jobs_agree_across_memory_and_disk_boundaries() {
    let input = corpus(20, 150, 40);
    let expected = expected_counts(&input);
    let cluster = Cluster::new(2);

    let mut totals = Vec::new();
    for spill in [false, true] {
        let mut cfg = JobConfig::named("count");
        cfg.spill_to_disk = spill;
        cfg.sort_buffer_bytes = 512; // force shuffle spills too
        let job1 = Job::<CountMapper, SumReducer>::new(cfg, || CountMapper, || SumReducer);
        let boundary = RunSinkFactory::<u32, u64>::with_spill(spill, None).unwrap();
        let runs = job1
            .run_streamed(&cluster, SliceSource::new(&input), &boundary)
            .unwrap()
            .artifacts;

        let mut cfg2 = JobConfig::named("pass");
        cfg2.spill_to_disk = spill;
        let job2 = Job::<Identity, SumReducer>::new(cfg2, || Identity, || SumReducer);
        let sinks = VecSinkFactory::default();
        let out = job2
            .run_streamed(
                &cluster,
                RunRecordSource::<u32, u64>::new(runs, boundary.temp()),
                &sinks,
            )
            .unwrap();
        let mut got: Vec<(u32, u64)> = out.artifacts.into_iter().flatten().collect();
        got.sort();
        assert_eq!(got, expected, "spill={spill}");
        totals.push(got);
    }
    assert_eq!(totals[0], totals[1]);
}

/// A borrowed slice source feeds the same input to several jobs with no
/// clone; results match the owned VecSource path exactly.
#[test]
fn slice_source_matches_vec_source_results() {
    let input = corpus(15, 100, 30);
    let cluster = Cluster::new(3);

    let job = |name: &str| {
        Job::<CountMapper, SumReducer>::new(JobConfig::named(name), || CountMapper, || SumReducer)
    };
    let mut via_vec = job("vec")
        .run(&cluster, input.clone())
        .unwrap()
        .into_records();
    via_vec.sort();

    for round in 0..3 {
        let sinks = VecSinkFactory::default();
        let out = job(&format!("slice-{round}"))
            .run_streamed(&cluster, SliceSource::new(&input), &sinks)
            .unwrap();
        let mut got: Vec<(u32, u64)> = out.artifacts.into_iter().flatten().collect();
        got.sort();
        assert_eq!(got, via_vec, "round {round}");
    }
}

/// A synthetic source whose splits advertise fixed predicted costs and
/// record the order in which map workers actually claim them.
struct CostSource {
    costs: Vec<u64>,
    claimed: std::sync::Arc<parking_lot::Mutex<Vec<u64>>>,
}

struct CostStream {
    cost: u64,
    claimed: std::sync::Arc<parking_lot::Mutex<Vec<u64>>>,
}

impl RecordStream<u32, u64> for CostStream {
    fn for_each(&mut self, _f: &mut dyn FnMut(&u32, &u64) -> Result<()>) -> Result<()> {
        self.claimed.lock().push(self.cost);
        Ok(())
    }

    fn predicted_cost(&self) -> u64 {
        self.cost
    }
}

impl RecordSource<u32, u64> for CostSource {
    type Split = CostStream;

    fn len_hint(&self) -> usize {
        self.costs.len()
    }

    fn into_splits(self, _n: usize) -> Result<Vec<CostStream>> {
        let claimed = &self.claimed;
        Ok(self
            .costs
            .iter()
            .map(|&cost| CostStream {
                cost,
                claimed: std::sync::Arc::clone(claimed),
            })
            .collect())
    }
}

/// Map workers claim splits in LPT order (descending predicted cost), and
/// on a skewed workload that ordering strictly beats arrival order under
/// `simulated_makespan` — the straggler starts first instead of last.
#[test]
fn map_claims_follow_lpt_order_and_beat_arrival_makespan() {
    use std::time::Duration;

    // Skewed: the two heaviest splits arrive in the middle and at the end.
    let arrival: Vec<u64> = vec![1, 50, 3, 40, 2, 60, 5];
    let claimed = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let source = CostSource {
        costs: arrival.clone(),
        claimed: std::sync::Arc::clone(&claimed),
    };

    // One slot: a single worker claims every split, so the claim log *is*
    // the queue order.
    let cluster = Cluster::new(1);
    let job = Job::<Identity, SumReducer>::new(JobConfig::named("lpt"), || Identity, || SumReducer);
    job.run_streamed(&cluster, source, &CountingSinkFactory::new())
        .unwrap();

    let mut expected = arrival.clone();
    expected.sort_by_key(|&c| std::cmp::Reverse(c));
    assert_eq!(
        *claimed.lock(),
        expected,
        "workers must claim splits biggest-first"
    );

    // Cross-check against the scheduling simulator: list-scheduling the
    // realized (LPT) order on 2 slots beats the arrival order.
    let as_durations = |costs: &[u64]| -> Vec<Duration> {
        costs.iter().map(|&c| Duration::from_millis(c)).collect()
    };
    let lpt = simulated_makespan(&as_durations(&claimed.lock()), 2);
    let fifo = simulated_makespan(&as_durations(&arrival), 2);
    assert!(
        lpt < fifo,
        "LPT makespan {lpt:?} must beat arrival-order makespan {fifo:?}"
    );
}

/// Writer sinks stream every record out during reduce; the bytes written
/// equal the record set regardless of task interleaving.
#[test]
fn writer_sink_streams_during_reduce() {
    use parking_lot::Mutex;
    use std::io::Write;
    use std::sync::Arc;

    let input = corpus(10, 120, 25);
    let expected = expected_counts(&input);
    let cluster = Cluster::new(4);

    let collected: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sinks = WriterSinkFactory::new(
        Box::new(Shared(Arc::clone(&collected))),
        |buf: &mut Vec<u8>, k: &u32, v: &u64| {
            buf.extend_from_slice(format!("{k}\t{v}\n").as_bytes());
        },
    );
    let job = Job::<CountMapper, SumReducer>::new(
        JobConfig::named("stream-out"),
        || CountMapper,
        || SumReducer,
    );
    job.run_streamed(&cluster, SliceSource::new(&input), &sinks)
        .unwrap();
    sinks.flush().unwrap();
    assert_eq!(sinks.records(), expected.len() as u64);

    let text = String::from_utf8(collected.lock().clone()).unwrap();
    let mut got: Vec<(u32, u64)> = text
        .lines()
        .map(|l| {
            let (k, v) = l.split_once('\t').unwrap();
            (k.parse().unwrap(), v.parse().unwrap())
        })
        .collect();
    got.sort();
    assert_eq!(got, expected);
}
