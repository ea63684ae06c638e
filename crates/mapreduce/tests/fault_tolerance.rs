//! End-to-end fault-tolerance tests: under a deterministic [`FaultPlan`]
//! (task panics, spill EIO, read-side frame corruption) the job must
//! converge through retries to *exactly* the fault-free output, and
//! faults exceeding the attempt budget must surface as
//! [`MrError::TaskFailed`] — never as an escaped panic.

use mapreduce::*;
use std::sync::Arc;

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = u64;
    type InValue = String;
    type OutKey = u64; // fx_hash of the word
    type OutValue = u64;
    fn map(&mut self, _k: &u64, text: &String, ctx: &mut MapContext<'_, u64, u64>) {
        for word in text.split_whitespace() {
            ctx.emit(&fx_hash(&word), &1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type Key = u64;
    type ValueIn = u64;
    type KeyOut = u64;
    type ValueOut = u64;
    fn reduce(
        &mut self,
        key: u64,
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, u64>,
    ) {
        let total: u64 = values.sum();
        ctx.emit(key, total);
    }
}

fn corpus() -> Vec<(u64, String)> {
    (0..64u64)
        .map(|i| {
            (
                i,
                format!(
                    "alpha beta gamma delta w{} w{} shared prefix prefixes",
                    i % 7,
                    i % 13
                ),
            )
        })
        .collect()
}

fn base_config() -> JobConfig {
    JobConfig {
        name: "fault-test".into(),
        num_map_tasks: 4,
        num_reduce_tasks: 3,
        // Tiny buffer: every map task spills several times, so the
        // spill-EIO and frame-corruption hooks have events to hit.
        sort_buffer_bytes: 256,
        ..Default::default()
    }
}

/// Run the word count under `config` and return its sorted records.
fn run_sorted(config: JobConfig) -> Result<(Vec<(u64, u64)>, CounterSnapshot)> {
    let cluster = Cluster::new(2);
    let job = Job::<Tokenize, Sum>::new(config, || Tokenize, || Sum);
    let result = job.run(&cluster, corpus())?;
    let counters = result.counters.clone();
    let mut records = result.into_records();
    records.sort();
    Ok((records, counters))
}

fn fault_free() -> Vec<(u64, u64)> {
    run_sorted(base_config())
        .expect("fault-free run succeeds")
        .0
}

#[test]
fn map_panic_is_retried_to_identical_output() {
    let mut config = base_config();
    config.fault_plan = Some(Arc::new(FaultPlan::new().panic_map_task(1, 0)));
    let (records, counters) = run_sorted(config).expect("job recovers from a map panic");
    assert_eq!(records, fault_free());
    assert_eq!(counters.get(Counter::TaskPanics), 1);
    assert_eq!(counters.get(Counter::TaskRetries), 1);
    // 4 map + 3 reduce tasks, plus the one retried attempt.
    assert_eq!(counters.get(Counter::TaskAttempts), 8);
}

#[test]
fn reduce_panic_is_retried_to_identical_output() {
    let mut config = base_config();
    config.fault_plan = Some(Arc::new(FaultPlan::new().panic_reduce_task(2, 0)));
    let (records, counters) = run_sorted(config).expect("job recovers from a reduce panic");
    assert_eq!(records, fault_free());
    assert_eq!(counters.get(Counter::TaskPanics), 1);
    assert_eq!(counters.get(Counter::TaskRetries), 1);
}

#[test]
fn spill_eio_is_retried_to_identical_output() {
    for spill_to_disk in [false, true] {
        let mut config = base_config();
        config.spill_to_disk = spill_to_disk;
        config.fault_plan = Some(Arc::new(FaultPlan::new().fail_spill_write(2)));
        let (records, counters) = run_sorted(config).expect("job recovers from a spill EIO");
        assert_eq!(records, fault_free(), "spill_to_disk={spill_to_disk}");
        assert_eq!(counters.get(Counter::TaskRetries), 1);
        assert_eq!(counters.get(Counter::TaskPanics), 0);
    }
}

#[test]
fn corrupted_run_frame_is_retried_to_identical_output() {
    for spill_to_disk in [false, true] {
        let mut config = base_config();
        config.spill_to_disk = spill_to_disk;
        config.fault_plan = Some(Arc::new(FaultPlan::new().corrupt_frame_read(3)));
        let (records, counters) =
            run_sorted(config).expect("job recovers from a corrupted run frame");
        assert_eq!(records, fault_free(), "spill_to_disk={spill_to_disk}");
        assert_eq!(counters.get(Counter::TaskRetries), 1);
    }
}

#[test]
fn all_faults_at_once_still_converge() {
    let mut config = base_config();
    config.spill_to_disk = true;
    config.fault_plan = Some(Arc::new(
        FaultPlan::parse("map-panic=0@0,spill-eio=4,corrupt-frame=2").unwrap(),
    ));
    let (records, counters) = run_sorted(config).expect("job absorbs the whole fault plan");
    assert_eq!(records, fault_free());
    assert!(counters.get(Counter::TaskRetries) >= 2);
}

#[test]
fn exhausted_attempts_fail_with_task_failed() {
    let mut config = base_config();
    // Only one (task, attempt) pair is representable per phase, so drive
    // exhaustion with a budget of 1.
    config.max_task_attempts = 1;
    config.fault_plan = Some(Arc::new(FaultPlan::new().panic_map_task(1, 0)));
    let err = run_sorted(config).expect_err("attempt budget of 1 cannot absorb a panic");
    match err {
        MrError::TaskFailed {
            phase,
            task,
            attempts,
            cause,
        } => {
            assert_eq!(phase, "map");
            assert_eq!(task, 1);
            assert_eq!(attempts, 1);
            assert!(matches!(*cause, MrError::TaskPanic(_)));
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mr-ckpt-{}-{tag}", std::process::id()))
}

#[test]
fn checkpointed_rerun_skips_every_map_task() {
    let dir = ckpt_dir("rerun");
    let _ = std::fs::remove_dir_all(&dir);
    let expected = fault_free();

    let mut config = base_config();
    config.checkpoint = Some(Arc::new(CheckpointSpec::new(&dir, "tok-v1")));
    let (records, counters) = run_sorted(config).expect("checkpointed run succeeds");
    assert_eq!(records, expected);
    assert_eq!(counters.get(Counter::TaskSkippedCheckpointed), 0);
    assert!(counters.get(Counter::CheckpointBytes) > 0);
    let fresh_attempts = counters.get(Counter::TaskAttempts);

    // Resuming over a completed manifest re-runs no map task at all:
    // every run is fed from the checkpoint and only reduce re-executes.
    let mut config = base_config();
    config.checkpoint = Some(Arc::new(CheckpointSpec::new(&dir, "tok-v1").resume(true)));
    let (records, counters) = run_sorted(config).expect("resumed run succeeds");
    assert_eq!(records, expected);
    assert_eq!(counters.get(Counter::TaskSkippedCheckpointed), 4);
    assert!(
        counters.get(Counter::TaskAttempts) < fresh_attempts,
        "resume must re-execute strictly fewer tasks ({} vs {fresh_attempts})",
        counters.get(Counter::TaskAttempts)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_against_a_stale_manifest_is_refused() {
    let dir = ckpt_dir("stale");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = base_config();
    config.checkpoint = Some(Arc::new(CheckpointSpec::new(&dir, "tok-v1")));
    run_sorted(config).expect("checkpointed run succeeds");

    // Same directory, different job identity: the fingerprint disagrees,
    // so resuming must refuse rather than mix task outputs across jobs.
    let mut config = base_config();
    config.checkpoint = Some(Arc::new(CheckpointSpec::new(&dir, "tok-v2").resume(true)));
    let err = run_sorted(config).expect_err("stale manifest must be refused");
    assert!(
        matches!(err, MrError::CheckpointMismatch { .. }),
        "expected CheckpointMismatch, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ckpt_eio_degrades_to_checkpoint_off_not_job_failure() {
    let dir = ckpt_dir("eio");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = base_config();
    config.checkpoint = Some(Arc::new(CheckpointSpec::new(&dir, "tok-v1")));
    config.fault_plan = Some(Arc::new(FaultPlan::parse("ckpt-eio=1").unwrap()));
    let (records, _) = run_sorted(config).expect("checkpoint EIO must not fail the job");
    assert_eq!(records, fault_free());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn speculative_backup_converges_to_identical_output() {
    // Seven trivial documents and one enormous one, a split each: the
    // huge split is still in flight long after the rest finish, so the
    // idle worker's monitor sees elapsed > median and launches a backup.
    let mut docs: Vec<(u64, String)> = (0..7u64).map(|i| (i, format!("alpha beta w{i}"))).collect();
    docs.push((7, "straggler word ".repeat(400_000)));

    let run = |speculate: bool| {
        let mut config = base_config();
        config.num_map_tasks = 8;
        if speculate {
            config.speculative_slack = 1.0;
            config.speculative_min_cpus = 1;
        }
        let cluster = Cluster::new(2);
        let job = Job::<Tokenize, Sum>::new(config, || Tokenize, || Sum);
        let sinks = VecSinkFactory::default();
        let result: JobResult<u64, u64> = job
            .run_streamed(&cluster, SliceSource::new(&docs), &sinks)
            .expect("job succeeds")
            .into();
        let counters = result.counters.clone();
        let mut records = result.into_records();
        records.sort();
        (records, counters)
    };

    let (expected, baseline) = run(false);
    assert_eq!(baseline.get(Counter::SpeculativeAttempts), 0);
    let (records, counters) = run(true);
    assert_eq!(records, expected, "speculation must not change the output");
    assert!(
        counters.get(Counter::SpeculativeAttempts) >= 1,
        "the straggler split must draw a backup attempt"
    );
    assert!(counters.get(Counter::SpeculativeWins) <= counters.get(Counter::SpeculativeAttempts));
}

#[test]
fn reduce_exhaustion_reports_the_partition() {
    let mut config = base_config();
    config.max_task_attempts = 1;
    config.fault_plan = Some(Arc::new(FaultPlan::new().panic_reduce_task(0, 0)));
    let err = run_sorted(config).expect_err("reduce panic with no retry budget fails the job");
    match err {
        MrError::TaskFailed { phase, task, .. } => {
            assert_eq!(phase, "reduce");
            assert_eq!(task, 0);
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}
