//! Task-span tracing: the raw record of *where a job's time went*.
//!
//! When [`JobConfig::trace`](crate::JobConfig) is on, the driver hands
//! every worker thread a shard of a [`TraceSink`] and records one
//! [`TaskSpan`] per task *attempt* — phase, task id, attempt number,
//! queue wait, wall, outcome, and the attempt's private counter deltas
//! (the same per-attempt bank the fault-tolerance layer already keeps,
//! so failed attempts report the work they burned even though their
//! counters were never absorbed into the job totals). Job-level
//! [`JobSpan`]s bracket the setup, map, reduce and seal stretches of
//! [`Job::run_streamed`](crate::Job::run_streamed).
//!
//! Lock-cheap by construction: each worker appends to its own
//! `Mutex<Vec<_>>` shard, so the only contention is a never-contended
//! lock acquisition per attempt (and zero allocation beyond the `Vec`
//! push). With tracing off, nothing here runs — the driver's check is a
//! single branch on an `Option`.
//!
//! Spans are consumed by [`crate::JobProfile`], which folds them into
//! the per-phase / per-task report the CLI's `--profile` flag writes.

use crate::counters::CounterSnapshot;
use parking_lot::Mutex;
use std::time::Duration;

/// One task attempt, as observed by the worker that ran it.
#[derive(Debug, Clone)]
pub struct TaskSpan {
    /// `"map"` or `"reduce"`.
    pub phase: &'static str,
    /// Task index within its phase.
    pub task: usize,
    /// Attempt number, starting at 1 (matches the retry log messages).
    pub attempt: u32,
    /// Time from the start of the task's phase until a worker claimed
    /// this task — how long it sat in the queue behind other tasks.
    /// Attempts after the first inherit the claim time of the task, so
    /// their queue wait also covers earlier failed attempts' walls.
    pub queue_wait: Duration,
    /// Wall time of this attempt alone.
    pub wall: Duration,
    /// Whether the attempt succeeded (its counters were absorbed).
    pub ok: bool,
    /// Whether this was a speculative backup attempt launched against a
    /// straggling in-flight task (`JobConfig::speculative_slack`). A
    /// backup that loses the publish race reports `ok: false` even
    /// though it ran cleanly — its output was discarded.
    pub speculative: bool,
    /// The attempt's private counter bank: exactly the work this attempt
    /// did, including sort and merge time, isolated from every other
    /// attempt.
    pub counters: CounterSnapshot,
}

/// One named stretch of the job driver itself.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// `"setup"`, `"map"`, `"reduce"` or `"seal"`.
    pub name: &'static str,
    /// Offset from job start to the beginning of this stretch.
    pub start: Duration,
    /// Wall time of the stretch.
    pub wall: Duration,
}

/// Everything tracing captured for one job: the driver-level spans and
/// the per-attempt task spans, already merged out of the worker shards.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Job name (`JobConfig::name`).
    pub name: String,
    /// Total job wall time.
    pub elapsed: Duration,
    /// Driver-level stretches, in execution order; their walls partition
    /// `elapsed` (setup + map + reduce + seal = job wall, up to the
    /// driver's own bookkeeping between clock reads).
    pub job_spans: Vec<JobSpan>,
    /// One span per task attempt, ordered by phase then task id then
    /// attempt number after the shard merge.
    pub task_spans: Vec<TaskSpan>,
}

/// Sharded span collector: one shard per worker thread, merged once at
/// job end. Workers never touch each other's shards, so the per-attempt
/// cost is an uncontended lock plus a `Vec` push.
pub struct TraceSink {
    shards: Vec<Mutex<Vec<TaskSpan>>>,
}

impl TraceSink {
    /// A sink with one shard per worker.
    pub fn new(workers: usize) -> Self {
        TraceSink {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Append a span to `worker`'s shard.
    pub fn record(&self, worker: usize, span: TaskSpan) {
        self.shards[worker % self.shards.len()].lock().push(span);
    }

    /// Drain all shards into one list, ordered by phase (map before
    /// reduce), then task id, then attempt number.
    pub fn into_spans(self) -> Vec<TaskSpan> {
        let mut all: Vec<TaskSpan> = self
            .shards
            .into_iter()
            .flat_map(|shard| shard.into_inner())
            .collect();
        all.sort_by_key(|s| (s.phase != "map", s.task, s.attempt));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &'static str, task: usize, attempt: u32) -> TaskSpan {
        TaskSpan {
            phase,
            task,
            attempt,
            queue_wait: Duration::ZERO,
            wall: Duration::from_millis(1),
            ok: true,
            speculative: false,
            counters: CounterSnapshot::default(),
        }
    }

    #[test]
    fn shards_merge_in_phase_task_attempt_order() {
        let sink = TraceSink::new(3);
        sink.record(2, span("reduce", 0, 1));
        sink.record(0, span("map", 1, 1));
        sink.record(1, span("map", 0, 2));
        sink.record(1, span("map", 0, 1));
        let spans = sink.into_spans();
        let order: Vec<_> = spans.iter().map(|s| (s.phase, s.task, s.attempt)).collect();
        assert_eq!(
            order,
            vec![
                ("map", 0, 1),
                ("map", 0, 2),
                ("map", 1, 1),
                ("reduce", 0, 1)
            ]
        );
    }

    #[test]
    fn concurrent_records_all_land() {
        let sink = TraceSink::new(4);
        std::thread::scope(|s| {
            for w in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for t in 0..100 {
                        sink.record(w, span("map", t, 1));
                    }
                });
            }
        });
        assert_eq!(sink.into_spans().len(), 400);
    }
}
