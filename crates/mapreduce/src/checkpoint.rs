//! Durable job checkpoints and driver resume.
//!
//! Hadoop's runtime assumption — the one the paper's four methods all
//! lean on — is that completed task output is *durable*: a died driver
//! re-runs only what had not finished. This module gives
//! [`Job::run_streamed`](crate::Job::run_streamed) the same property.
//! With a [`CheckpointSpec`] installed in
//! [`JobConfig::checkpoint`](crate::JobConfig::checkpoint), every
//! successful map task atomically publishes its spill runs plus a
//! `task-NNN.done` record (split identity, run descriptors, CRC-guarded
//! counter snapshot) under a per-job manifest directory, and reduce
//! partitions whose sink supports it (run sinks) checkpoint their sealed
//! output likewise. On restart with resume enabled, a job whose
//! fingerprint matches the manifest skips the completed tasks — their
//! runs are fed straight into the merge and their counters restored —
//! and a stale manifest (different fingerprint at the same job position)
//! is refused with [`MrError::CheckpointMismatch`].
//!
//! Every durable write goes through the staged publish of
//! [`blockfile`](crate::blockfile): the `.done` record is renamed into
//! place only after its runs are, so a crash at any point leaves nothing
//! a resume would wrongly trust.
//! Checkpoint write failures (e.g. `ENOSPC`) never fail the job — the
//! spec degrades to checkpoint-off with a warning and the job continues.

use crate::counters::{Counter, CounterSnapshot, Counters};
use crate::crc::crc32;
use crate::error::{MrError, Result};
use crate::fault::FaultPlan;
use crate::run::{Run, RunCodec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where (and whether) a chain of jobs checkpoints, shared by every job
/// of one computation through [`JobConfig::checkpoint`](crate::JobConfig::checkpoint).
///
/// Each job claims a sequence number from the spec in launch order, so a
/// deterministic driver (the n-gram methods, including the APRIORI round
/// loops) maps the same job to the same manifest directory on every run.
#[derive(Debug)]
pub struct CheckpointSpec {
    dir: PathBuf,
    token: String,
    resume: bool,
    seq: AtomicU64,
    disabled: AtomicBool,
}

impl CheckpointSpec {
    /// Checkpoint under `dir`, keyed by `token` — the caller's identity
    /// for the computation's input and parameters (the CLI uses a CRC of
    /// the input's content and the method/parameter string). The token
    /// is folded into every job fingerprint, so resuming against a
    /// manifest written for different input or parameters is refused.
    pub fn new(dir: impl Into<PathBuf>, token: impl Into<String>) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            token: token.into(),
            resume: false,
            seq: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
        }
    }

    /// Enable resume: jobs skip tasks recorded complete in a matching
    /// manifest and refuse a mismatched one. Without this, an existing
    /// manifest for the same job position is clobbered and the run is
    /// checkpointed from scratch.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Whether resume is enabled.
    pub fn is_resume(&self) -> bool {
        self.resume
    }

    /// Whether checkpointing has been degraded to off (a durable write
    /// failed mid-run, e.g. the checkpoint disk filled up).
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// The checkpoint root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn token(&self) -> &str {
        &self.token
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn disable(&self) {
        self.disabled.store(true, Ordering::Relaxed);
    }
}

/// FNV-1a 64-bit over the parts with a separator fold between them, so
/// `["ab","c"]` and `["a","bc"]` fingerprint differently.
pub(crate) fn fingerprint64(parts: &[&str]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One persisted run of a completed task: where it lives (relative to
/// the job manifest directory) and the metadata needed to reopen it.
#[derive(Debug)]
pub(crate) struct DoneRun {
    pub(crate) partition: usize,
    pub(crate) rel_path: String,
    pub(crate) records: u64,
    pub(crate) bytes: u64,
    pub(crate) raw_bytes: u64,
    pub(crate) codec: RunCodec,
}

/// A parsed `task-NNN.done` / `reduce-NNN.done` record: proof one task
/// completed, with everything a resume needs to skip re-running it.
#[derive(Debug)]
pub(crate) struct TaskDone {
    /// The split's predicted cost at checkpoint time — a cheap identity
    /// check that the resumed job is slicing the same input the same way.
    pub(crate) cost: u64,
    /// The completed attempt's wall time, restored into the job's
    /// per-task timing vector (slot-scaling simulation stays meaningful).
    pub(crate) wall_nanos: u64,
    /// The successful attempt's counter snapshot.
    pub(crate) counters: CounterSnapshot,
    /// Persisted spill runs (empty for reduce records, whose artifact is
    /// persisted by the sink itself).
    pub(crate) runs: Vec<DoneRun>,
}

impl TaskDone {
    /// Reopen the persisted runs as `(partition, run)` pairs.
    pub(crate) fn restore_runs(&self, dir: &Path) -> Vec<(usize, Run)> {
        self.runs
            .iter()
            .map(|r| {
                (
                    r.partition,
                    Run::from_file(
                        dir.join(&r.rel_path),
                        r.records,
                        r.bytes,
                        r.raw_bytes,
                        r.codec,
                    ),
                )
            })
            .collect()
    }
}

/// One job's view of the checkpoint manifest: its directory, plus the
/// completed-task records loaded at prepare time when resuming.
#[derive(Debug)]
pub(crate) struct JobCheckpoint {
    dir: PathBuf,
    spec: Arc<CheckpointSpec>,
    fault: Option<Arc<FaultPlan>>,
    map_done: BTreeMap<usize, TaskDone>,
    reduce_done: BTreeMap<usize, TaskDone>,
}

impl JobCheckpoint {
    /// Claim this job's manifest directory under the spec: sequence
    /// number in launch order, name suffixed with the job fingerprint.
    /// Resuming against a same-position manifest with a different
    /// fingerprint is refused; a fresh (non-resume) run clobbers any
    /// previous manifest at this position.
    pub(crate) fn prepare(
        spec: &Arc<CheckpointSpec>,
        fault: Option<Arc<FaultPlan>>,
        job_name: &str,
        num_map: usize,
        num_reduce: usize,
        codec: RunCodec,
    ) -> Result<JobCheckpoint> {
        let seq = spec.next_seq();
        let fp = fingerprint64(&[
            spec.token(),
            job_name,
            &num_map.to_string(),
            &num_reduce.to_string(),
            codec.name(),
        ]);
        let prefix = format!("job-{seq:03}-");
        let dir_name = format!("{prefix}{fp:016x}");
        let dir = spec.dir().join(&dir_name);
        let stale = siblings_with_prefix(spec.dir(), &prefix)?
            .into_iter()
            .find(|name| *name != dir_name);
        if spec.is_resume() {
            if let Some(found) = stale {
                return Err(MrError::CheckpointMismatch {
                    expected: dir_name,
                    found,
                });
            }
        } else if let Some(found) = stale {
            std::fs::remove_dir_all(spec.dir().join(found))?;
        }
        let resuming = spec.is_resume() && dir.is_dir();
        if !spec.is_resume() && dir.is_dir() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(dir.join("runs"))?;
        let mut ck = JobCheckpoint {
            dir,
            spec: Arc::clone(spec),
            fault,
            map_done: BTreeMap::new(),
            reduce_done: BTreeMap::new(),
        };
        if resuming {
            ck.load_done_records();
        }
        Ok(ck)
    }

    /// The job's manifest directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Map tasks recorded complete, by split index.
    pub(crate) fn completed_map(&self) -> &BTreeMap<usize, TaskDone> {
        &self.map_done
    }

    /// The completed-record of reduce partition `p`, if any.
    pub(crate) fn reduce_done(&self, p: usize) -> Option<&TaskDone> {
        self.reduce_done.get(&p)
    }

    /// Degrade checkpointing to off for the rest of the computation —
    /// the graceful answer to a full or failing checkpoint disk.
    pub(crate) fn degrade(&self, what: &str, e: &MrError) {
        crate::log_warn!(
            "checkpoint",
            "{what} failed ({e}); disabling checkpoints for the rest of this run"
        );
        self.spec.disable();
    }

    /// Whether durable writes should still be attempted.
    pub(crate) fn active(&self) -> bool {
        !self.spec.is_disabled()
    }

    /// Durably publish a completed map task: persist its spill runs,
    /// then commit the `task-NNN.done` record via `.tmp` → rename. Any
    /// failure degrades checkpointing instead of failing the job.
    pub(crate) fn publish_map_task(
        &self,
        task: usize,
        cost: u64,
        wall: Duration,
        snap: &CounterSnapshot,
        runs: &[Vec<Run>],
        counters: &Counters,
    ) {
        if !self.active() {
            return;
        }
        let attempt = || -> Result<u64> {
            let mut bytes = 0u64;
            let mut done_runs: Vec<DoneRun> = Vec::new();
            for (p, rs) in runs.iter().enumerate() {
                for (n, run) in rs.iter().enumerate() {
                    let rel_path = format!("runs/task-{task:03}-p{p}-{n}.run");
                    bytes += run.persist_to(&self.dir.join(&rel_path))?;
                    done_runs.push(DoneRun {
                        partition: p,
                        rel_path,
                        records: run.records,
                        bytes: run.bytes,
                        raw_bytes: run.raw_bytes,
                        codec: run.codec,
                    });
                }
            }
            bytes += self.write_done_record(
                &format!("task-{task:03}.done"),
                cost,
                wall,
                snap,
                &done_runs,
            )?;
            Ok(bytes)
        };
        match attempt() {
            Ok(bytes) => counters.add(Counter::CheckpointBytes, bytes),
            Err(e) => self.degrade("map checkpoint write", &e),
        }
    }

    /// Durably record a completed reduce partition whose artifact the
    /// sink already persisted (`artifact_bytes` of it). Failures degrade
    /// checkpointing instead of failing the job.
    pub(crate) fn publish_reduce_task(
        &self,
        partition: usize,
        wall: Duration,
        snap: &CounterSnapshot,
        artifact_bytes: u64,
        counters: &Counters,
    ) {
        if !self.active() {
            return;
        }
        match self.write_done_record(&format!("reduce-{partition:03}.done"), 0, wall, snap, &[]) {
            Ok(bytes) => counters.add(Counter::CheckpointBytes, bytes + artifact_bytes),
            Err(e) => self.degrade("reduce checkpoint write", &e),
        }
    }

    fn write_done_record(
        &self,
        name: &str,
        cost: u64,
        wall: Duration,
        snap: &CounterSnapshot,
        runs: &[DoneRun],
    ) -> Result<u64> {
        if let Some(plan) = &self.fault {
            plan.check_ckpt_write()?;
        }
        let mut lines = vec![
            format!("cost\t{cost}"),
            format!("wall\t{}", wall.as_nanos().min(u128::from(u64::MAX))),
        ];
        for (cname, value) in snap.iter() {
            if value > 0 {
                lines.push(format!("counter\t{cname}\t{value}"));
            }
        }
        for r in runs {
            lines.push(format!(
                "run\t{}\t{}\t{}\t{}\t{}\t{}",
                r.partition,
                r.rel_path,
                r.records,
                r.bytes,
                r.raw_bytes,
                r.codec.name()
            ));
        }
        write_record_file(&self.dir.join(name), &lines)
    }

    /// Load every parseable `.done` record; a corrupt or incomplete one
    /// (CRC failure, missing run file) just means that task re-runs.
    fn load_done_records(&mut self) {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let (map_phase, idx) = if let Some(rest) = name.strip_prefix("task-") {
                (true, rest.strip_suffix(".done"))
            } else if let Some(rest) = name.strip_prefix("reduce-") {
                (false, rest.strip_suffix(".done"))
            } else {
                continue;
            };
            let Some(idx) = idx.and_then(|s| s.parse::<usize>().ok()) else {
                continue;
            };
            match self.parse_done_record(&entry.path()) {
                Ok(done) => {
                    if map_phase {
                        self.map_done.insert(idx, done);
                    } else {
                        self.reduce_done.insert(idx, done);
                    }
                }
                Err(e) => crate::log_warn!(
                    "checkpoint",
                    "ignoring unusable done record {name}: {e} (task will re-run)"
                ),
            }
        }
    }

    fn parse_done_record(&self, path: &Path) -> Result<TaskDone> {
        let mut done = TaskDone {
            cost: 0,
            wall_nanos: 0,
            counters: CounterSnapshot::default(),
            runs: Vec::new(),
        };
        for line in read_record_file(path)? {
            let mut fields = line.split('\t');
            let bad = || MrError::Config(format!("malformed done record line '{line}'"));
            match fields.next() {
                Some("cost") => {
                    done.cost = fields.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                Some("wall") => {
                    done.wall_nanos = fields.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                Some("counter") => {
                    let name = fields.next().ok_or_else(bad)?;
                    let value = fields.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    done.counters.set_by_name(name, value);
                }
                Some("run") => {
                    let f: Vec<&str> = fields.collect();
                    let [partition, rel_path, records, bytes, raw_bytes, codec] = f[..] else {
                        return Err(bad());
                    };
                    let run = DoneRun {
                        partition: partition.parse().map_err(|_| bad())?,
                        rel_path: rel_path.to_string(),
                        records: records.parse().map_err(|_| bad())?,
                        bytes: bytes.parse().map_err(|_| bad())?,
                        raw_bytes: raw_bytes.parse().map_err(|_| bad())?,
                        codec: RunCodec::parse(codec).ok_or_else(bad)?,
                    };
                    if !self.dir.join(&run.rel_path).is_file() {
                        return Err(MrError::Config(format!(
                            "done record references missing run file {}",
                            run.rel_path
                        )));
                    }
                    done.runs.push(run);
                }
                _ => return Err(bad()),
            }
        }
        Ok(done)
    }
}

/// Manifest sibling directories starting with `prefix` (`job-NNN-`).
fn siblings_with_prefix(dir: &Path, prefix: &str) -> Result<Vec<String>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries.flatten() {
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with(prefix) {
                found.push(name.to_string());
            }
        }
    }
    Ok(found)
}

/// Write `lines` plus a trailing `crc\tXXXXXXXX` guard line, published
/// through a staged file. Returns the bytes written.
pub(crate) fn write_record_file(path: &Path, lines: &[String]) -> Result<u64> {
    let mut body = String::new();
    for line in lines {
        body.push_str(line);
        body.push('\n');
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("crc\t{crc:08x}\n"));
    crate::blockfile::publish(path, body.as_bytes())?;
    Ok(body.len() as u64)
}

/// Read a file written by [`write_record_file`], verifying the CRC guard
/// over everything before it. Returns the payload lines.
pub(crate) fn read_record_file(path: &Path) -> Result<Vec<String>> {
    let text = std::fs::read_to_string(path)?;
    let Some(idx) = text
        .rfind("crc\t")
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
    else {
        return Err(MrError::Corrupt("checkpoint record missing crc line"));
    };
    let (body, crc_line) = text.split_at(idx);
    let recorded = crc_line
        .trim_end()
        .strip_prefix("crc\t")
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or(MrError::Corrupt("checkpoint record crc line unparsable"))?;
    if crc32(body.as_bytes()) != recorded {
        return Err(MrError::Corrupt("checkpoint record failed crc check"));
    }
    Ok(body.lines().map(str::to_string).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mr-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_file_round_trips_and_detects_corruption() {
        let dir = scratch_dir("record");
        let path = dir.join("x.done");
        let lines = vec!["cost\t7".to_string(), "wall\t123".to_string()];
        let bytes = write_record_file(&path, &lines).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_record_file(&path).unwrap(), lines);
        // Flip one payload byte: the crc guard must reject the file.
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        assert!(read_record_file(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint64(&["ab", "c"]), fingerprint64(&["a", "bc"]));
        assert_eq!(fingerprint64(&["x", "y"]), fingerprint64(&["x", "y"]));
    }

    #[test]
    fn resume_refuses_mismatched_manifest() {
        let dir = scratch_dir("mismatch");
        let spec = Arc::new(CheckpointSpec::new(&dir, "token-a"));
        let ck = JobCheckpoint::prepare(&spec, None, "job", 4, 2, RunCodec::Plain).unwrap();
        assert!(ck.dir().is_dir());
        // Same position, different token → different fingerprint → refused.
        let resumed = Arc::new(CheckpointSpec::new(&dir, "token-b").resume(true));
        let err = JobCheckpoint::prepare(&resumed, None, "job", 4, 2, RunCodec::Plain)
            .expect_err("stale manifest must be refused");
        assert!(matches!(err, MrError::CheckpointMismatch { .. }), "{err}");
        // Matching token resumes cleanly.
        let matching = Arc::new(CheckpointSpec::new(&dir, "token-a").resume(true));
        JobCheckpoint::prepare(&matching, None, "job", 4, 2, RunCodec::Plain).unwrap();
        // A fresh (non-resume) run clobbers the stale manifest instead.
        let fresh = Arc::new(CheckpointSpec::new(&dir, "token-b"));
        JobCheckpoint::prepare(&fresh, None, "job", 4, 2, RunCodec::Plain).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_records_round_trip_through_publish_and_load() {
        let dir = scratch_dir("done");
        let spec = Arc::new(CheckpointSpec::new(&dir, "t"));
        let ck = JobCheckpoint::prepare(&spec, None, "job", 2, 2, RunCodec::Plain).unwrap();
        let counters = Counters::new();
        counters.add(Counter::MapInputRecords, 5);
        counters.add_user("FROBS", 3);
        let snap = counters.snapshot();
        let mut w = crate::run::RunWriter::mem();
        w.write_record(b"k", b"v").unwrap();
        let run = w.finish().unwrap();
        let bank = Counters::new();
        ck.publish_map_task(
            1,
            42,
            Duration::from_nanos(777),
            &snap,
            &[vec![], vec![run]],
            &bank,
        );
        assert!(bank.get(Counter::CheckpointBytes) > 0);
        // Reload through a resumed prepare.
        let resumed = Arc::new(CheckpointSpec::new(&dir, "t").resume(true));
        let ck2 = JobCheckpoint::prepare(&resumed, None, "job", 2, 2, RunCodec::Plain).unwrap();
        let done = ck2.completed_map().get(&1).expect("task 1 recorded done");
        assert_eq!(done.cost, 42);
        assert_eq!(done.wall_nanos, 777);
        assert_eq!(done.counters.get(Counter::MapInputRecords), 5);
        assert_eq!(done.counters.get_user("FROBS"), 3);
        let restored = done.restore_runs(ck2.dir());
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].0, 1);
        assert_eq!(restored[0].1.records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ckpt_eio_degrades_instead_of_failing() {
        let dir = scratch_dir("eio");
        let spec = Arc::new(CheckpointSpec::new(&dir, "t"));
        let fault = Arc::new(FaultPlan::new().fail_checkpoint_write(1));
        let ck = JobCheckpoint::prepare(&spec, Some(fault), "job", 1, 1, RunCodec::Plain).unwrap();
        let bank = Counters::new();
        ck.publish_map_task(
            0,
            0,
            Duration::ZERO,
            &CounterSnapshot::default(),
            &[],
            &bank,
        );
        assert!(spec.is_disabled(), "failed write must degrade to off");
        assert_eq!(bank.get(Counter::CheckpointBytes), 0);
        // Subsequent publishes are no-ops, not errors.
        ck.publish_reduce_task(0, Duration::ZERO, &CounterSnapshot::default(), 9, &bank);
        assert_eq!(bank.get(Counter::CheckpointBytes), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
