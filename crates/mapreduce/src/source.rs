//! Record sources: where a job's input splits come from.
//!
//! [`Job::run_streamed`](crate::Job::run_streamed) pulls its input through a
//! [`RecordSource`], which partitions itself into per-map-task
//! [`RecordStream`]s. Three implementations cover the engine's needs:
//!
//! * [`VecSource`] — an owned in-memory vector, distributed round-robin
//!   (the classic `Job::run` path);
//! * [`SliceSource`] — a *borrowed* slice streamed in strides, so iterative
//!   drivers (the APRIORI round loops) can feed the same immutable input to
//!   every round without cloning a single record;
//! * [`RunRecordSource`] — serialized [`Run`]s, typically a previous job's
//!   reducer output, deserialized record-by-record into the next map phase.
//!   This is what chains jobs run-to-run with memory bounded by one record.
//!
//! Streams are push-based (`for_each`) rather than `Iterator`s so that
//! borrowing sources can hand out `&K`/`&V` without generic associated
//! types, and so run-backed streams can reuse one scratch buffer per split.

use crate::error::Result;
use crate::io::{ByteReader, Writable};
use crate::run::{Run, TempDir};
use std::sync::Arc;

/// Input-side I/O telemetry of one exhausted [`RecordStream`], recorded
/// into the job's input counters after the map task drains the split.
///
/// In-memory sources (vectors, borrowed slices) have no serialized form
/// and report the all-zero default; serialized sources (runs, corpus-store
/// blocks) report what they actually fetched. `peak_block_bytes` is the
/// largest single block resident at once — the witness that a bounded
/// source never held more than one block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InputStats {
    /// Serialized bytes fetched from the backing input.
    pub bytes_read: u64,
    /// Decoded (pre-codec) bytes behind `bytes_read` — equal to it for
    /// uncompressed inputs; larger for codec-compressed corpus-store
    /// blocks and front-coded runs, where the pair is the input
    /// compression ratio.
    pub raw_bytes: u64,
    /// Number of blocks (or runs) fetched.
    pub blocks_read: u64,
    /// Largest single block held in memory at once.
    pub peak_block_bytes: u64,
}

/// A stream of key/value records feeding one map task.
pub trait RecordStream<K, V>: Send {
    /// Apply `f` to every record in order. `f` may abort the stream by
    /// returning an error, which is propagated unchanged.
    fn for_each(&mut self, f: &mut dyn FnMut(&K, &V) -> Result<()>) -> Result<()>;

    /// Input-side I/O telemetry, read after the stream is drained.
    fn input_stats(&self) -> InputStats {
        InputStats::default()
    }

    /// Predicted cost of draining this stream, in arbitrary but mutually
    /// comparable units (serialized sources report their on-disk byte
    /// size). [`Job::run_streamed`](crate::Job::run_streamed) claims
    /// splits in descending predicted cost (LPT order) so a long
    /// straggler late in arrival order cannot serialize the map phase.
    /// The default of zero keeps arrival order for in-memory sources,
    /// whose splits are size-balanced by construction.
    fn predicted_cost(&self) -> u64 {
        0
    }

    /// A rewindable copy of this stream *before it is drained*, used by
    /// speculative execution to race a backup attempt against a straggling
    /// primary. `None` — the default — means the stream cannot be
    /// re-streamed and the task is never speculated; sources whose splits
    /// are cheap views (borrowed slices, `Arc`-backed runs) return a copy.
    fn try_clone(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// A job input: knows its approximate size and how to split itself into
/// independent record streams, one per map task.
pub trait RecordSource<K, V> {
    /// The per-task stream type.
    type Split: RecordStream<K, V>;

    /// Approximate record count, used to choose the map task count.
    fn len_hint(&self) -> usize;

    /// Partition into exactly `n` streams (some may be empty).
    fn into_splits(self, n: usize) -> Result<Vec<Self::Split>>;
}

// ---------------------------------------------------------------------------
// VecSource: owned records, moved round-robin into the splits.
// ---------------------------------------------------------------------------

/// Source over an owned record vector (the materialized-input path).
pub struct VecSource<K, V> {
    records: Vec<(K, V)>,
}

impl<K, V> VecSource<K, V> {
    /// Wrap an owned record vector.
    pub fn new(records: Vec<(K, V)>) -> Self {
        VecSource { records }
    }
}

/// Stream over an owned chunk of a [`VecSource`].
pub struct VecStream<K, V> {
    records: Vec<(K, V)>,
}

impl<K: Send + Sync, V: Send + Sync> RecordStream<K, V> for VecStream<K, V> {
    fn for_each(&mut self, f: &mut dyn FnMut(&K, &V) -> Result<()>) -> Result<()> {
        for (k, v) in &self.records {
            f(k, v)?;
        }
        Ok(())
    }
}

impl<K: Send + Sync, V: Send + Sync> RecordSource<K, V> for VecSource<K, V> {
    type Split = VecStream<K, V>;

    fn len_hint(&self) -> usize {
        self.records.len()
    }

    fn into_splits(self, n: usize) -> Result<Vec<VecStream<K, V>>> {
        let n = n.max(1);
        // Round-robin so long documents spread evenly across tasks.
        let mut chunks: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
        for (i, kv) in self.records.into_iter().enumerate() {
            chunks[i % n].push(kv);
        }
        Ok(chunks
            .into_iter()
            .map(|records| VecStream { records })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// SliceSource: borrowed records, streamed in strides — zero copies.
// ---------------------------------------------------------------------------

/// Source borrowing a record slice; splits stride over it without cloning.
///
/// This is the input of choice for iterative drivers: the APRIORI loops run
/// one job per n-gram length over the *same* corpus, and a `SliceSource`
/// per round shares the records in place where the materialized path used
/// to clone the full input every iteration.
pub struct SliceSource<'a, K, V> {
    records: &'a [(K, V)],
}

impl<'a, K, V> SliceSource<'a, K, V> {
    /// Borrow a record slice.
    pub fn new(records: &'a [(K, V)]) -> Self {
        SliceSource { records }
    }
}

/// Strided borrowing stream over a [`SliceSource`].
pub struct SliceStream<'a, K, V> {
    records: &'a [(K, V)],
    offset: usize,
    stride: usize,
}

impl<K: Send + Sync, V: Send + Sync> RecordStream<K, V> for SliceStream<'_, K, V> {
    fn for_each(&mut self, f: &mut dyn FnMut(&K, &V) -> Result<()>) -> Result<()> {
        let mut i = self.offset;
        while i < self.records.len() {
            let (k, v) = &self.records[i];
            f(k, v)?;
            i += self.stride;
        }
        Ok(())
    }

    fn try_clone(&self) -> Option<Self> {
        Some(SliceStream {
            records: self.records,
            offset: self.offset,
            stride: self.stride,
        })
    }
}

impl<'a, K: Send + Sync, V: Send + Sync> RecordSource<K, V> for SliceSource<'a, K, V> {
    type Split = SliceStream<'a, K, V>;

    fn len_hint(&self) -> usize {
        self.records.len()
    }

    fn into_splits(self, n: usize) -> Result<Vec<SliceStream<'a, K, V>>> {
        let n = n.max(1);
        Ok((0..n)
            .map(|offset| SliceStream {
                records: self.records,
                offset,
                stride: n,
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// RunRecordSource: serialized runs, the job-chaining input.
// ---------------------------------------------------------------------------

/// Source over serialized [`Run`]s — the output of a previous job's
/// [`RunSinkFactory`](crate::RunSinkFactory) — deserializing records one at
/// a time. Whole runs are distributed round-robin across splits, so a
/// chained job's peak memory is one record per map task plus the runs'
/// backing (which is on disk in spill-to-disk mode).
pub struct RunRecordSource<K, V> {
    runs: Vec<Run>,
    records: u64,
    /// Keeps a spill directory alive while the runs are being read.
    _temp: Option<Arc<TempDir>>,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: Writable, V: Writable> RunRecordSource<K, V> {
    /// Wrap a set of runs; `temp` (if any) is held until the source and all
    /// of its splits are dropped.
    pub fn new(runs: Vec<Run>, temp: Option<Arc<TempDir>>) -> Self {
        let records = runs.iter().map(|r| r.records).sum();
        RunRecordSource {
            runs,
            records,
            _temp: temp,
            _marker: std::marker::PhantomData,
        }
    }

    /// Total record count across all runs.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Deserializing stream over a subset of runs.
pub struct RunStream<K, V> {
    runs: Vec<Run>,
    _temp: Option<Arc<TempDir>>,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V> RecordStream<K, V> for RunStream<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    fn for_each(&mut self, f: &mut dyn FnMut(&K, &V) -> Result<()>) -> Result<()> {
        for_each_run_record::<K, V>(&self.runs, |k, v| f(&k, &v))
    }

    fn input_stats(&self) -> InputStats {
        InputStats {
            bytes_read: self.runs.iter().map(|r| r.bytes).sum(),
            raw_bytes: self.runs.iter().map(|r| r.raw_bytes).sum(),
            blocks_read: self.runs.len() as u64,
            // The run is the block unit of this source (`blocks_read`
            // counts runs), and an in-memory run's backing is resident in
            // full while it is read — so the peak input unit is the
            // largest single run, not zero. (File-backed runs are only
            // buffer-resident, making this an upper bound there.)
            peak_block_bytes: self.runs.iter().map(|r| r.bytes).max().unwrap_or(0),
        }
    }

    fn predicted_cost(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes).sum()
    }

    fn try_clone(&self) -> Option<Self> {
        Some(RunStream {
            runs: self.runs.clone(),
            _temp: self._temp.clone(),
            _marker: std::marker::PhantomData,
        })
    }
}

impl<K, V> RecordSource<K, V> for RunRecordSource<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    type Split = RunStream<K, V>;

    fn len_hint(&self) -> usize {
        usize::try_from(self.records).unwrap_or(usize::MAX)
    }

    fn into_splits(self, n: usize) -> Result<Vec<RunStream<K, V>>> {
        let n = n.max(1);
        let mut groups: Vec<Vec<Run>> = (0..n).map(|_| Vec::new()).collect();
        for (i, run) in self.runs.into_iter().enumerate() {
            groups[i % n].push(run);
        }
        Ok(groups
            .into_iter()
            .map(|runs| RunStream {
                runs,
                _temp: self._temp.clone(),
                _marker: std::marker::PhantomData,
            })
            .collect())
    }
}

/// Stream every record of `runs` through `f`, deserializing one at a time
/// (a single-threaded convenience for drivers pumping a finished job's
/// output into the next stage or an output sink).
pub fn for_each_run_record<K, V>(runs: &[Run], mut f: impl FnMut(K, V) -> Result<()>) -> Result<()>
where
    K: Writable,
    V: Writable,
{
    let mut key_buf = Vec::new();
    let mut val_buf = Vec::new();
    for run in runs {
        let mut reader = run.reader()?;
        while reader.next_into(&mut key_buf, &mut val_buf)? {
            let k = K::read_from(&mut ByteReader::new(&key_buf))?;
            let v = V::read_from(&mut ByteReader::new(&val_buf))?;
            f(k, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunWriter;
    use crate::to_bytes;

    fn collect<K: Clone, V: Clone>(mut s: impl RecordStream<K, V>) -> Vec<(K, V)> {
        let mut out = Vec::new();
        s.for_each(&mut |k, v| {
            out.push((k.clone(), v.clone()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn vec_source_round_robins_all_records() {
        let records: Vec<(u32, u64)> = (0..10).map(|i| (i, u64::from(i) * 2)).collect();
        let source = VecSource::new(records.clone());
        assert_eq!(source.len_hint(), 10);
        let splits = source.into_splits(3).unwrap();
        assert_eq!(splits.len(), 3);
        let mut all: Vec<(u32, u64)> = splits.into_iter().flat_map(collect).collect();
        all.sort();
        assert_eq!(all, records);
    }

    #[test]
    fn slice_source_streams_without_clone() {
        let records: Vec<(u32, u64)> = (0..7).map(|i| (i, 1)).collect();
        let splits = SliceSource::new(&records).into_splits(2).unwrap();
        let mut all: Vec<(u32, u64)> = splits.into_iter().flat_map(collect).collect();
        all.sort();
        assert_eq!(all, records);
    }

    #[test]
    fn slice_and_vec_sources_agree_on_split_assignment() {
        // Record i must land in split i % n for both, preserving the
        // engine's historical round-robin placement.
        let records: Vec<(u32, u64)> = (0..9).map(|i| (i, 0)).collect();
        let vec_splits = VecSource::new(records.clone()).into_splits(4).unwrap();
        let slice_splits = SliceSource::new(&records).into_splits(4).unwrap();
        for (a, b) in vec_splits.into_iter().zip(slice_splits) {
            assert_eq!(collect(a), collect(b));
        }
    }

    #[test]
    fn run_source_deserializes_all_records() {
        let mut w = RunWriter::mem();
        let records: Vec<(u32, u64)> = (0..25).map(|i| (i, u64::from(i) + 100)).collect();
        for (k, v) in &records {
            w.write_record(&to_bytes(k), &to_bytes(v)).unwrap();
        }
        let run = w.finish().unwrap();
        let source = RunRecordSource::<u32, u64>::new(vec![run], None);
        assert_eq!(source.records(), 25);
        assert_eq!(source.len_hint(), 25);
        let splits = source.into_splits(4).unwrap();
        assert_eq!(splits.len(), 4);
        let mut all: Vec<(u32, u64)> = splits.into_iter().flat_map(collect).collect();
        all.sort();
        assert_eq!(all, records);
    }

    #[test]
    fn for_each_run_record_streams_in_order() {
        let mut w = RunWriter::mem();
        for i in 0..5u32 {
            w.write_record(&to_bytes(&i), &to_bytes(&(u64::from(i))))
                .unwrap();
        }
        let runs = vec![w.finish().unwrap()];
        let mut got = Vec::new();
        for_each_run_record::<u32, u64>(&runs, |k, v| {
            got.push((k, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, (0..5).map(|i| (i, u64::from(i))).collect::<Vec<_>>());
    }

    #[test]
    fn stream_abort_propagates_error() {
        let records = vec![(1u32, 1u64), (2, 2), (3, 3)];
        let mut splits = SliceSource::new(&records).into_splits(1).unwrap();
        let mut seen = 0;
        let err = splits[0].for_each(&mut |_, _| {
            seen += 1;
            if seen == 2 {
                Err(crate::MrError::Config("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 2, "stream must stop at the first error");
    }
}
