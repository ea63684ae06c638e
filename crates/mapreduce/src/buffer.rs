//! The map-side sort buffer: a record arena per partition, spilled as sorted
//! runs when the configured budget is exceeded.
//!
//! This mirrors Hadoop's `MapOutputBuffer`: records are serialized once at
//! `emit`, sorted *as bytes* through a [`RawComparator`] over an offset
//! array (no deserialization, no per-record allocation), optionally fed
//! through a combiner at each spill, and written out as runs.

use crate::comparator::RawComparator;
use crate::counters::{Counter, Counters};
use crate::error::Result;
use crate::io::Writable;
use crate::run::{Run, RunCodec, RunWriter, TempDir};
use crate::task::{BoxedCombiner, RecordSink, ReduceContext, Reducer};
use crate::values::ValueIter;
use std::sync::Arc;
use std::time::Instant;

/// Offsets of one record inside a [`RecordArena`], plus the cached
/// order-consistent key digest ([`RawComparator::sort_prefix`]) filled in
/// at sort time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecMeta {
    pub key_start: u32,
    pub key_end: u32,
    pub val_end: u32,
    /// `sort_prefix` digest of the key; `0` until [`RecordArena::sort`].
    pub prefix: u64,
}

/// Contiguous byte arena holding serialized records plus an offset array.
#[derive(Default)]
pub(crate) struct RecordArena {
    pub data: Vec<u8>,
    pub meta: Vec<RecMeta>,
}

impl RecordArena {
    /// Serialize one record into the arena; returns (key_len, val_len).
    fn append<K: Writable, V: Writable>(&mut self, k: &K, v: &V) -> (usize, usize) {
        let key_start = self.data.len();
        k.write_to(&mut self.data);
        let key_end = self.data.len();
        v.write_to(&mut self.data);
        let val_end = self.data.len();
        debug_assert!(val_end <= u32::MAX as usize, "arena exceeds 4 GiB");
        self.meta.push(RecMeta {
            key_start: key_start as u32,
            key_end: key_end as u32,
            val_end: val_end as u32,
            prefix: 0,
        });
        (key_end - key_start, val_end - key_end)
    }

    #[inline]
    pub(crate) fn key(&self, m: &RecMeta) -> &[u8] {
        &self.data[m.key_start as usize..m.key_end as usize]
    }

    #[inline]
    pub(crate) fn val(&self, m: &RecMeta) -> &[u8] {
        &self.data[m.key_end as usize..m.val_end as usize]
    }

    /// Sort the offset array by key. With `prefix_sort`, each record's
    /// [`RawComparator::sort_prefix`] digest is computed once and cached in
    /// its [`RecMeta`], and comparisons resolve on an inline `u64` compare,
    /// falling through to the dyn-dispatch decoding comparator only on
    /// digest ties; without it, every comparison goes through the
    /// comparator (the pre-digest behavior, kept as the bench baseline).
    fn sort(&mut self, cmp: &dyn RawComparator, prefix_sort: bool) {
        let data = &self.data;
        if prefix_sort {
            for m in &mut self.meta {
                m.prefix = cmp.sort_prefix(&data[m.key_start as usize..m.key_end as usize]);
            }
            self.meta.sort_unstable_by(|a, b| {
                a.prefix.cmp(&b.prefix).then_with(|| {
                    cmp.compare(
                        &data[a.key_start as usize..a.key_end as usize],
                        &data[b.key_start as usize..b.key_end as usize],
                    )
                })
            });
        } else {
            self.meta.sort_unstable_by(|a, b| {
                cmp.compare(
                    &data[a.key_start as usize..a.key_end as usize],
                    &data[b.key_start as usize..b.key_end as usize],
                )
            });
        }
    }

    fn clear(&mut self) {
        self.data.clear();
        self.meta.clear();
    }

    fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    fn bytes(&self) -> usize {
        self.data.len() + self.meta.len() * std::mem::size_of::<RecMeta>()
    }
}

/// Factory producing a fresh combiner instance for each spill.
pub type CombinerFactory<K, V> = Arc<dyn Fn() -> BoxedCombiner<K, V> + Send + Sync>;

/// Shuffle-relevant knobs of one map task's collector, extracted from the
/// job configuration.
#[derive(Debug)]
pub(crate) struct CollectorConfig {
    pub sort_buffer_bytes: usize,
    pub spill_to_disk: bool,
    /// Codec spill runs are encoded with.
    pub run_codec: RunCodec,
    /// Cache `sort_prefix` digests and compare them inline before falling
    /// back to the raw comparator.
    pub prefix_sort: bool,
    /// Injected-fault schedule (spill EIO, read-side frame corruption),
    /// propagated into every run this collector seals.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
}

/// Per-map-task output collector.
pub(crate) struct MapOutputCollector<K, V>
where
    K: Writable + Send,
    V: Writable + Send,
{
    arenas: Vec<RecordArena>,
    runs: Vec<Vec<Run>>,
    config: CollectorConfig,
    temp: Option<Arc<TempDir>>,
    cmp: Arc<dyn RawComparator>,
    combiner_f: Option<CombinerFactory<K, V>>,
    counters: Arc<Counters>,
}

impl<K, V> MapOutputCollector<K, V>
where
    K: Writable + Send,
    V: Writable + Send,
{
    pub(crate) fn new(
        num_partitions: usize,
        config: CollectorConfig,
        temp: Option<Arc<TempDir>>,
        cmp: Arc<dyn RawComparator>,
        combiner_f: Option<CombinerFactory<K, V>>,
        counters: Arc<Counters>,
    ) -> Self {
        MapOutputCollector {
            arenas: (0..num_partitions)
                .map(|_| RecordArena::default())
                .collect(),
            runs: (0..num_partitions).map(|_| Vec::new()).collect(),
            config,
            temp,
            cmp,
            combiner_f,
            counters,
        }
    }

    /// Serialize and collect one record for `partition`.
    pub(crate) fn emit(&mut self, partition: usize, k: &K, v: &V) -> Result<()> {
        let (klen, vlen) = self.arenas[partition].append(k, v);
        self.counters.inc(Counter::MapOutputRecords);
        self.counters
            .add(Counter::MapOutputBytes, (klen + vlen) as u64);
        if self.buffered_bytes() > self.config.sort_buffer_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn buffered_bytes(&self) -> usize {
        self.arenas.iter().map(RecordArena::bytes).sum()
    }

    /// Sort, combine and write out every non-empty arena as one run each.
    fn spill(&mut self) -> Result<()> {
        self.counters.inc(Counter::Spills);
        for (arena, runs) in self.arenas.iter_mut().zip(&mut self.runs) {
            if arena.is_empty() {
                continue;
            }
            let run = spill_arena(
                arena,
                &self.config,
                self.temp.as_deref(),
                self.cmp.as_ref(),
                self.combiner_f.as_deref(),
                &self.counters,
            )?;
            if !run.is_empty() {
                runs.push(run);
            }
        }
        Ok(())
    }

    /// Final spill; returns the per-partition runs of this map task.
    pub(crate) fn finish(mut self) -> Result<Vec<Vec<Run>>> {
        if self.arenas.iter().any(|a| !a.is_empty()) {
            self.spill()?;
        }
        Ok(self.runs)
    }
}

/// Sort one arena, run the combiner over its groups (when configured),
/// and write it out as a sealed run. The arena is left empty, keeping its
/// allocation for reuse.
fn spill_arena<K, V>(
    arena: &mut RecordArena,
    config: &CollectorConfig,
    temp: Option<&TempDir>,
    cmp: &dyn RawComparator,
    combiner_f: Option<&(dyn Fn() -> BoxedCombiner<K, V> + Send + Sync)>,
    counters: &Counters,
) -> Result<Run>
where
    K: Writable + Send,
    V: Writable + Send,
{
    let sort_started = Instant::now();
    arena.sort(cmp, config.prefix_sort);
    counters.add(
        Counter::MapSortNanos,
        sort_started.elapsed().as_nanos() as u64,
    );
    if let Some(plan) = &config.fault {
        plan.check_spill_write()?;
    }
    let mut writer = if config.spill_to_disk {
        RunWriter::file_codec(
            temp.expect("spill_to_disk requires a temp dir"),
            config.run_codec,
        )?
    } else {
        RunWriter::mem_codec(config.run_codec)
    };
    match combiner_f {
        Some(f) => {
            let mut combiner = f();
            combine_into(arena, cmp, combiner.as_mut(), &mut writer, counters)?;
        }
        None => {
            for m in &arena.meta {
                writer.write_record(arena.key(m), arena.val(m))?;
            }
        }
    }
    let mut run = writer.finish()?;
    run.fault = config.fault.clone();
    counters.add(Counter::ShuffleBytes, run.bytes);
    counters.add(Counter::RawRunBytes, run.raw_bytes);
    counters.add(Counter::EncodedRunBytes, run.bytes);
    arena.clear();
    Ok(run)
}

/// Sink that serializes combiner output straight into a run writer.
struct CombineSink<'a> {
    writer: &'a mut RunWriter,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    error: Option<crate::error::MrError>,
}

impl<K: Writable, V: Writable> RecordSink<K, V> for CombineSink<'_> {
    fn push(&mut self, k: K, v: V) {
        self.key_buf.clear();
        self.val_buf.clear();
        k.write_to(&mut self.key_buf);
        v.write_to(&mut self.val_buf);
        if let Err(e) = self.writer.write_record(&self.key_buf, &self.val_buf) {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }
}

/// Run `combiner` over the sorted groups of `arena`, writing its output.
///
/// Combiners must emit keys equal (under the job's sort order) to the group
/// key they received — the same contract Hadoop imposes — so that runs stay
/// sorted; this is checked in debug builds.
fn combine_into<K: Writable + Send, V: Writable + Send>(
    arena: &RecordArena,
    cmp: &dyn RawComparator,
    combiner: &mut (dyn Reducer<Key = K, ValueIn = V, KeyOut = K, ValueOut = V> + Send),
    writer: &mut RunWriter,
    counters: &Counters,
) -> Result<()> {
    let metas = &arena.meta;
    let mut sink = CombineSink {
        writer,
        key_buf: Vec::new(),
        val_buf: Vec::new(),
        error: None,
    };
    let mut i = 0;
    while i < metas.len() {
        let group_key = arena.key(&metas[i]);
        let mut j = i + 1;
        while j < metas.len() && cmp.compare(arena.key(&metas[j]), group_key).is_eq() {
            j += 1;
        }
        let key = K::read_from(&mut crate::io::ByteReader::new(group_key))?;
        {
            let mut values = ValueIter::<V>::arena(&arena.data, &metas[i..j]);
            let mut ctx = ReduceContext::new(&mut sink, counters, Counter::CombineOutputRecords);
            combiner.reduce(key, &mut values, &mut ctx);
            values.finish()?;
        }
        counters.add(Counter::CombineInputRecords, (j - i) as u64);
        i = j;
    }
    if let Some(e) = sink.error {
        return Err(e);
    }
    Ok(())
}
