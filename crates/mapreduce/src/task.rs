//! The user-facing programming model: `Mapper`, `Reducer`, and the contexts
//! through which they emit records — the Rust rendition of
//! `map(): (k1,v1) -> list<(k2,v2)>` and
//! `reduce(): (k2, list<v2>) -> list<(k3,v3)>` from the paper's §II-B.

use crate::buffer::MapOutputCollector;
use crate::counters::{Counter, Counters};
use crate::error::Result;
use crate::io::Writable;
use crate::partition::Partitioner;
use crate::values::ValueIter;

/// A map function with per-task state.
///
/// One instance is created per map task (via the job's mapper factory), so
/// implementations may carry scratch buffers or local aggregation state;
/// `cleanup` runs after the last input record, mirroring Hadoop's
/// `Mapper.cleanup`.
pub trait Mapper: Send {
    /// Input key type (not serialized; input splits stay typed).
    type InKey: Send + Sync;
    /// Input value type.
    type InValue: Send + Sync;
    /// Intermediate key type; serialized into the shuffle.
    type OutKey: Writable + Send;
    /// Intermediate value type; serialized into the shuffle.
    type OutValue: Writable + Send;

    /// Process one input record.
    fn map(
        &mut self,
        key: &Self::InKey,
        value: &Self::InValue,
        ctx: &mut MapContext<'_, Self::OutKey, Self::OutValue>,
    );

    /// Called once after all records of the task's split were mapped.
    fn cleanup(&mut self, _ctx: &mut MapContext<'_, Self::OutKey, Self::OutValue>) {}
}

/// A reduce function with per-task state.
///
/// One instance per reduce task. `reduce` is invoked once per key group in
/// sort order; `cleanup` once afterwards (SUFFIX-σ uses it to flush its
/// stacks, exactly like the paper's `cleanup()`).
pub trait Reducer: Send {
    /// Intermediate key type (must match the mapper's `OutKey`).
    type Key: Writable + Send;
    /// Intermediate value type (must match the mapper's `OutValue`).
    type ValueIn: Writable + Send;
    /// Final output key type.
    type KeyOut: Writable + Send;
    /// Final output value type.
    type ValueOut: Writable + Send;

    /// Process one key group.
    fn reduce(
        &mut self,
        key: Self::Key,
        values: &mut ValueIter<'_, Self::ValueIn>,
        ctx: &mut ReduceContext<'_, Self::KeyOut, Self::ValueOut>,
    );

    /// Called once after the last group.
    fn cleanup(&mut self, _ctx: &mut ReduceContext<'_, Self::KeyOut, Self::ValueOut>) {}
}

/// A combiner is a reducer whose input and output types coincide with the
/// map output types; it runs at every spill (Hadoop's combine-on-spill).
pub type BoxedCombiner<K, V> =
    Box<dyn Reducer<Key = K, ValueIn = V, KeyOut = K, ValueOut = V> + Send>;

/// Destination for reducer/combiner output records.
pub trait RecordSink<K, V> {
    /// Accept one output record.
    fn push(&mut self, k: K, v: V);
}

/// Sink collecting typed records into a vector (the reduce output path).
pub struct VecSink<K, V> {
    /// Collected records.
    pub out: Vec<(K, V)>,
}

impl<K, V> RecordSink<K, V> for VecSink<K, V> {
    #[inline]
    fn push(&mut self, k: K, v: V) {
        self.out.push((k, v));
    }
}

/// Context passed to `Mapper::map` for emitting intermediate records.
pub struct MapContext<'a, K: Writable + Send + 'static, V: Writable + Send + 'static> {
    pub(crate) collector: &'a mut MapOutputCollector<K, V>,
    pub(crate) partitioner: &'a dyn Partitioner<K>,
    pub(crate) num_partitions: usize,
    pub(crate) counters: &'a Counters,
    pub(crate) error: Option<crate::error::MrError>,
}

impl<K: Writable + Send + 'static, V: Writable + Send + 'static> MapContext<'_, K, V> {
    /// Emit one intermediate record. Serialization happens immediately;
    /// `MAP_OUTPUT_RECORDS` / `MAP_OUTPUT_BYTES` are incremented here,
    /// before any combining, matching Hadoop's counter semantics.
    #[inline]
    pub fn emit(&mut self, key: &K, value: &V) {
        if self.error.is_some() {
            return;
        }
        let p = self.partitioner.partition(key, self.num_partitions);
        debug_assert!(p < self.num_partitions, "partitioner out of range");
        if let Err(e) = self.collector.emit(p, key, value) {
            self.error = Some(e);
        }
    }

    /// Access job counters (for user counters).
    #[inline]
    pub fn counters(&self) -> &Counters {
        self.counters
    }

    pub(crate) fn take_error(&mut self) -> Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Context passed to `Reducer::reduce` (and combiners) for emitting output.
pub struct ReduceContext<'a, K, V> {
    sink: &'a mut dyn RecordSink<K, V>,
    counters: &'a Counters,
    out_counter: Counter,
}

impl<'a, K, V> ReduceContext<'a, K, V> {
    pub(crate) fn new(
        sink: &'a mut dyn RecordSink<K, V>,
        counters: &'a Counters,
        out_counter: Counter,
    ) -> Self {
        ReduceContext {
            sink,
            counters,
            out_counter,
        }
    }

    /// Emit one output record.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.counters.inc(self.out_counter);
        self.sink.push(key, value);
    }

    /// Access job counters (for user counters).
    #[inline]
    pub fn counters(&self) -> &Counters {
        self.counters
    }
}
