//! Record sinks: where a job's reduce output goes.
//!
//! [`Job::run_streamed`](crate::Job::run_streamed) creates one
//! [`RecordSink`](crate::RecordSink) per reduce task through a
//! [`RecordSinkFactory`] and seals it into a per-task *artifact* when the
//! task finishes. The factory choice decides the job's memory profile:
//!
//! * [`VecSinkFactory`] — collect typed records per partition (the
//!   materialized `Job::run` path);
//! * [`RunSinkFactory`] — serialize records into [`Run`]s (in memory or on
//!   disk), ready to feed a chained job through
//!   [`RunRecordSource`](crate::RunRecordSource) without ever forming a
//!   `Vec<(K, V)>`;
//! * [`WriterSinkFactory`] — format records as text and stream them to a
//!   shared writer *during* reduce (the CLI's `--out` path);
//! * [`CountingSinkFactory`] — discard records, keep a count (tests,
//!   dry runs).
//!
//! Sinks swallow I/O errors at `push` time (the [`RecordSink`] contract is
//! infallible, because combiners share it) and surface them when sealed.

use crate::error::{MrError, Result};
use crate::io::Writable;
use crate::run::{Run, RunCodec, RunWriter, TempDir};
use crate::task::{RecordSink, VecSink};
use parking_lot::Mutex;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Creates one sink per reduce task and seals finished sinks into
/// per-partition artifacts.
pub trait RecordSinkFactory<K, V>: Sync {
    /// The per-task sink type.
    type Sink: RecordSink<K, V> + Send;
    /// What a sealed sink leaves behind (records, a run, a count, …).
    type Artifact: Send;

    /// Create the sink of reduce task `partition`.
    fn make(&self, partition: usize) -> Result<Self::Sink>;

    /// Seal a finished sink, surfacing any deferred write error.
    fn seal(&self, partition: usize, sink: Self::Sink) -> Result<Self::Artifact>;

    /// Durably persist a sealed artifact under the job's checkpoint
    /// manifest directory, returning the bytes written. `Ok(None)` — the
    /// default — means this sink kind does not checkpoint its output and
    /// the partition is simply re-run on resume (the writer sink's shared
    /// output stream, for instance, is rebuilt from scratch anyway).
    fn checkpoint(
        &self,
        _partition: usize,
        _artifact: &Self::Artifact,
        _dir: &std::path::Path,
    ) -> Result<Option<u64>> {
        Ok(None)
    }

    /// Reopen the artifact [`RecordSinkFactory::checkpoint`] persisted for
    /// `partition`, if this sink kind supports it and the files are intact.
    /// `Ok(None)` means "nothing restorable — re-run the partition".
    fn restore(&self, _partition: usize, _dir: &std::path::Path) -> Result<Option<Self::Artifact>> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// VecSinkFactory
// ---------------------------------------------------------------------------

/// Factory collecting typed records into one vector per reduce task.
pub struct VecSinkFactory<K, V> {
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V> Default for VecSinkFactory<K, V> {
    fn default() -> Self {
        VecSinkFactory {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K: Send, V: Send> RecordSinkFactory<K, V> for VecSinkFactory<K, V> {
    type Sink = VecSink<K, V>;
    type Artifact = Vec<(K, V)>;

    fn make(&self, _partition: usize) -> Result<VecSink<K, V>> {
        Ok(VecSink { out: Vec::new() })
    }

    fn seal(&self, _partition: usize, sink: VecSink<K, V>) -> Result<Vec<(K, V)>> {
        Ok(sink.out)
    }
}

// ---------------------------------------------------------------------------
// RunSinkFactory
// ---------------------------------------------------------------------------

/// Factory serializing reduce output into one [`Run`] per task — the job
/// boundary of a chained pipeline. With spilling enabled the records go to
/// files in a temporary directory, bounding chained-job state by buffers.
pub struct RunSinkFactory<K, V> {
    spill_to_disk: bool,
    temp: Option<Arc<TempDir>>,
    codec: RunCodec,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: Writable, V: Writable> RunSinkFactory<K, V> {
    /// In-memory runs.
    pub fn mem() -> Self {
        RunSinkFactory {
            spill_to_disk: false,
            temp: None,
            codec: RunCodec::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// File-backed runs inside `temp`.
    pub fn disk(temp: Arc<TempDir>) -> Self {
        RunSinkFactory {
            spill_to_disk: true,
            temp: Some(temp),
            codec: RunCodec::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Encode the produced runs with `codec` (keys arrive in reduce
    /// output order, so front coding pays off whenever consecutive keys
    /// share prefixes — e.g. job-chained n-gram streams).
    pub fn codec(mut self, codec: RunCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Mirror a job's spill configuration: file-backed when
    /// `spill_to_disk`, in-memory otherwise.
    pub fn with_spill(spill_to_disk: bool, base: Option<&std::path::Path>) -> Result<Self> {
        if spill_to_disk {
            Ok(Self::disk(Arc::new(TempDir::create(base)?)))
        } else {
            Ok(Self::mem())
        }
    }

    /// The spill directory, if file-backed. Hand this to the
    /// [`RunRecordSource`](crate::RunRecordSource) consuming the runs so
    /// the directory outlives the readers.
    pub fn temp(&self) -> Option<Arc<TempDir>> {
        self.temp.clone()
    }
}

/// Sink serializing records into one run; errors are deferred to `seal`.
pub struct RunSink<K, V> {
    writer: Option<RunWriter>,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    error: Option<MrError>,
    _marker: std::marker::PhantomData<fn(K, V)>,
}

impl<K: Writable, V: Writable> RecordSink<K, V> for RunSink<K, V> {
    fn push(&mut self, k: K, v: V) {
        if self.error.is_some() {
            return;
        }
        self.key_buf.clear();
        self.val_buf.clear();
        k.write_to(&mut self.key_buf);
        v.write_to(&mut self.val_buf);
        let writer = self.writer.as_mut().expect("sink sealed twice");
        if let Err(e) = writer.write_record(&self.key_buf, &self.val_buf) {
            self.error = Some(e);
        }
    }
}

impl<K, V> RecordSinkFactory<K, V> for RunSinkFactory<K, V>
where
    K: Writable + Send,
    V: Writable + Send,
{
    type Sink = RunSink<K, V>;
    type Artifact = Run;

    fn make(&self, _partition: usize) -> Result<RunSink<K, V>> {
        let writer = if self.spill_to_disk {
            RunWriter::file_codec(
                self.temp.as_ref().expect("disk sink requires a temp dir"),
                self.codec,
            )?
        } else {
            RunWriter::mem_codec(self.codec)
        };
        Ok(RunSink {
            writer: Some(writer),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            error: None,
            _marker: std::marker::PhantomData,
        })
    }

    fn seal(&self, _partition: usize, mut sink: RunSink<K, V>) -> Result<Run> {
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        sink.writer.take().expect("sink sealed twice").finish()
    }

    /// Persist the sealed run as `reduce-NNN.run` plus a CRC-guarded
    /// `reduce-NNN.meta` descriptor — what lets chained (APRIORI) jobs
    /// resume with their intermediate reduce output intact.
    fn checkpoint(
        &self,
        partition: usize,
        artifact: &Run,
        dir: &std::path::Path,
    ) -> Result<Option<u64>> {
        let rel = format!("reduce-{partition:03}.run");
        let mut bytes = artifact.persist_to(&dir.join(&rel))?;
        bytes += crate::checkpoint::write_record_file(
            &dir.join(format!("reduce-{partition:03}.meta")),
            &[format!(
                "run\t{rel}\t{}\t{}\t{}\t{}",
                artifact.records,
                artifact.bytes,
                artifact.raw_bytes,
                artifact.codec.name()
            )],
        )?;
        Ok(Some(bytes))
    }

    fn restore(&self, partition: usize, dir: &std::path::Path) -> Result<Option<Run>> {
        let meta = dir.join(format!("reduce-{partition:03}.meta"));
        if !meta.is_file() {
            return Ok(None);
        }
        let lines = crate::checkpoint::read_record_file(&meta)?;
        let bad = || MrError::Config(format!("malformed reduce meta {}", meta.display()));
        let line = lines.first().ok_or_else(bad)?;
        let fields: Vec<&str> = line.split('\t').collect();
        let ["run", rel, records, bytes, raw_bytes, codec] = fields[..] else {
            return Err(bad());
        };
        let path = dir.join(rel);
        if !path.is_file() {
            return Err(MrError::Config(format!(
                "reduce meta references missing run file {rel}"
            )));
        }
        Ok(Some(Run::from_file(
            path,
            records.parse().map_err(|_| bad())?,
            bytes.parse().map_err(|_| bad())?,
            raw_bytes.parse().map_err(|_| bad())?,
            RunCodec::parse(codec).ok_or_else(bad)?,
        )))
    }
}

// ---------------------------------------------------------------------------
// WriterSinkFactory
// ---------------------------------------------------------------------------

/// How many formatted bytes a writer sink buffers in memory before
/// overflowing to its private spool file.
const WRITER_SINK_FLUSH_BYTES: usize = 64 * 1024;

/// Process-unique sequence for spool-file names.
static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Private overflow file of one [`WriterSink`]: formatted bytes beyond the
/// in-memory budget accumulate here instead of escaping to the shared
/// writer mid-task, so a failed (and retried) reduce attempt leaves no
/// partial output behind — the spool is simply dropped, which removes the
/// file.
struct Spool {
    path: std::path::PathBuf,
    file: std::io::BufWriter<std::fs::File>,
}

impl Spool {
    fn create() -> Result<Spool> {
        let path = std::env::temp_dir().join(format!(
            "mr-writer-spool-{}-{}.spool",
            std::process::id(),
            SPOOL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::File::create(&path)?;
        Ok(Spool {
            path,
            file: std::io::BufWriter::new(file),
        })
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

struct SharedWriter {
    /// Held for the whole of one sink's seal-time publish, so the spool's
    /// arbitrary-boundary chunks of different partitions never interleave
    /// mid-record in the shared output.
    writer: Mutex<Box<dyn Write + Send>>,
    records: AtomicU64,
}

/// Factory streaming formatted records to one shared writer. Each sink
/// buffers in memory, overflows to a private spool file, and publishes
/// everything to the shared writer only when its task is *sealed* — so a
/// failed reduce attempt contributes no partial output and a retried task
/// writes exactly once. Each partition's output is contiguous, but
/// partitions appear in task completion order — callers needing a global
/// order must sort downstream.
pub struct WriterSinkFactory<K, V, F>
where
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    shared: Arc<SharedWriter>,
    format: Arc<F>,
    _marker: std::marker::PhantomData<fn(K, V)>,
}

impl<K, V, F> WriterSinkFactory<K, V, F>
where
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    /// Stream records through `format` into `writer`, writing on the
    /// reduce threads.
    pub fn new(writer: Box<dyn Write + Send>, format: F) -> Self {
        WriterSinkFactory {
            shared: Arc::new(SharedWriter {
                writer: Mutex::new(writer),
                records: AtomicU64::new(0),
            }),
            format: Arc::new(format),
            _marker: std::marker::PhantomData,
        }
    }

    /// Total records written across all sealed sinks.
    pub fn records(&self) -> u64 {
        self.shared.records.load(Ordering::Relaxed)
    }

    /// Flush the underlying writer (call after the last job completes).
    pub fn flush(&self) -> Result<()> {
        self.shared.writer.lock().flush()?;
        Ok(())
    }
}

/// Per-task sink of a [`WriterSinkFactory`]; buffers locally (memory,
/// then a private spool file) and publishes at seal time.
pub struct WriterSink<K, V, F>
where
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    shared: Arc<SharedWriter>,
    format: Arc<F>,
    buf: Vec<u8>,
    /// Overflow spool, created lazily at the first full buffer. Dropping
    /// the sink unsealed (failed attempt) removes the file.
    spool: Option<Spool>,
    records: u64,
    error: Option<MrError>,
    _marker: std::marker::PhantomData<fn(K, V)>,
}

impl<K, V, F> WriterSink<K, V, F>
where
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    fn spill_to_spool(&mut self) -> Result<()> {
        if self.spool.is_none() {
            self.spool = Some(Spool::create()?);
        }
        let spool = self.spool.as_mut().expect("spool was just created");
        spool.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

impl<K, V, F> RecordSink<K, V> for WriterSink<K, V, F>
where
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    fn push(&mut self, k: K, v: V) {
        if self.error.is_some() {
            return;
        }
        (self.format)(&mut self.buf, &k, &v);
        self.records += 1;
        if self.buf.len() >= WRITER_SINK_FLUSH_BYTES {
            if let Err(e) = self.spill_to_spool() {
                self.error = Some(e);
            }
        }
    }
}

impl<K, V, F> RecordSinkFactory<K, V> for WriterSinkFactory<K, V, F>
where
    K: Send,
    V: Send,
    F: Fn(&mut Vec<u8>, &K, &V) + Send + Sync,
{
    type Sink = WriterSink<K, V, F>;
    type Artifact = u64;

    fn make(&self, _partition: usize) -> Result<WriterSink<K, V, F>> {
        Ok(WriterSink {
            shared: Arc::clone(&self.shared),
            format: Arc::clone(&self.format),
            buf: Vec::new(),
            spool: None,
            records: 0,
            error: None,
            _marker: std::marker::PhantomData,
        })
    }

    fn seal(&self, _partition: usize, mut sink: WriterSink<K, V, F>) -> Result<u64> {
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        // Publish spool + tail as one unit: the lock keeps this task's
        // bytes contiguous in the shared output even when other tasks
        // seal concurrently.
        let mut writer = sink.shared.writer.lock();
        if let Some(mut spool) = sink.spool.take() {
            spool.file.flush()?;
            let mut rd = std::fs::File::open(&spool.path)?;
            std::io::copy(&mut rd, &mut *writer)?;
            // `spool` drops here, removing its file.
        }
        writer.write_all(&sink.buf)?;
        drop(writer);
        sink.shared
            .records
            .fetch_add(sink.records, Ordering::Relaxed);
        Ok(sink.records)
    }
}

// ---------------------------------------------------------------------------
// CountingSinkFactory
// ---------------------------------------------------------------------------

/// Factory that discards records and keeps only a total count — proof that
/// a pipeline can terminate without materializing records anywhere.
#[derive(Default)]
pub struct CountingSinkFactory {
    total: AtomicU64,
}

impl CountingSinkFactory {
    /// New factory with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records counted across all sealed sinks.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Per-task sink of a [`CountingSinkFactory`].
pub struct CountingSink {
    records: u64,
}

impl<K, V> RecordSink<K, V> for CountingSink {
    fn push(&mut self, _k: K, _v: V) {
        self.records += 1;
    }
}

impl<K: Send, V: Send> RecordSinkFactory<K, V> for CountingSinkFactory {
    type Sink = CountingSink;
    type Artifact = u64;

    fn make(&self, _partition: usize) -> Result<CountingSink> {
        Ok(CountingSink { records: 0 })
    }

    fn seal(&self, _partition: usize, sink: CountingSink) -> Result<u64> {
        self.total.fetch_add(sink.records, Ordering::Relaxed);
        Ok(sink.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::for_each_run_record;

    #[test]
    fn run_sink_round_trips_records() {
        let factory = RunSinkFactory::<u32, u64>::mem();
        let mut sink = factory.make(0).unwrap();
        for i in 0..10u32 {
            sink.push(i, u64::from(i) * 3);
        }
        let run = factory.seal(0, sink).unwrap();
        assert_eq!(run.records, 10);
        let mut got = Vec::new();
        for_each_run_record::<u32, u64>(std::slice::from_ref(&run), |k, v| {
            got.push((k, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            got,
            (0..10).map(|i| (i, u64::from(i) * 3)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn disk_run_sink_spills_to_temp_dir() {
        let factory = RunSinkFactory::<u32, u64>::with_spill(true, None).unwrap();
        let temp = factory.temp().expect("disk factory has a temp dir");
        let mut sink = factory.make(0).unwrap();
        sink.push(7, 42);
        let run = factory.seal(0, sink).unwrap();
        assert_eq!(run.records, 1);
        assert!(
            std::fs::read_dir(temp.path()).unwrap().count() > 0,
            "run must be a file in the spill dir"
        );
    }

    #[test]
    fn writer_sink_streams_formatted_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
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
        let factory = WriterSinkFactory::new(
            Box::new(Shared(Arc::clone(&buf))),
            |out: &mut Vec<u8>, k: &u32, v: &u64| {
                out.extend_from_slice(format!("{v}\t{k}\n").as_bytes());
            },
        );
        let mut a = factory.make(0).unwrap();
        let mut b = factory.make(1).unwrap();
        a.push(1, 10);
        b.push(2, 20);
        assert_eq!(factory.seal(0, a).unwrap(), 1);
        assert_eq!(factory.seal(1, b).unwrap(), 1);
        factory.flush().unwrap();
        assert_eq!(factory.records(), 2);
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["10\t1", "20\t2"]);
    }

    #[test]
    fn writer_sink_publishes_its_spool_in_push_order() {
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
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let factory = WriterSinkFactory::new(
            Box::new(Shared(Arc::clone(&buf))),
            |out: &mut Vec<u8>, k: &u32, v: &u64| {
                out.extend_from_slice(format!("{v}\t{k}\n").as_bytes());
            },
        );
        let mut sink = factory.make(0).unwrap();
        // Enough bytes to overflow the 64 KiB buffer into the spool
        // several times before the seal publishes it.
        let mut expected = String::new();
        for i in 0..20_000u32 {
            sink.push(i, u64::from(i) * 7);
            expected.push_str(&format!("{}\t{i}\n", u64::from(i) * 7));
        }
        assert!(sink.spool.is_some(), "the task must have spooled");
        assert!(
            buf.lock().is_empty(),
            "nothing is published before the seal"
        );
        assert_eq!(factory.seal(0, sink).unwrap(), 20_000);
        factory.flush().unwrap();
        assert_eq!(factory.records(), 20_000);
        assert_eq!(String::from_utf8(buf.lock().clone()).unwrap(), expected);
    }

    #[test]
    fn counting_sink_totals_across_tasks() {
        let factory = CountingSinkFactory::new();
        let mut a = RecordSinkFactory::<u32, u64>::make(&factory, 0).unwrap();
        let mut b = RecordSinkFactory::<u32, u64>::make(&factory, 1).unwrap();
        RecordSink::<u32, u64>::push(&mut a, 1, 1);
        RecordSink::<u32, u64>::push(&mut a, 2, 2);
        RecordSink::<u32, u64>::push(&mut b, 3, 3);
        assert_eq!(
            RecordSinkFactory::<u32, u64>::seal(&factory, 0, a).unwrap(),
            2
        );
        assert_eq!(
            RecordSinkFactory::<u32, u64>::seal(&factory, 1, b).unwrap(),
            1
        );
        assert_eq!(factory.total(), 3);
    }
}
