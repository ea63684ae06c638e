//! The benchmark's own spans: one per public call it makes into the
//! system, recorded from outside the call. Spans stay in memory and are
//! written out once, when the run ends; an untraced run records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span; times are nanoseconds since the run started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, `0` at the top level.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id (0 when tracing is off, so children stay unlinked).
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Build a span for the caller to buffer (hot loops keep spans in a
    /// thread-local `Vec` and hand them over with [`Spans::extend`]).
    pub fn make(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }
    }

    /// Record span `id` as running from `start` until now.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant) {
        if self.enabled {
            let span = self.make(id, parent, name, start, Instant::now());
            self.done.lock().expect("span list poisoned").push(span);
        }
    }

    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.done.lock().expect("span list poisoned").extend(spans);
        }
    }

    /// Run `f` (which receives the new span's id, to parent its own
    /// spans on) and return its value with the wall time it took.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = self.make(id, parent, name, start, end);
            self.done.lock().expect("span list poisoned").push(span);
        }
        (out, end - start)
    }

    pub fn len(&self) -> usize {
        self.done.lock().expect("span list poisoned").len()
    }

    /// Write every recorded span as a JSON array, ordered by start time.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.done.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
