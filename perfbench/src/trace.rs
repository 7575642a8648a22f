//! In-memory span recorder for the traced run.
//!
//! Every span wraps one call from the benchmark into a layer's public
//! entry point: name, start, end, the span that caused it, and the
//! request it belongs to. Spans stay in memory while the run measures and
//! are written out once at exit; the per-layer metrics are derived from
//! them afterwards.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 when the span has no parent.
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent span ends.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span with a reserved id.
    pub fn push_id(
        &self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Record a finished span.
    pub fn push(&self, name: &'static str, start: Instant, end: Instant, parent: u32, req: u64) {
        let id = self.id();
        self.push_id(id, name, start, end, parent, req);
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as tab-separated text.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Record a span when tracing, do nothing otherwise.
pub fn record(
    tr: Option<&Tracer>,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: u32,
    req: u64,
) {
    if let Some(t) = tr {
        t.push(name, start, end, parent, req);
    }
}
