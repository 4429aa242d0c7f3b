//! In-memory spans recorded around the calls the benchmark makes into
//! each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), the index of the span that caused it, and the id of
//! the request or operation it belongs to. A disabled tracer records
//! nothing and reads no clock. Spans stay in memory until the run ends,
//! when [`Tracer::write_jsonl`] writes them out one JSON object a line.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`op.verify`, `wire.decode`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request or operation id shared by the spans of one operation.
    pub req: u64,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; `None` when disabled.
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.nanos(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        Some(spans.len() - 1)
    }

    /// Closes the span `id` now.
    pub fn close(&self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.nanos(Instant::now());
            let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
            spans[i].end_ns = end;
        }
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span { name, start_ns: self.nanos(start), end_ns: self.nanos(end), parent, req };
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking thread").clone()
    }

    /// Per span name: `(count, total ns, self ns)`. A span's self time is
    /// its duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("op", at(0), at(10), None, 7);
        t.record("child", at(1), at(4), root, 7);
        t.record("child", at(5), at(9), root, 7);
        let s = t.summary();
        assert_eq!(s["op"], (1, 10_000_000, 3_000_000));
        assert_eq!(s["child"], (2, 7_000_000, 7_000_000));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.within("op", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
