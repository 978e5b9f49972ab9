//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the system (build, step loop, teardown, oracles, shrinking, checker
//! phases). Spans stay in memory while the workload runs and are written
//! out as JSON lines when it ends. A layer's self time is the length of
//! its spans minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The run the span belongs to (campaign, leaf or scale-run index);
    /// spans of one run share it.
    pub run: u64,
    /// Layer name, e.g. `runner.loop`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserves a span id, so that children recorded before their parent
    /// closes can name it.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn close(&self, id: u64, parent: u64, run: u64, name: &'static str, start: Instant) {
        self.record(id, parent, run, name, start, Instant::now());
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        run: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            run,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking worker")
            .push(span);
    }

    /// Opens and records a leaf span in one go.
    pub fn leaf(&self, parent: u64, run: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.open();
        self.record(id, parent, run, name, start, end);
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&self, parent: u64, run: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(parent, run, name, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking worker")
            .clone()
    }

    /// Lengths (ms) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time (ms) per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ms.entry(s.parent).or_default() += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = (s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
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
        let t = Tracer::default();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.open();
        t.leaf(root, 0, "child", at(2), at(5));
        t.leaf(root, 0, "child", at(6), at(7));
        t.record(root, 0, 0, "root", at(0), at(10));
        let st = t.self_times();
        assert!((st["root"] - 6.0).abs() < 1e-6);
        assert!((st["child"] - 4.0).abs() < 1e-6);
        assert_eq!(t.durations("child").len(), 2);
    }
}
