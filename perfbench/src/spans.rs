//! Host-time measurement around the benchmark's calls into each crate.
//!
//! Every timed call goes through [`Tracer::time`], which always returns
//! the call's duration (the end-to-end metrics need it) and, when tracing
//! is on, also records a span — name, start, end, parent — in memory.
//! Spans wrap the benchmark's own calls only; nothing is added inside the
//! engine.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `gpu.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records them as nested spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time their child spans cover, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and host duration; records a span
    /// named `name` (nested under the innermost open span) when tracing.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        if self.on {
            let start_ns = self.since_epoch(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
        let out = f(self);
        let end = Instant::now();
        if self.on {
            let idx = self.open.pop().expect("span stack balanced by time()");
            self.spans[idx].end_ns = self.since_epoch(end);
        }
        (out, end - start)
    }

    /// How many spans are open (the nesting depth at the call site).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` now: the spans a caught
    /// panic left open.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.since_epoch(Instant::now());
        while self.open.len() > depth {
            let idx = self
                .open
                .pop()
                .expect("loop guard keeps the stack non-empty");
            self.spans[idx].end_ns = now;
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.dur_ns() as f64 * 1e-9;
            e.self_s += s.dur_ns().saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let layers = t.layer_times();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(inner.total_s >= 0.002);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
