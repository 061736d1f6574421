//! In-memory spans for the traced run: name, start, end, parent span and
//! request id, recorded by the benchmark around its calls into each
//! layer and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tpu_spec::consts::MILLI;

/// One timed call into a layer. Times are nanoseconds from the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `serve.cache.get`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        // ns to µs.
        (self.end - self.start) as f64 * MILLI
    }
}

/// Collects spans; single-threaded by design (one tracer per thread of
/// the in-process pipelines).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (e.g. by the load generator),
    /// as offsets from `since`, an instant no earlier than the origin.
    pub fn record(
        &mut self,
        name: &'static str,
        since: Instant,
        start: Duration,
        end: Duration,
        request: Option<u64>,
    ) {
        let base = since.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: base + start.as_nanos() as u64,
            end: base + end.as_nanos() as u64,
            parent: None,
            request,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span with this name.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let root = t.open("outer", None, Some(7));
        let x = t.time("inner", Some(root), Some(7), || 40 + 2);
        t.close(root);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains("\"parent\":0,\"request\":7"));
        assert_eq!(t.micros("inner").len(), 1);
    }
}
