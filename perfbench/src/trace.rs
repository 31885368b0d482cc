//! Spans the benchmark records around its calls into the program, kept
//! in memory per thread and written out when the run ends. A disabled
//! tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Session or utterance the span belongs to; spans of one share it.
    pub id: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end without begin") as usize;
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let r = f();
        self.end();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of a run");
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover, summed over `spans` (one thread's list, in order).
pub fn self_time_ns(spans: &[Span], into: &mut BTreeMap<&'static str, u64>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    for (s, c) in spans.iter().zip(child_ns) {
        *into.entry(s.name).or_default() += s.dur_ns().saturating_sub(c);
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(threads: &[Vec<Span>], name: &str) -> Vec<f64> {
    threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The spans as JSONL, one object per span, tagged with the thread.
pub fn to_jsonl(threads: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"thread\":{t},\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("utt", NO_PARENT, 0, 100),
            span("ingest", 0, 10, 40),
            span("lattice", 0, 50, 90),
            span("nbest", 2, 60, 70),
        ];
        let mut m = BTreeMap::new();
        self_time_ns(&spans, &mut m);
        assert_eq!(m["utt"], 30);
        assert_eq!(m["ingest"], 30);
        assert_eq!(m["lattice"], 30);
        assert_eq!(m["nbest"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", 1, || 7), 7);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(true, Instant::now());
        t.begin("outer", 3);
        t.time("inner", 3, || ());
        t.end();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
