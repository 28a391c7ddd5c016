//! Spans around the calls into each layer, recorded from the benchmark's
//! own files. Spans live in memory and are written out once, at exit, as
//! one JSON object per line:
//!
//! ```text
//! {"op":17,"layer":"engine","name":"run_query","start_ns":1200,"end_ns":9800,"parent":40}
//! ```
//!
//! `parent` is the line index (0-based) of the enclosing span, absent for
//! a root. Spans of one op share `op`. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The handle [`Tracer::enter`] returns and [`Tracer::exit`] takes back.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Starts the next op: spans entered from here on carry its number.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            op: self.op,
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let now = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in the order they opened");
        self.spans[id.0].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_ns(layer, name, f).1
    }

    /// Times `f` as one span and also returns the span's length.
    pub fn span_ns<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u64, T) {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        (self.length_ns(id), out)
    }

    /// The length of a closed span.
    pub fn length_ns(&self, id: SpanId) -> u64 {
        self.spans[id.0].end_ns - self.spans[id.0].start_ns
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span named `layer`/`name`, in op order.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self times (ns) of every span named `layer`/`name`, in op order.
    pub fn self_times(&self, layer: &str, name: &str) -> Vec<u64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.layer == layer && s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.op, s.layer, s.name, s.start_ns, s.end_ns
            )?;
            if let Some(parent) = s.parent {
                write!(out, ",\"parent\":{parent}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// The self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent. Children may
/// nest further (their own children do not count twice, being inside
/// them) and may overlap each other (two threads under one request), in
/// which case the shared part is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { op: 1, layer: "l", name: "n", start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > child [10,60) > grandchild [20,30)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 50 - 10, 10, 10]);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_as_a_union() {
        // Two children overlap on [30,50); a third sticks out past the parent.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        // Union inside the parent: [10,70) + [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn a_child_wholly_inside_a_sibling_adds_nothing() {
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parents_and_ops() {
        let mut tr = Tracer::new();
        tr.next_op();
        let op = tr.enter("client", "op");
        tr.span("ast", "parse_query", || ());
        tr.exit(op);
        tr.next_op();
        tr.span("client", "op", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[0].parent), (1, None));
        assert_eq!((spans[1].op, spans[1].parent), (1, Some(0)));
        assert_eq!((spans[2].op, spans[2].parent), (2, None));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tr.durations("ast", "parse_query").len(), 1);
        assert_eq!(tr.self_times("client", "op").len(), 2);
    }
}
