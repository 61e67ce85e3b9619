//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! `layers.rs` makes into each layer; the program itself carries no
//! tracing. One clock read closes a span and opens the next, so an
//! operation with N spans costs N + 1 reads.

use std::time::Instant;

/// Operations whose spans `trace.json` lists in full; statistics cover
/// every span of the pass.
pub const TRACE_JSON_OPS: u32 = 2048;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u8,
    /// The operation (datagram, round, packet block, cell) it belongs to.
    pub op: u32,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
}

/// Collects spans for one traced pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
    op: u32,
    last_ns: u64,
}

impl Recorder {
    /// A recorder over a fixed table of span names; index 0 is the
    /// operation's own root span, the parent of all the others.
    pub fn new(names: &'static [&'static str], capacity: usize) -> Self {
        assert!(names.len() <= usize::from(u8::MAX));
        Recorder {
            epoch: Instant::now(),
            names,
            spans: Vec::with_capacity(capacity),
            op: 0,
            last_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens operation `op`: reads the clock once.
    pub fn begin(&mut self, op: u32) -> u64 {
        self.op = op;
        self.last_ns = self.now_ns();
        self.last_ns
    }

    /// Closes a span called `name` that began at the previous boundary
    /// and opens the next one: reads the clock once.
    pub fn lap(&mut self, name: u8) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: self.last_ns,
            end_ns: now,
        });
        self.last_ns = now;
    }

    /// Closes the operation's root span, from `begin_ns` to the last
    /// boundary, without another clock read.
    pub fn end(&mut self, begin_ns: u64) {
        self.spans.push(Span {
            name: 0,
            op: self.op,
            start_ns: begin_ns,
            end_ns: self.last_ns,
        });
    }

    /// Every span recorded, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The name table.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// `trace.json` of this pass ([`to_json`]).
    pub fn to_json(&self) -> String {
        to_json(self.names, &self.spans)
    }
}

/// Renders the spans of the first [`TRACE_JSON_OPS`] operations as a
/// JSON array of `{name, op_id, parent, start_ns, end_ns}`; `names[0]`
/// is the root span, the parent of all the others.
pub fn to_json(names: &[&str], spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .filter(|s| s.op < TRACE_JSON_OPS)
        .map(|s| {
            let parent = if s.name == 0 {
                "null".to_string()
            } else {
                format!("\"{}\"", names[0])
            };
            format!(
                "{{\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                names[usize::from(s.name)],
                s.op,
                parent,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The spans of several traced passes over one input. Passes replay
/// identical state, so span `i` of every pass is the same call; its
/// duration is the fastest across passes (`harness::fold_best`).
#[derive(Debug, Default)]
pub struct SpanTable {
    /// The first pass, kept whole for `trace.json`.
    first: Option<Recorder>,
    /// Duration of every span, the fastest across the passes so far.
    best_ns: Vec<u32>,
}

impl SpanTable {
    /// Adds one traced pass.
    ///
    /// # Panics
    ///
    /// Panics when the pass recorded other spans than the first did.
    pub fn add(&mut self, rec: Recorder) {
        let durations: Vec<u32> = rec
            .spans()
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as u32)
            .collect();
        match &self.first {
            None => self.first = Some(rec),
            Some(first) => assert!(
                first.spans().len() == durations.len()
                    && first
                        .spans()
                        .iter()
                        .zip(rec.spans())
                        .all(|(a, b)| a.name == b.name && a.op == b.op),
                "traced passes must record the same spans"
            ),
        }
        crate::harness::fold_best(&mut self.best_ns, &durations);
    }

    /// Per span name, the per-call durations (fastest across passes), ns,
    /// leaving out operations before `first_op` (warm-up).
    pub fn samples(&self, first_op: u32) -> Vec<Vec<f64>> {
        let Some(first) = &self.first else {
            return Vec::new();
        };
        let mut by_name = vec![Vec::new(); first.names().len()];
        for (span, &ns) in first.spans().iter().zip(&self.best_ns) {
            if span.op < first_op {
                continue;
            }
            by_name[usize::from(span.name)].push(f64::from(ns));
        }
        by_name
    }

    /// `trace.json` of the first pass.
    pub fn to_json(&self) -> String {
        self.first.as_ref().map_or("[]\n".into(), Recorder::to_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_tile_the_operation() {
        static NAMES: [&str; 3] = ["op", "a", "b"];
        let mut rec = Recorder::new(&NAMES, 8);
        let t0 = rec.begin(7);
        rec.lap(1);
        rec.lap(2);
        rec.end(t0);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].start_ns, s[1].start_ns), (t0, s[0].end_ns));
        assert_eq!(
            (s[2].name, s[2].start_ns, s[2].end_ns),
            (0, t0, s[1].end_ns)
        );
        assert!(s.iter().all(|x| x.op == 7));
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"a\",\"op_id\":7,\"parent\":\"op\""));
        assert!(json.contains("\"name\":\"op\",\"op_id\":7,\"parent\":null"));
    }
}
