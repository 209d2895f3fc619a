//! In-memory spans recorded around each call into a layer.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a layer call, a run step or a whole run.
#[derive(Debug, Clone)]
pub struct Span {
    /// `run`, a step (`setup`, `simulate`, `analyze`, `teardown`) or a
    /// layer call named `module.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a run or a one-off call.
    pub parent: Option<usize>,
    /// The run this span belongs to (0 for one-off calls outside runs).
    pub run: u64,
    /// Work counted at the span's boundaries: simulation events for the
    /// simulate phases, trace events for `metrics.analyze`, else 0.
    pub events: u64,
    /// Store operations (puts and gets over all shards) completed within
    /// the span; read from `ShardStats` at the simulate phase boundaries.
    pub store_ops: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether the span wraps a call into a program layer, as opposed to a
    /// run or a step of one.
    pub fn is_layer(&self) -> bool {
        self.name.contains('.')
    }
}

/// Collects spans in memory until the traced run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    run: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), run: 0 }
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the next run; spans opened until the next call belong to it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a trace lasts under 584 years")
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
            events: 0,
            store_ops: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, attaching the counts measured at its boundaries.
    pub fn close(&mut self, id: usize, events: u64, store_ops: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.events = events;
        span.store_ops = store_ops;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{},\"events\":{},\"store_ops\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.run, s.events, s.store_ops
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
