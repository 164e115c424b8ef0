//! The traced run's span recorder.
//!
//! A span is a name, a start, an end and the span that caused it (its
//! parent). Spans stay in memory while the run executes and are written
//! out as Chrome trace-event JSON when it ends, one lane per thread.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub lane: usize,
}

/// Spans in memory, plus the stack of spans still open on the main
/// thread (lane 0).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    lanes: HashMap<ThreadId, usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lanes: HashMap::from([(std::thread::current().id(), 0)]),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on the main thread, under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a finished span timed on `thread`, under the innermost
    /// open span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        thread: ThreadId,
    ) {
        let next = self.lanes.len();
        let lane = *self.lanes.entry(thread).or_insert(next);
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            lane,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as Chrome trace-event JSON (complete events,
    /// times in microseconds, the parent's index in `args`).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \
                 \"tid\": {}, \"args\": {{\"id\": {id}, \"parent\": {}}}}}{comma}",
                span.name.replace('\\', "\\\\").replace('"', "\\\""),
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                span.lane,
                span.parent.map_or(-1, |p| p as i64),
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_worker_threads_get_their_own_lanes() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        tracer.end(inner);
        let (start, end, thread) = std::thread::spawn(|| {
            let start = Instant::now();
            (start, Instant::now(), std::thread::current().id())
        })
        .join()
        .expect("worker thread");
        tracer.record("worker", start, end, thread);
        tracer.end(outer);

        let spans = tracer.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!((spans[2].parent, spans[2].lane), (Some(outer), 1));
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_innermost_first() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer");
        tracer.begin("inner");
        tracer.end(outer);
    }
}
