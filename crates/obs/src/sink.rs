//! Event sinks: where emitted events go.

use crate::event::{Event, EventKind, Level};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Consumes telemetry events. Implementations must be cheap enough to sit
/// on hot paths behind the level check.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &Event);
}

/// Discards everything — the default sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn emit(&self, _event: &Event) {}
}

/// Bounded in-memory sink for tests: keeps the most recent `capacity`
/// events. Overflow is not silent: evicted events are counted, and
/// [`RingSink::events`] appends a single synthetic `obs.ring.dropped`
/// warn event (carrying the count) so a truncated trace says so itself.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// Creates a ring sink holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "ring sink capacity must be positive");
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// A copy of the stored events, oldest first. When overflow has
    /// evicted events, one synthetic `obs.ring.dropped` warn event
    /// (field `count`) is appended so consumers see the truncation.
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.buf.lock().unwrap().iter().cloned().collect();
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            events.push(
                Event::new("obs.ring.dropped", EventKind::Event, Level::Warn)
                    .field("count", dropped),
            );
        }
        events
    }

    /// Number of events evicted by overflow since creation (or the last
    /// [`RingSink::clear`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stored events whose name (or any span path segment) equals `name`.
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name_matches(name))
            .cloned()
            .collect()
    }

    /// Number of stored events.
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// True when nothing is stored.
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn is_empty(&self) -> bool {
        self.buf.lock().unwrap().is_empty()
    }

    /// Drops all stored events and resets the dropped-event counter.
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn clear(&self) {
        self.buf.lock().unwrap().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl EventSink for RingSink {
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    fn emit(&self, event: &Event) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }
}

/// Streams events as JSON lines to a writer (a file or stderr).
/// Line-buffered: each event is flushed at its newline, so a trace is
/// readable even after a crash.
pub struct JsonlSink {
    out: Mutex<LineWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// A sink writing to the given writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(LineWriter::new(writer)),
        }
    }

    /// A sink appending to (and first truncating) `path`.
    pub fn file(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink::new(Box::new(File::create(path)?)))
    }

    /// A sink writing to standard error.
    pub fn stderr() -> JsonlSink {
        JsonlSink::new(Box::new(io::stderr()))
    }
}

impl EventSink for JsonlSink {
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    fn emit(&self, event: &Event) {
        let line = event.to_json_line();
        let mut out = self.out.lock().unwrap();
        // A failing sink must never take the computation down with it.
        let _ = writeln!(out, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Level};

    fn ev(name: &str) -> Event {
        Event::new(name, EventKind::Event, Level::Info)
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let sink = RingSink::new(2);
        sink.emit(&ev("a"));
        sink.emit(&ev("b"));
        sink.emit(&ev("c"));
        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c", "obs.ring.dropped"]);
        assert_eq!(sink.len(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn ring_sink_reports_overflow() {
        let sink = RingSink::new(2);
        sink.emit(&ev("a"));
        assert_eq!(sink.dropped(), 0);
        assert!(
            !sink.events().iter().any(|e| e.name == "obs.ring.dropped"),
            "no marker without overflow"
        );
        sink.emit(&ev("b"));
        sink.emit(&ev("c"));
        sink.emit(&ev("d"));
        assert_eq!(sink.dropped(), 2);
        let events = sink.events();
        let marker = events.last().expect("marker present");
        assert_eq!(marker.name, "obs.ring.dropped");
        assert_eq!(marker.level, Level::Warn);
        assert_eq!(marker.get("count"), Some(&crate::Value::from(2u64)));
        assert_eq!(events.len(), 3, "exactly one marker appended");
        sink.clear();
        assert_eq!(sink.dropped(), 0, "clear resets the counter");
    }

    #[test]
    fn ring_sink_filters_by_name() {
        let sink = RingSink::new(8);
        sink.emit(&ev("x"));
        sink.emit(&ev("parent/x"));
        sink.emit(&ev("y"));
        assert_eq!(sink.events_named("x").len(), 2);
        assert_eq!(sink.events_named("y").len(), 1);
        assert_eq!(sink.events_named("z").len(), 0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(SharedWriter(shared.clone())));
        sink.emit(&ev("one").field("k", 1.5));
        sink.emit(&ev("two"));
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(Event::from_json_line(line).is_ok(), "bad line: {line}");
        }
    }
}
