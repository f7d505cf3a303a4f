//! RAII scoped timers with hierarchical names.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop. Nested spans build `/`-joined paths through a thread-local
//! stack, so a DDPG update inside an episode inside a fit shows up as
//! `eadrl.fit/ddpg.episode/ddpg.update`. On drop the span
//!
//! 1. records the duration into the histogram `<leaf>.duration_us`
//!    (leaf name, so nesting depth does not fragment the metric), and
//! 2. emits an [`EventKind::Span`] event under the full path.
//!
//! When the span's level is not enabled, construction is a single atomic
//! load and nothing else happens.

use crate::event::{Event, EventKind, Level, Value};
use crate::metrics::global_registry;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// The stack of open span paths on this thread. `crate::context`
    /// pushes a worker's inherited parent path as the base entry.
    pub(crate) static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A live scoped timer; finishes (and reports) on drop.
#[must_use = "a span measures the scope it is bound to; use `let _span = ...`"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    leaf: &'static str,
    path: String,
    level: Level,
    start: Instant,
    fields: Vec<(String, Value)>,
}

impl Span {
    /// Starts a span at [`Level::Info`]. Prefer [`fn@crate::span`].
    pub fn enter(name: &'static str) -> Span {
        Span::enter_at(Level::Info, name)
    }

    /// Starts a span at an explicit level. Disabled levels cost one
    /// atomic load and allocate nothing.
    // eadrl-lint: allow(panic-reachable): last() is guarded by the is_empty branch; lock-free otherwise
    pub fn enter_at(level: Level, name: &'static str) -> Span {
        if !crate::enabled(level) {
            return Span { inner: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.to_string()
            } else {
                format!("{}/{}", stack.last().unwrap(), name)
            };
            stack.push(path.clone());
            path
        });
        Span {
            inner: Some(SpanInner {
                leaf: name,
                path,
                level,
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Attaches a payload field to the span's completion event (no-op on
    /// a disabled span): `span.record("items", n.into())`. Fields follow
    /// `duration_us` on the wire, in recording order.
    pub fn record(&mut self, key: &str, value: Value) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key.to_string(), value));
        }
    }

    /// True when the span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let duration_us = inner.start.elapsed().as_micros() as u64;
        global_registry()
            .histogram(&format!("{}.duration_us", inner.leaf))
            .record(duration_us as f64);
        let mut event =
            Event::new(inner.path, EventKind::Span, inner.level).field("duration_us", duration_us);
        event.fields.extend(inner.fields);
        crate::emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        // The global default is off; a span is inert then.
        let s = Span::enter_at(Level::Trace, "never.enabled.test");
        assert!(!s.is_recording());
    }
}
