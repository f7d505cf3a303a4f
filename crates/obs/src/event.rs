//! Telemetry events: the JSONL schema every sink speaks.
//!
//! One event is one line. The wire contract (checked in CI by
//! `obs_report check` in `eadrl-prof`) is:
//!
//! ```json
//! {"ts": 1754489600123456, "name": "ddpg.episode", "kind": "event",
//!  "level": "info", "fields": {"total_reward": -3.2, "steps": 40}}
//! ```
//!
//! * `ts` — microseconds since the UNIX epoch (integer);
//! * `name` — dot-separated event name; span events use the full
//!   hierarchical path, e.g. `eadrl.fit/ddpg.episode`;
//! * `kind` — one of `span`, `event`, `metric`;
//! * `level` — `error` | `warn` | `info` | `debug` | `trace`;
//! * `thread` — worker-thread attribution id (omitted when `0`, the
//!   main/unattributed thread; `eadrl-par` workers carry `1 + worker
//!   index`), so the profiler can reconstruct one span tree per thread;
//! * `fields` — flat object of numbers, strings, booleans and numeric
//!   arrays (e.g. per-step weight vectors).
//!
//! Non-finite floats are encoded **losslessly** as the reserved string
//! sentinels `"NaN"`, `"Infinity"` and `"-Infinity"` (JSON itself has no
//! such literals) and parse back to the exact special value — including
//! inside numeric arrays. The sentinels are reserved: a *string* field
//! whose value is exactly one of them round-trips as the float.

use crate::json::{self, JsonValue};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity / verbosity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unexpected failures.
    Error,
    /// Contract violations and degraded behaviour (e.g. empty episodes).
    Warn,
    /// Episode/fit/refresh-grained progress; the default for JSONL traces
    /// is one step more verbose ([`Level::Debug`]).
    Info,
    /// Per-step detail: weight vectors, prediction spans.
    Debug,
    /// Per-update detail inside the DDPG inner loop.
    Trace,
}

impl Level {
    /// The wire name (`"info"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a wire name; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed scoped timer.
    Span,
    /// A point-in-time occurrence with payload fields.
    Event,
    /// A metric snapshot (registry export).
    Metric,
}

impl EventKind {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Event => "event",
            EventKind::Metric => "metric",
        }
    }

    /// Parses a wire name; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "event" => Some(EventKind::Event),
            "metric" => Some(EventKind::Metric),
            _ => None,
        }
    }
}

/// A field value. `From` impls exist for the common primitives so call
/// sites can write `("reward", reward.into())`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A float.
    F64(f64),
    /// An unsigned integer (counts, sizes).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A boolean flag.
    Bool(bool),
    /// A string (e.g. refresh cause).
    Str(String),
    /// A numeric vector (e.g. ensemble weights).
    F64s(Vec<f64>),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::F64s(v)
    }
}

impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Self {
        Value::F64s(v.to_vec())
    }
}

/// String sentinels for the three non-finite floats (see module docs).
const NAN_SENTINEL: &str = "NaN";
const INF_SENTINEL: &str = "Infinity";
const NEG_INF_SENTINEL: &str = "-Infinity";

/// Encodes one float, mapping non-finite values to their sentinels.
fn f64_to_json(v: f64) -> JsonValue {
    if v.is_nan() {
        JsonValue::Str(NAN_SENTINEL.to_string())
    } else if v == f64::INFINITY {
        JsonValue::Str(INF_SENTINEL.to_string())
    } else if v == f64::NEG_INFINITY {
        JsonValue::Str(NEG_INF_SENTINEL.to_string())
    } else {
        JsonValue::Num(v)
    }
}

/// Decodes a float from a number, a sentinel string, or a legacy `null`
/// (traces written before the sentinel encoding).
fn f64_from_json(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(n) => Some(*n),
        JsonValue::Str(s) if s == NAN_SENTINEL => Some(f64::NAN),
        JsonValue::Str(s) if s == INF_SENTINEL => Some(f64::INFINITY),
        JsonValue::Str(s) if s == NEG_INF_SENTINEL => Some(f64::NEG_INFINITY),
        JsonValue::Null => Some(f64::NAN),
        _ => None,
    }
}

impl Value {
    fn to_json(&self) -> JsonValue {
        match self {
            Value::F64(v) => f64_to_json(*v),
            Value::U64(v) => JsonValue::Num(*v as f64),
            Value::I64(v) => JsonValue::Num(*v as f64),
            Value::Bool(v) => JsonValue::Bool(*v),
            Value::Str(v) => JsonValue::Str(v.clone()),
            Value::F64s(v) => JsonValue::Arr(v.iter().map(|&x| f64_to_json(x)).collect()),
        }
    }

    fn from_json(v: &JsonValue) -> Option<Value> {
        match v {
            // Sentinel strings decode as the float they stand for; other
            // strings stay strings.
            JsonValue::Str(s)
                if s != NAN_SENTINEL && s != INF_SENTINEL && s != NEG_INF_SENTINEL =>
            {
                Some(Value::Str(s.clone()))
            }
            JsonValue::Bool(b) => Some(Value::Bool(*b)),
            JsonValue::Arr(items) => {
                let nums: Option<Vec<f64>> = items.iter().map(f64_from_json).collect();
                nums.map(Value::F64s)
            }
            other => f64_from_json(other).map(Value::F64),
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the UNIX epoch.
    pub ts_us: u64,
    /// Dot-separated name (span events: the full `/`-joined path).
    pub name: String,
    /// What the event records.
    pub kind: EventKind,
    /// Severity.
    pub level: Level,
    /// Worker-thread attribution id: `0` for the main/unattributed
    /// thread, `1 + worker index` inside `eadrl-par` workers (set
    /// through [`crate::worker_context`]).
    pub thread: u64,
    /// Payload fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

/// Current wall-clock time in microseconds since the UNIX epoch.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl Event {
    /// Creates an event stamped with the current wall clock.
    pub fn new(name: impl Into<String>, kind: EventKind, level: Level) -> Event {
        Event {
            ts_us: now_us(),
            name: name.into(),
            kind,
            level,
            thread: crate::context::thread_id(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Event {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a field value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True when the event name, split on the `/` span separator,
    /// contains `segment` (so `require("eadrl.predict_next")` matches the
    /// span `eadrl.forecast/eadrl.predict_next`).
    pub fn name_matches(&self, segment: &str) -> bool {
        self.name == segment || self.name.split('/').any(|part| part == segment)
    }

    /// Serializes to one JSON line (no trailing newline). The `thread`
    /// key is written only when nonzero, so single-threaded traces keep
    /// the exact pre-profiler wire format.
    pub fn to_json_line(&self) -> String {
        let fields = JsonValue::Obj(
            self.fields
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let mut obj = vec![
            ("ts".to_string(), JsonValue::Num(self.ts_us as f64)),
            ("name".to_string(), JsonValue::Str(self.name.clone())),
            (
                "kind".to_string(),
                JsonValue::Str(self.kind.as_str().to_string()),
            ),
            (
                "level".to_string(),
                JsonValue::Str(self.level.as_str().to_string()),
            ),
        ];
        if self.thread != 0 {
            obj.push(("thread".to_string(), JsonValue::Num(self.thread as f64)));
        }
        obj.push(("fields".to_string(), fields));
        JsonValue::Obj(obj).to_json()
    }

    /// Parses an event back from one JSON line. Numeric field values come
    /// back as [`Value::F64`] (JSON does not distinguish integer kinds);
    /// use [`Event::semantically_eq`] for round-trip comparisons.
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let ts = v
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or("missing numeric 'ts'")?;
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing string 'name'")?
            .to_string();
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .and_then(EventKind::parse)
            .ok_or("missing or unknown 'kind'")?;
        let level = v
            .get("level")
            .and_then(JsonValue::as_str)
            .and_then(Level::parse)
            .ok_or("missing or unknown 'level'")?;
        let thread = v
            .get("thread")
            .map(|t| t.as_f64().ok_or("non-numeric 'thread'"))
            .transpose()?
            .unwrap_or(0.0) as u64;
        let mut fields = Vec::new();
        if let Some(JsonValue::Obj(raw)) = v.get("fields") {
            for (k, fv) in raw {
                let value =
                    Value::from_json(fv).ok_or_else(|| format!("bad field value for '{k}'"))?;
                fields.push((k.clone(), value));
            }
        }
        Ok(Event {
            ts_us: ts as u64,
            name,
            kind,
            level,
            thread,
            fields,
        })
    }

    /// Equality up to JSON's single number type: `U64(3)` equals `F64(3.0)`.
    /// `NaN` compares equal to `NaN` (scalars and vector elements), so a
    /// decoded trace line equals what was written.
    pub fn semantically_eq(&self, other: &Event) -> bool {
        fn num(v: &Value) -> Option<f64> {
            match v {
                Value::F64(x) => Some(*x),
                Value::U64(x) => Some(*x as f64),
                Value::I64(x) => Some(*x as f64),
                _ => None,
            }
        }
        fn f64_eq(a: f64, b: f64) -> bool {
            a == b || (a.is_nan() && b.is_nan())
        }
        self.ts_us == other.ts_us
            && self.name == other.name
            && self.kind == other.kind
            && self.level == other.level
            && self.thread == other.thread
            && self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|((ka, va), (kb, vb))| {
                    ka == kb
                        && match (num(va), num(vb)) {
                            (Some(a), Some(b)) => f64_eq(a, b),
                            _ => match (va, vb) {
                                (Value::F64s(a), Value::F64s(b)) => {
                                    a.len() == b.len()
                                        && a.iter().zip(b.iter()).all(|(&x, &y)| f64_eq(x, y))
                                }
                                _ => va == vb,
                            },
                        }
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_required_fields() {
        let e = Event::new("eadrl.fit", EventKind::Span, Level::Info).field("duration_us", 12u64);
        let line = e.to_json_line();
        let v = json::parse(&line).unwrap();
        assert!(v.get("ts").and_then(JsonValue::as_f64).is_some());
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("eadrl.fit"));
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("span"));
        assert_eq!(v.get("level").and_then(JsonValue::as_str), Some("info"));
    }

    #[test]
    fn name_matches_span_segments() {
        let e = Event::new(
            "eadrl.fit/ddpg.episode/ddpg.update",
            EventKind::Span,
            Level::Trace,
        );
        assert!(e.name_matches("ddpg.episode"));
        assert!(e.name_matches("eadrl.fit"));
        assert!(!e.name_matches("ddpg"));
    }

    #[test]
    fn non_finite_floats_round_trip_losslessly() {
        let e = Event::new("x.y", EventKind::Event, Level::Info)
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY)
            .field("ninf", f64::NEG_INFINITY)
            .field("vec", vec![1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let line = e.to_json_line();
        assert!(json::parse(&line).is_ok(), "must stay valid JSON: {line}");
        let back = Event::from_json_line(&line).expect("round trip");
        assert!(matches!(back.get("nan"), Some(Value::F64(v)) if v.is_nan()));
        assert!(matches!(back.get("inf"), Some(Value::F64(v)) if *v == f64::INFINITY));
        assert!(matches!(back.get("ninf"), Some(Value::F64(v)) if *v == f64::NEG_INFINITY));
        match back.get("vec") {
            Some(Value::F64s(v)) => {
                assert_eq!(v[0], 1.5);
                assert!(v[1].is_nan());
                assert_eq!(v[2], f64::INFINITY);
                assert_eq!(v[3], f64::NEG_INFINITY);
            }
            other => panic!("expected F64s, got {other:?}"),
        }
    }

    #[test]
    fn thread_id_round_trips_and_is_omitted_when_zero() {
        let mut e = Event::new("x.y", EventKind::Span, Level::Info);
        e.thread = 0;
        assert!(!e.to_json_line().contains("thread"));
        e.thread = 3;
        let line = e.to_json_line();
        assert!(line.contains("\"thread\":3"), "{line}");
        let back = Event::from_json_line(&line).expect("round trip");
        assert_eq!(back.thread, 3);
    }

    #[test]
    fn level_ordering_is_severity_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
    }
}
