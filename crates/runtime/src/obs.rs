//! Dependency-free observability primitives: a leveled structured
//! logger, per-job trace ids, and a bounded in-memory "flight
//! recorder" for spans/events.
//!
//! Everything here is std-only and designed for hot paths:
//!
//! * **Logger** — a process-wide maximum [`Level`] stored in one
//!   atomic; a suppressed call costs a single relaxed load. Emitted
//!   lines are `key=value` structured text on stderr
//!   (`ts=… level=… target=… msg=… extra=…`), so operators can grep
//!   them and log shippers can parse them without a format schema.
//! * **Panic hook** — [`install_panic_hook`] routes panic reports
//!   through the logger: one `level=error` line with the thread, the
//!   location and the message, in place of the default hook's
//!   unstructured `thread '…' panicked at …` text.
//! * **Trace ids** — [`next_trace_id`] hands out process-unique
//!   non-zero 64-bit ids (time-seeded, counter-mixed). The service
//!   stamps one on every submitted job and threads it through cache,
//!   store, engine, and delivery events.
//! * **Flight recorder** — [`FlightRecorder`] keeps the last *N*
//!   [`TraceEvent`]s in a fixed-capacity ring behind one mutex whose
//!   critical section is a push + possible pop (no allocation beyond
//!   the event itself). Overflow evicts the oldest event and counts it
//!   in [`FlightRecorder::dropped`]; recording never blocks on I/O.
//!   Events export as JSONL (one [`crate::json::Json`] object per
//!   line) for `spanner-serve --trace-dir`.
//!
//! None of this is wired into the engine's deterministic core: timing
//! and tracing observe results, they never feed back into RNG streams
//! or merge order.

use crate::json::Json;
use std::any::Any;
use std::backtrace::{Backtrace, BacktraceStatus};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what was asked of it.
    Error = 0,
    /// Something is degraded but the process keeps going.
    Warn = 1,
    /// Normal operational milestones (default level).
    Info = 2,
    /// Detail useful when diagnosing a specific problem.
    Debug = 3,
    /// Per-event firehose; only for short captures.
    Trace = 4,
}

impl Level {
    /// The lowercase name used in log lines and `--log-level`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

/// Process-wide maximum level; calls above it are suppressed.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide maximum log level.
pub fn set_log_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Returns the current process-wide maximum log level.
pub fn log_level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` would currently be emitted.
pub fn log_enabled(level: Level) -> bool {
    level <= log_level()
}

/// Emits one structured log line on stderr if `level` is enabled.
///
/// `fields` are appended as `key=value` pairs after the message;
/// values containing spaces, quotes, or `=` are quoted and escaped so
/// every line stays machine-splittable.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    if !log_enabled(level) {
        return;
    }
    eprintln!("{}", format_line(level, target, msg, fields));
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(Level::Debug, target, msg, fields);
}

/// Replaces the process's panic hook with one that writes each panic
/// report as a single [`Level::Error`] line (target `panic`) carrying
/// the thread name, the source location and the message. A backtrace,
/// when `RUST_BACKTRACE` asks for one, rides along as one escaped
/// field. Unwinding itself is unchanged: `catch_unwind` guards still
/// catch, and an uncaught panic still ends its thread. Call it once,
/// early in `main`.
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current();
        let thread = thread.name().unwrap_or("<unnamed>");
        let location = info
            .location()
            .map_or_else(|| "<unknown>".to_string(), ToString::to_string);
        let message = panic_message(info.payload());
        let backtrace = Backtrace::capture();
        let mut fields: Vec<(&str, &dyn fmt::Display)> = vec![
            ("thread", &thread),
            ("location", &location),
            ("message", &message),
        ];
        if backtrace.status() == BacktraceStatus::Captured {
            fields.push(("backtrace", &backtrace));
        }
        error("panic", "thread panicked", &fields);
    }));
}

/// The message of a panic payload: its `&str` or `String`, as `panic!`
/// produces.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

fn format_line(
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, &dyn fmt::Display)],
) -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO);
    let mut line = format!(
        "ts={}.{:03} level={} target={} msg={}",
        now.as_secs(),
        now.subsec_millis(),
        level,
        quote_value(target),
        quote_value(msg),
    );
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(&quote_value(&value.to_string()));
    }
    line
}

/// Quotes a `key=value` value if it would break token splitting.
fn quote_value(raw: &str) -> String {
    let needs_quotes = raw.is_empty() || raw.contains([' ', '"', '=', '\\', '\n', '\r', '\t']);
    if !needs_quotes {
        return raw.to_string();
    }
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Monotone counter mixed into trace ids so two ids never collide
/// within a process even when the clock is coarse.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Returns a process-unique, non-zero 64-bit trace id.
pub fn next_trace_id() -> u64 {
    let count = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_nanos() as u64;
    // splitmix64 finalizer over (time, counter): well-spread ids
    // without any global RNG state.
    let mut z = nanos ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1 // zero means "no trace"; never hand it out
}

/// Renders a trace id the way log lines and JSONL traces spell it.
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// One recorded span or point event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The job this event belongs to (0 = not tied to a job).
    pub trace_id: u64,
    /// Event name, dot-namespaced (`job.submitted`, `engine.run`, …).
    pub name: String,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Span duration in microseconds; `None` for point events.
    pub dur_us: Option<u64>,
    /// Extra key/value context, in insertion order.
    pub fields: Vec<(String, String)>,
}

/// Default event capacity for [`FlightRecorder::new`] callers that do
/// not have a better number.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring of recent [`TraceEvent`]s.
///
/// Recording is a mutex-guarded push (plus a pop when full), so it is
/// cheap enough to sit on the service's request path. When the ring is
/// full the *oldest* event is evicted — a flight recorder keeps the
/// most recent history, not the first.
pub struct FlightRecorder {
    epoch: Instant,
    epoch_unix_us: u64,
    capacity: usize,
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let epoch_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_micros() as u64;
        FlightRecorder {
            epoch: Instant::now(),
            epoch_unix_us,
            capacity,
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Microseconds elapsed since the recorder was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a point event (no duration).
    pub fn event(&self, trace_id: u64, name: &str, fields: Vec<(String, String)>) {
        self.push(TraceEvent {
            trace_id,
            name: name.to_string(),
            at_us: self.now_us(),
            dur_us: None,
            fields,
        });
    }

    /// Records a span that started `dur` ago and just finished.
    pub fn span(&self, trace_id: u64, name: &str, dur: Duration, fields: Vec<(String, String)>) {
        let dur_us = dur.as_micros() as u64;
        let now = self.now_us();
        self.push(TraceEvent {
            trace_id,
            name: name.to_string(),
            at_us: now.saturating_sub(dur_us),
            dur_us: Some(dur_us),
            fields,
        });
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.inner.lock().unwrap();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether the ring currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Removes and returns all held events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut ring = self.inner.lock().unwrap();
        ring.events.drain(..).collect()
    }

    /// Returns a copy of all held events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Renders one event as a single-line JSON object.
    ///
    /// Schema: `{"ts_us": <unix µs>, "trace": "<16-hex id>",
    /// "name": "...", "dur_us": <µs, spans only>, "<field>": "..."}`.
    pub fn jsonl_line(&self, event: &TraceEvent) -> String {
        let mut obj = vec![
            (
                "ts_us".to_string(),
                Json::U64(self.epoch_unix_us.saturating_add(event.at_us)),
            ),
            ("trace".to_string(), Json::Str(trace_id_hex(event.trace_id))),
            ("name".to_string(), Json::Str(event.name.clone())),
        ];
        if let Some(dur_us) = event.dur_us {
            obj.push(("dur_us".to_string(), Json::U64(dur_us)));
        }
        for (key, value) in &event.fields {
            obj.push((key.clone(), Json::Str(value.clone())));
        }
        Json::Obj(obj).encode()
    }

    /// Drains all events and renders them as JSONL (one event per
    /// line, trailing newline when non-empty).
    pub fn drain_jsonl(&self) -> String {
        let events = self.drain();
        let mut out = String::new();
        for event in &events {
            out.push_str(&self.jsonl_line(event));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert_eq!("warning".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::Trace.to_string(), "trace");
    }

    #[test]
    fn format_line_quotes_only_when_needed() {
        let line = format_line(
            Level::Info,
            "svc",
            "hello world",
            &[("plain", &7u64), ("spaced", &"a b"), ("quoted", &"x\"y")],
        );
        assert!(line.contains("level=info"), "{line}");
        assert!(line.contains("target=svc"), "{line}");
        assert!(line.contains("msg=\"hello world\""), "{line}");
        assert!(line.contains("plain=7"), "{line}");
        assert!(line.contains("spaced=\"a b\""), "{line}");
        assert!(line.contains("quoted=\"x\\\"y\""), "{line}");
        assert!(line.starts_with("ts="), "{line}");
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id:#x}");
        }
        assert_eq!(trace_id_hex(0xabc).len(), 16);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.event(i + 1, "tick", vec![("i".to_string(), i.to_string())]);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let events = rec.snapshot();
        // Oldest evicted first: events 3, 4, 5 remain.
        assert_eq!(events[0].trace_id, 3);
        assert_eq!(events[2].trace_id, 5);
        let drained = rec.drain();
        assert_eq!(drained.len(), 3);
        assert!(rec.is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_json_with_schema_keys() {
        let rec = FlightRecorder::new(8);
        rec.span(
            42,
            "engine.run",
            Duration::from_micros(1500),
            vec![("variant".to_string(), "undirected".to_string())],
        );
        rec.event(42, "job.delivered", vec![]);
        let jsonl = rec.drain_jsonl();
        let lines: Vec<&str> = jsonl.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        let span = Json::parse(lines[0]).unwrap();
        assert_eq!(span.get("name").and_then(Json::as_str), Some("engine.run"));
        assert_eq!(span.get("dur_us").and_then(Json::as_u64), Some(1500));
        assert_eq!(
            span.get("trace").and_then(Json::as_str),
            Some(trace_id_hex(42).as_str())
        );
        assert_eq!(
            span.get("variant").and_then(Json::as_str),
            Some("undirected")
        );
        let point = Json::parse(lines[1]).unwrap();
        assert!(point.get("dur_us").is_none());
        assert!(point.get("ts_us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn span_backdates_start_and_never_underflows() {
        let rec = FlightRecorder::new(8);
        // A duration far longer than the recorder has existed must not
        // panic; at_us saturates at 0.
        rec.span(1, "long", Duration::from_secs(3600), vec![]);
        let events = rec.drain();
        assert_eq!(events[0].at_us, 0);
        assert_eq!(events[0].dur_us, Some(3_600_000_000));
    }
}
