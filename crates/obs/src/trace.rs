//! Structured event tracing: spans and instants, exportable as JSON Lines
//! or as a Chrome-trace file (`chrome://tracing` / Perfetto).
//!
//! Instrumented code holds an `Arc<dyn TraceSink>` and guards every
//! emission on [`TraceSink::enabled`] *before* building the event, so the
//! default [`NullSink`] costs one branch and zero allocations. Timestamps
//! are logical (test-bus cycles, fault indices) wherever determinism
//! matters; wall-clock durations appear only in scheduling events, which
//! the canonical export excludes.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json;

/// Event category for thread-scheduling observations (which worker ran
/// which partition, wall-clock durations). These are the only events whose
/// content legitimately varies run to run, so
/// [`MemorySink::canonical_jsonl`] excludes exactly this category.
pub const CAT_SCHED: &str = "sched";

/// The event kind, mirroring the Chrome-trace phase letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TracePhase {
    /// A complete span with a duration (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
}

impl TracePhase {
    fn chrome_code(self) -> &'static str {
        match self {
            Self::Complete => "X",
            Self::Instant => "i",
        }
    }
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            Self::U64(v) => json::write_u64(out, *v),
            Self::F64(v) => json::write_f64(out, *v),
            Self::Str(s) => json::write_escaped(out, s),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Category (`"sim"`, `"session"`, `"ppsfp"`, [`CAT_SCHED`], …).
    pub cat: &'static str,
    /// Event name. `Cow` so the common case — a static name like
    /// `"fault"` emitted once per graded fault — costs no allocation,
    /// while formatted names (`format!("step{i}")`) still fit.
    pub name: std::borrow::Cow<'static, str>,
    /// Kind.
    pub phase: TracePhase,
    /// Start timestamp (logical units — cycles or indices — except for
    /// [`CAT_SCHED`] events, which may use wall-clock microseconds).
    pub ts: u64,
    /// Duration for [`TracePhase::Complete`] events, else 0.
    pub dur: u64,
    /// Logical thread / worker id (0 for single-threaded emitters).
    pub tid: u64,
    /// Named arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// A complete span.
    pub fn span(
        cat: &'static str,
        name: impl Into<std::borrow::Cow<'static, str>>,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Self {
        Self {
            cat,
            name: name.into(),
            phase: TracePhase::Complete,
            ts,
            dur,
            tid: 0,
            args,
        }
    }

    /// A point event.
    pub fn instant(
        cat: &'static str,
        name: impl Into<std::borrow::Cow<'static, str>>,
        ts: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Self {
        Self {
            cat,
            name: name.into(),
            phase: TracePhase::Instant,
            ts,
            dur: 0,
            tid: 0,
            args,
        }
    }

    /// Sets the worker id.
    #[must_use]
    pub fn on_thread(mut self, tid: u64) -> Self {
        self.tid = tid;
        self
    }

    /// One JSON object describing this event (no trailing newline). With
    /// `normalize_tid`, the tid is written as 0 — the canonical form, since
    /// which OS worker processed a partition is scheduling noise.
    pub fn to_json(&self, normalize_tid: bool) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out, normalize_tid);
        out
    }

    /// Appends the [`to_json`](Self::to_json) object to `out` — the
    /// allocation-free form bulk exporters use.
    pub fn write_json(&self, out: &mut String, normalize_tid: bool) {
        out.push('{');
        let mut first = true;
        first = json::write_key(out, "cat", first);
        json::write_escaped(out, self.cat);
        first = json::write_key(out, "name", first);
        json::write_escaped(out, &self.name);
        first = json::write_key(out, "ph", first);
        json::write_escaped(out, self.phase.chrome_code());
        first = json::write_key(out, "ts", first);
        json::write_u64(out, self.ts);
        if self.phase == TracePhase::Complete {
            first = json::write_key(out, "dur", first);
            json::write_u64(out, self.dur);
        }
        first = json::write_key(out, "tid", first);
        if normalize_tid {
            out.push('0');
        } else {
            json::write_u64(out, self.tid);
        }
        json::write_key(out, "args", first);
        out.push('{');
        let mut afirst = true;
        for (key, value) in &self.args {
            afirst = json::write_key(out, key, afirst);
            value.write_json(out);
        }
        let _ = afirst;
        out.push('}');
        out.push('}');
    }
}

/// A consumer of trace events. Implementations must be shareable across the
/// fault-simulation worker threads.
pub trait TraceSink: Send + Sync {
    /// Whether events are consumed. Emitters check this before building an
    /// event, so a disabled sink costs one branch.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn record(&self, event: TraceEvent);

    /// Records a batch of events, preserving their order. Hot paths that
    /// emit one event per item (e.g. per graded fault) buffer locally and
    /// flush per work chunk through this, so a shared sink pays one
    /// synchronization per chunk instead of one per event. The default
    /// forwards to [`TraceSink::record`] event by event.
    fn record_batch(&self, events: Vec<TraceEvent>) {
        for event in events {
            self.record(event);
        }
    }
}

/// The default sink: disabled, drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: TraceEvent) {}
}

/// A shareable handle to the default disabled sink.
pub fn null_sink() -> Arc<dyn TraceSink> {
    Arc::new(NullSink)
}

/// An in-memory sink; export as JSONL or a Chrome-trace file afterwards.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty, enabled sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of all recorded events, emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every recorded event (e.g. between benchmark iterations).
    pub fn clear(&self) {
        self.events.lock().expect("trace sink poisoned").clear();
    }

    /// JSON Lines export: one event object per line, emission order.
    pub fn jsonl(&self) -> String {
        let events = self.events.lock().expect("trace sink poisoned");
        let mut out = String::with_capacity(events.len() * 128);
        for event in events.iter() {
            event.write_json(&mut out, false);
            out.push('\n');
        }
        out
    }

    /// The canonical, scheduling-independent JSONL view: [`CAT_SCHED`]
    /// events are dropped, worker ids are normalized to 0, and lines are
    /// sorted lexicographically. Two runs of the same workload are
    /// byte-identical in this form regardless of thread count.
    pub fn canonical_jsonl(&self) -> String {
        let mut lines: Vec<String> = self
            .events
            .lock()
            .expect("trace sink poisoned")
            .iter()
            .filter(|e| e.cat != CAT_SCHED)
            .map(|e| e.to_json(true))
            .collect();
        lines.sort_unstable();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Chrome-trace export: a JSON object with a `traceEvents` array, ready
    /// for `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let events = self.events.lock().expect("trace sink poisoned");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Chrome requires a pid; everything here is one process.
            let json = event.to_json(false);
            out.push_str(&json[..json.len() - 1]);
            out.push_str(",\"pid\":1}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

impl TraceSink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(event);
    }

    fn record_batch(&self, events: Vec<TraceEvent>) {
        // One lock per chunk, not per event.
        self.events
            .lock()
            .expect("trace sink poisoned")
            .extend(events);
    }
}

impl fmt::Display for MemorySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemorySink({} events)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent::instant("x", "e", 0, vec![]));
    }

    #[test]
    fn jsonl_shape() {
        let sink = MemorySink::new();
        sink.record(TraceEvent::span(
            "controller",
            "CONFIGURATION",
            10,
            25,
            vec![("step", 0usize.into()), ("bits", 24usize.into())],
        ));
        sink.record(
            TraceEvent::instant("ppsfp", "fault", 3, vec![("detected", true.into())]).on_thread(2),
        );
        let jsonl = sink.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cat\":\"controller\",\"name\":\"CONFIGURATION\",\"ph\":\"X\",\
             \"ts\":10,\"dur\":25,\"tid\":0,\"args\":{\"step\":0,\"bits\":24}}"
        );
        assert!(lines[1].contains("\"tid\":2"));
        assert!(lines[1].contains("\"detected\":true"));
    }

    #[test]
    fn canonical_drops_sched_and_normalizes_tid() {
        let sink = MemorySink::new();
        sink.record(TraceEvent::span(CAT_SCHED, "partition", 0, 99, vec![]).on_thread(1));
        sink.record(TraceEvent::instant("ppsfp", "b", 2, vec![]).on_thread(7));
        sink.record(TraceEvent::instant("ppsfp", "a", 1, vec![]).on_thread(3));
        let canon = sink.canonical_jsonl();
        assert!(!canon.contains("partition"));
        assert!(!canon.contains("\"tid\":7"));
        let lines: Vec<&str> = canon.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0] < lines[1], "sorted");
    }

    #[test]
    fn chrome_trace_is_wrapped_and_has_pids() {
        let sink = MemorySink::new();
        sink.record(TraceEvent::instant("c", "e1", 0, vec![]));
        sink.record(TraceEvent::instant("c", "e2", 1, vec![]));
        let chrome = sink.chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("\"displayTimeUnit\":\"ns\"}"));
        assert_eq!(chrome.matches("\"pid\":1").count(), 2);
    }

    #[test]
    fn record_batch_preserves_order_and_matches_record() {
        let one_by_one = MemorySink::new();
        let batched = MemorySink::new();
        let events: Vec<TraceEvent> = (0..10u64)
            .map(|i| TraceEvent::instant("x", format!("e{i}"), i, vec![]))
            .collect();
        for event in events.clone() {
            one_by_one.record(event);
        }
        batched.record_batch(events);
        assert_eq!(one_by_one.events(), batched.events());
        assert_eq!(one_by_one.jsonl(), batched.jsonl());
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let sink: Arc<MemorySink> = MemorySink::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    sink.record(TraceEvent::instant("x", "e", t, vec![]).on_thread(t));
                });
            }
        });
        assert_eq!(sink.len(), 4);
    }
}
