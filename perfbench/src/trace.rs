//! The benchmark's own host-clock spans.
//!
//! Spans are recorded from the benchmark's files only, around its calls
//! into each layer's public functions: workload → rep → setup / `run_job`
//! / map / reduce / sort probe / journal resume / service calls. They are
//! kept in memory, linked to their parent, and written at the end as a
//! Perfetto trace. Recording is off unless the run is traced; a disabled
//! scope only runs its closure.
//!
//! Self time per layer (a span's duration minus what its children cover)
//! is summed as spans close, over every span. The written trace keeps
//! the top three levels whole but only the first [`MAX_DEEP_SPANS`]
//! deeper ones: the trace validator's cost grows faster than the trace.
//! Whether a span is kept is decided when it opens, so a kept span's
//! parent is always kept too.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpmr_telemetry::export::{to_perfetto_json, validate_perfetto};
use gpmr_telemetry::{SpanRecord, TelemetrySnapshot};

/// Spans below the third level kept in the written trace.
const MAX_DEEP_SPANS: usize = 1_000;

/// One recorded span, in host time since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

struct Open {
    id: u64,
    keep: bool,
    /// Time covered by this span's closed children.
    children: Duration,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    next_id: u64,
    kept_deep: usize,
    dropped: usize,
    self_time: Vec<(&'static str, Duration)>,
}

impl Tracer {
    /// Allocate an id and decide whether the new span is written out.
    fn open(&mut self) -> (u64, Option<u64>, bool) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        let keep = self.stack.len() < 3 || self.kept_deep < MAX_DEEP_SPANS;
        if self.stack.len() >= 3 {
            if keep {
                self.kept_deep += 1;
            } else {
                self.dropped += 1;
            }
        }
        (id, parent, keep)
    }

    /// Account a closed span of `dur` (of which `children` is covered by
    /// its own children) to its layer and to its parent.
    fn close(&mut self, layer: &'static str, dur: Duration, children: Duration) {
        let own = dur.saturating_sub(children);
        match self.self_time.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += own,
            None => self.self_time.push((layer, own)),
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children += dur;
        }
    }
}

static TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    TRACER
        .lock()
        .expect("tracer mutex poisoned by a panicking span")
        .as_mut()
        .map(f)
}

/// Start recording. Until this is called every function here is a no-op.
pub fn enable() {
    *TRACER.lock().expect("tracer mutex poisoned") = Some(Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        next_id: 1,
        kept_deep: 0,
        dropped: 0,
        self_time: Vec::new(),
    });
}

/// Run `f` inside a span of `layer`, nested under the innermost open
/// scope.
pub fn scope<R>(layer: &'static str, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
    let opened = with(|t| {
        let (id, parent, keep) = t.open();
        t.stack.push(Open {
            id,
            keep,
            children: Duration::ZERO,
        });
        (id, parent, t.origin)
    });
    let Some((id, parent, origin)) = opened else {
        return f();
    };
    let start = origin.elapsed();
    let out = f();
    let end = origin.elapsed();
    let name = name.into();
    with(|t| {
        let open = t.stack.pop().expect("scopes close in order");
        t.close(layer, end - start, open.children);
        if open.keep {
            t.spans.push(Span {
                id,
                parent,
                layer,
                name,
                start,
                end,
            });
        }
    });
    out
}

/// Record an already-timed leaf span under the innermost open scope.
pub fn leaf(layer: &'static str, name: &str, start: Instant, end: Instant) {
    with(|t| {
        let (id, parent, keep) = t.open();
        t.close(layer, end - start, Duration::ZERO);
        if keep {
            let (start, end) = (start - t.origin, end - t.origin);
            t.spans.push(Span {
                id,
                parent,
                layer,
                name: name.to_string(),
                start,
                end,
            });
        }
    });
}

/// What tracing recorded, or `None` when it is off.
pub struct Recording {
    /// The spans kept for the written trace.
    pub spans: Vec<Span>,
    /// Spans left out of the written trace (still in the self times).
    pub dropped: usize,
    /// Host self time per layer, over every span.
    pub self_time: Vec<(&'static str, Duration)>,
}

pub fn recording() -> Option<Recording> {
    with(|t| Recording {
        spans: t.spans.clone(),
        dropped: t.dropped,
        self_time: t.self_time.clone(),
    })
}

/// Render the spans as a Perfetto trace and check it with the telemetry
/// crate's validator. Returns the document and its complete-event count.
pub fn to_perfetto(spans: &[Span]) -> Result<(String, usize), String> {
    let mut snap = TelemetrySnapshot::default();
    snap.tracks.insert(0, "perfbench host clock".to_string());
    snap.spans = spans
        .iter()
        .map(|s| SpanRecord {
            id: s.id,
            parent: s.parent,
            track: 0,
            kind: s.layer.to_string(),
            name: s.name.clone(),
            start_s: s.start.as_secs_f64(),
            end_s: s.end.as_secs_f64(),
            attrs: vec![("layer".to_string(), s.layer.to_string())],
        })
        .collect();
    let doc = to_perfetto_json(&snap);
    let stats = validate_perfetto(&doc)?;
    Ok((doc, stats.complete_events))
}
