//! Hierarchical trace trees with bounded tail-sampling retention.
//!
//! The stage histograms in the crate root answer "how slow is
//! `layer_execute` in aggregate"; this module answers "why was trace
//! `0x7f3a` slow" — per request, per shard. A request's spans form a
//! tree: the gateway roots one span per inference request, the serving
//! worker that pops it hangs a `dispatch` child under it, and the
//! engines hang per-layer / per-shard / halo children under that, each
//! carrying key-value tags (shard index, layer, wavefront count,
//! protocol).
//!
//! **One record feeds every view.** There is one RAII span type,
//! [`OpenSpan`], and one retroactive recorder, [`record_child_ns`]. A
//! span opened for stage `S` under parent context `P` is live whenever
//! telemetry is enabled; its drop takes one duration and records it
//! into the `stage_ns/S` histogram and, when `P` is active, into `P`'s
//! tree — the same instant, the same number. The flight-recorder entry
//! is derived in turn when the root finishes (its direct children), so
//! the histogram, the tree and the flight ring cannot disagree.
//!
//! The design keeps the serving stack's cost model intact:
//!
//! * **Cheap requests stay cheap.** With telemetry disabled
//!   ([`crate::enabled`]) opening a span is one relaxed load: no clock
//!   read, no allocation. With it enabled, a span under an inactive
//!   parent ([`TraceCtx::NONE`] — the store's `wal_append`, a direct
//!   `engine.infer`) feeds its stage histogram only; a request grows a
//!   tree only when the gateway rooted a span for it.
//! * **Tail sampling.** Finished trees are *retained* only when the
//!   request was slow (total time over [`slow_threshold_ns`],
//!   configurable via [`set_slow_threshold_ns`] or
//!   `IGCN_TRACE_THRESHOLD_MS`) or did not finish `"ok"`. Everything
//!   else is assembled and immediately discarded, so steady-state fast
//!   traffic costs span records but no storage.
//! * **Everything is bounded.** At most [`MAX_IN_PROGRESS`] trees
//!   assemble concurrently (excess traces are dropped and counted in
//!   the `traces_dropped` counter), each tree holds at most
//!   [`MAX_SPANS_PER_TRACE`] spans (excess spans tick the tree's
//!   `truncated_spans`), and the retention ring holds at most
//!   [`retention`] trees (oldest evicted first).
//!
//! Retained trees export as Chrome trace-event JSON
//! ([`RetainedTrace::to_chrome_json`]) loadable in `chrome://tracing`
//! / Perfetto, and the gateway serves them on `GET /trace/{id}` +
//! `GET /traces`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{counter, elapsed_ns, stage_histogram, FlightEntry};

/// Upper bound on concurrently assembling traces. A gateway at this
/// many in-flight *traced* requests stops collecting new trees (they
/// are dropped and counted) rather than growing without bound.
pub const MAX_IN_PROGRESS: usize = 512;

/// Upper bound on spans per tree. Spans past it are dropped and
/// counted in [`RetainedTrace::truncated_spans`].
pub const MAX_SPANS_PER_TRACE: usize = 2048;

const DEFAULT_RETENTION: usize = 64;
const DEFAULT_SLOW_THRESHOLD_MS: u64 = 500;

/// A span's coordinates inside a trace tree: which trace, and which
/// span to parent children under. `Copy`, 16 bytes — cheap to stamp on
/// requests and capture into worker closures.
///
/// [`TraceCtx::NONE`] (`trace_id == 0`) is the inactive context: spans
/// opened under it feed their stage histogram and no tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The end-to-end trace id (0 = no trace attached).
    pub trace_id: u64,
    /// The span to parent children under (0 = root level).
    pub span_id: u64,
}

impl TraceCtx {
    /// The inert context: no trace attached.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, span_id: 0 };

    /// Whether spans opened under this context join a trace tree.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

/// One recorded span of a finished (or assembling) trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub span_id: u64,
    /// Parent span id (0 for the root span).
    pub parent_id: u64,
    /// Stage/step name (`"request"`, `"dispatch"`, `"shard_execute"`…).
    pub name: &'static str,
    /// Start offset in nanoseconds, relative to the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Key-value tags (`("shard", "2")`, `("layer", "0")`…).
    pub tags: Vec<(&'static str, String)>,
}

struct PendingTrace {
    spans: Vec<SpanRecord>,
    truncated_spans: u64,
}

/// A finished, retained trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedTrace {
    /// The end-to-end trace id.
    pub trace_id: u64,
    /// Terminal status: `"ok"`, `"failed"`, `"shed"`, `"deadline"`,
    /// `"aborted"`.
    pub status: &'static str,
    /// Total root-to-finish duration in nanoseconds.
    pub total_ns: u64,
    /// Spans in record order (parents are recorded after their
    /// children finish, so order is not topological — sort by
    /// `start_ns` for display).
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the tree hit [`MAX_SPANS_PER_TRACE`].
    pub truncated_spans: u64,
}

struct TraceStore {
    in_progress: HashMap<u64, PendingTrace>,
    retained: VecDeque<RetainedTrace>,
    retention: usize,
}

fn store() -> &'static Mutex<TraceStore> {
    static STORE: OnceLock<Mutex<TraceStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(TraceStore {
            in_progress: HashMap::new(),
            retained: VecDeque::new(),
            retention: std::env::var("IGCN_TRACE_RETAIN")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_RETENTION),
        })
    })
}

fn store_lock() -> std::sync::MutexGuard<'static, TraceStore> {
    store().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn slow_threshold() -> &'static AtomicU64 {
    static THRESHOLD: OnceLock<AtomicU64> = OnceLock::new();
    THRESHOLD.get_or_init(|| {
        let ms = std::env::var("IGCN_TRACE_THRESHOLD_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SLOW_THRESHOLD_MS);
        AtomicU64::new(ms.saturating_mul(1_000_000))
    })
}

/// The tail-sampling slow threshold in nanoseconds: a trace finishing
/// `"ok"` is retained only when its total time is at or over this.
pub fn slow_threshold_ns() -> u64 {
    slow_threshold().load(Ordering::Relaxed)
}

/// Sets the tail-sampling slow threshold (0 retains every finished
/// trace). Defaults to 500 ms, or `IGCN_TRACE_THRESHOLD_MS` when set.
pub fn set_slow_threshold_ns(ns: u64) {
    slow_threshold().store(ns, Ordering::Relaxed);
}

/// The retention ring capacity.
pub fn retention() -> usize {
    store_lock().retention
}

/// Sets the retention ring capacity (evicting oldest entries if the
/// ring is over the new bound). Defaults to 64, or `IGCN_TRACE_RETAIN`
/// when set.
///
/// # Panics
///
/// Panics if `n == 0` — a zero-capacity ring would silently disable
/// the subsystem; use the slow threshold to tune volume instead.
pub fn set_retention(n: usize) {
    assert!(n > 0, "trace retention must be positive");
    let mut s = store_lock();
    s.retention = n;
    while s.retained.len() > n {
        s.retained.pop_front();
    }
}

/// The process trace epoch: all span timestamps are offsets from this
/// instant, so spans recorded on different threads order correctly.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Pushes one finished span record into its assembling trace. No-op if
/// the trace is not assembling (dropped, finished, or never begun).
fn push_span(trace_id: u64, record: SpanRecord) {
    let mut s = store_lock();
    if let Some(pending) = s.in_progress.get_mut(&trace_id) {
        if pending.spans.len() < MAX_SPANS_PER_TRACE {
            pending.spans.push(record);
        } else {
            pending.truncated_spans += 1;
        }
    }
}

/// Number of traces currently assembling (leak check for tests and
/// the `/traces` endpoint).
pub fn in_progress_count() -> usize {
    store_lock().in_progress.len()
}

/// Number of retained trace trees.
pub fn retained_count() -> usize {
    store_lock().retained.len()
}

/// The retained trees, oldest first (cloned snapshots).
pub fn retained_traces() -> Vec<RetainedTrace> {
    store_lock().retained.iter().cloned().collect()
}

/// The retained tree for `trace_id`, if any. When the same trace id
/// was retained more than once (a client reusing ids), the most recent
/// tree wins.
pub fn retained_trace(trace_id: u64) -> Option<RetainedTrace> {
    store_lock().retained.iter().rev().find(|t| t.trace_id == trace_id).cloned()
}

/// Drops every assembling and retained trace (tool/test use).
pub fn reset_traces() {
    let mut s = store_lock();
    s.in_progress.clear();
    s.retained.clear();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct LiveSpan {
    /// 0 when the parent was inactive: histogram only, no tree record.
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    tags: Vec<(&'static str, String)>,
}

/// An open stage span — the one RAII span type. Its drop takes the
/// duration once and records it into the `stage_ns/<name>` histogram
/// and, when it was opened under an active parent, into that parent's
/// trace tree. Inert — one relaxed load, no clock read, no allocation —
/// while telemetry is disabled: the live state is boxed, so an inert
/// span is a null pointer.
#[must_use = "an open span records on drop; binding it to _ drops immediately"]
pub struct OpenSpan {
    live: Option<Box<LiveSpan>>,
}

impl OpenSpan {
    /// Starts timing stage `name` (a name from the [`crate::stage`]
    /// glossary, or any ad-hoc stage name) as a child of `parent`.
    /// Under an inactive `parent` the span feeds its histogram only.
    #[inline]
    pub fn child(parent: TraceCtx, name: &'static str) -> OpenSpan {
        if !crate::enabled() {
            return OpenSpan { live: None };
        }
        OpenSpan::open(parent, name)
    }

    #[inline(never)]
    fn open(parent: TraceCtx, name: &'static str) -> OpenSpan {
        // The epoch is pinned before `start` is read, so the offset
        // below never saturates.
        let epoch = epoch();
        let start = Instant::now();
        OpenSpan {
            live: Some(Box::new(LiveSpan {
                trace_id: parent.trace_id,
                span_id: if parent.is_active() { next_span_id() } else { 0 },
                parent_id: parent.span_id,
                name,
                start,
                start_ns: u64::try_from(start.saturating_duration_since(epoch).as_nanos())
                    .unwrap_or(u64::MAX),
                tags: Vec::new(),
            })),
        }
    }

    /// The context children of this span should be opened under
    /// ([`TraceCtx::NONE`] when this span is in no tree — its children
    /// then feed their histograms only).
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            Some(live) if live.trace_id != 0 => {
                TraceCtx { trace_id: live.trace_id, span_id: live.span_id }
            }
            _ => TraceCtx::NONE,
        }
    }

    /// Attaches a key-value tag. The value is only formatted when the
    /// span is in a tree.
    pub fn tag(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(live) = self.live.as_mut().filter(|live| live.trace_id != 0) {
            live.tags.push((key, value.to_string()));
        }
    }
}

impl Drop for OpenSpan {
    #[inline]
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur_ns = elapsed_ns(live.start);
            stage_histogram(live.name).record(dur_ns);
            if live.trace_id != 0 {
                push_span(live.trace_id, live.into_record(dur_ns));
            }
        }
    }
}

impl LiveSpan {
    fn into_record(self, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns,
            tags: self.tags,
        }
    }
}

/// Records an already-measured stage of `dur_ns` nanoseconds ending
/// *now* — the one retroactive recorder, for stages timed with explicit
/// clocks before their parent was known (gateway decode, queue wait).
/// Like a dropped [`OpenSpan`]: the duration goes into the
/// `stage_ns/<name>` histogram and, when `parent` is active, into its
/// tree. No-op while telemetry is disabled.
pub fn record_child_ns(parent: TraceCtx, name: &'static str, dur_ns: u64) {
    if !crate::enabled() {
        return;
    }
    stage_histogram(name).record(dur_ns);
    if parent.is_active() {
        let end_ns = elapsed_ns(epoch());
        push_span(
            parent.trace_id,
            SpanRecord {
                span_id: next_span_id(),
                parent_id: parent.span_id,
                name,
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
                tags: Vec::new(),
            },
        );
    }
}

/// The root span of one request's trace tree.
///
/// Created by the serving edge once per traced request
/// ([`root_span`]); [`RootSpan::finish`] closes the tree with a
/// terminal status, appends the request's [`FlightEntry`] and runs the
/// tail-sampling retention decision. A `RootSpan` dropped *without*
/// `finish` — a died connection, a forced shutdown — finishes its tree
/// as `"aborted"`, so assembling traces can never leak. The root is the
/// request, not a stage: it feeds no histogram.
#[must_use = "an unfinished root span aborts its trace on drop"]
pub struct RootSpan {
    span: OpenSpan,
}

impl RootSpan {
    /// The context request stages should parent under.
    pub fn ctx(&self) -> TraceCtx {
        self.span.ctx()
    }

    /// Whether this request is growing a tree.
    pub fn is_live(&self) -> bool {
        self.span.live.is_some()
    }

    /// Attaches a key-value tag to the root span. The `protocol` and
    /// `request_id` tags are what the request's [`FlightEntry`] reports.
    pub fn tag(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.span.tag(key, value);
    }

    /// Closes the tree with `status`, appends the flight-recorder entry
    /// derived from it, and decides retention: trees that did not
    /// finish `"ok"`, or whose total time is at or over
    /// [`slow_threshold_ns`], enter the bounded retention ring.
    pub fn finish(mut self, status: &'static str) {
        self.finish_inner(status);
    }

    fn finish_inner(&mut self, status: &'static str) {
        let Some(live) = self.span.live.take() else {
            return;
        };
        let trace_id = live.trace_id;
        let total_ns = elapsed_ns(live.start);
        // Out of the assembly map first: everything derived below is
        // this request's alone and needs no lock.
        let Some(mut pending) = store_lock().in_progress.remove(&trace_id) else {
            return;
        };
        let mut stages: Vec<&SpanRecord> =
            pending.spans.iter().filter(|c| c.parent_id == live.span_id).collect();
        stages.sort_by_key(|c| c.start_ns);
        let tag = |key: &str| live.tags.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str());
        crate::flight_record(FlightEntry {
            trace_id,
            request_id: tag("request_id").and_then(|v| v.parse().ok()).unwrap_or(0),
            protocol: tag("protocol").unwrap_or_default().to_string(),
            status,
            stages: stages.iter().map(|c| (c.name, c.dur_ns)).collect(),
        });
        if status == "ok" && total_ns < slow_threshold_ns() {
            return; // tail sampling: a fast ok tree is discarded
        }
        if pending.spans.len() < MAX_SPANS_PER_TRACE {
            pending.spans.push(live.into_record(total_ns));
        } else {
            pending.truncated_spans += 1;
        }
        let mut s = store_lock();
        while s.retained.len() >= s.retention {
            s.retained.pop_front();
        }
        s.retained.push_back(RetainedTrace {
            trace_id,
            status,
            total_ns,
            spans: pending.spans,
            truncated_spans: pending.truncated_spans,
        });
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        self.finish_inner("aborted");
    }
}

/// Begins a trace tree for `trace_id` and opens its root span. The
/// returned root is inert (nothing is collected, and the request leaves
/// no flight entry) when telemetry is disabled, `trace_id` is 0, the
/// same id is already assembling, or [`MAX_IN_PROGRESS`] trees are in
/// flight (the last two counted in the `traces_dropped` counter).
pub fn root_span(trace_id: u64, name: &'static str) -> RootSpan {
    if trace_id == 0 || !crate::enabled() {
        return RootSpan { span: OpenSpan { live: None } };
    }
    {
        let mut s = store_lock();
        if s.in_progress.contains_key(&trace_id) || s.in_progress.len() >= MAX_IN_PROGRESS {
            drop(s);
            counter("traces_dropped").inc();
            return RootSpan { span: OpenSpan { live: None } };
        }
        s.in_progress.insert(trace_id, PendingTrace { spans: Vec::new(), truncated_spans: 0 });
    }
    // A root is its own tree's top: parented under (trace, span 0).
    RootSpan { span: OpenSpan::open(TraceCtx { trace_id, span_id: 0 }, name) }
}

// ---------------------------------------------------------------------------
// Ambient context
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: std::cell::Cell<TraceCtx> = const { std::cell::Cell::new(TraceCtx::NONE) };
}

/// Restores the previous ambient context on drop.
pub struct AmbientGuard {
    prev: TraceCtx,
    installed: bool,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        if self.installed {
            AMBIENT.with(|c| c.set(self.prev));
        }
    }
}

/// Installs `ctx` as this thread's ambient trace context for the
/// guard's lifetime. Engines read it ([`ambient`]) to parent their
/// layer spans without threading a context through every call
/// signature. Installing an inactive context is free (no TLS write).
pub fn with_ambient(ctx: TraceCtx) -> AmbientGuard {
    if !ctx.is_active() {
        return AmbientGuard { prev: TraceCtx::NONE, installed: false };
    }
    let prev = AMBIENT.with(|c| c.replace(ctx));
    AmbientGuard { prev, installed: true }
}

/// This thread's ambient trace context ([`TraceCtx::NONE`] when the
/// current work is untraced). Worker-pool closures do **not** inherit
/// it — capture a [`TraceCtx`] by value into the closure instead.
pub fn ambient() -> TraceCtx {
    AMBIENT.with(std::cell::Cell::get)
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Minimal JSON string escaping (the crate is dependency-free by
/// design, so the exporter hand-rolls its encoding).
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

impl RetainedTrace {
    /// Renders the tree in Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in
    /// `chrome://tracing` and Perfetto.
    ///
    /// Every span becomes one complete (`"ph":"X"`) event with
    /// microsecond `ts`/`dur`; spans tagged `shard=K` render on track
    /// `tid = K + 1` so per-shard work lines up visually, everything
    /// else on track 0. Span ids, parent ids and tags ride in `args`,
    /// so the tree structure survives the export.
    pub fn to_chrome_json(&self) -> String {
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        let mut out = String::with_capacity(256 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"igcn\"}}",
        );
        for span in spans {
            let tid = span
                .tags
                .iter()
                .find(|(k, _)| *k == "shard")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .map_or(0, |shard| shard + 1);
            out.push_str(",{\"name\":\"");
            escape_into(&mut out, span.name);
            out.push_str("\",\"cat\":\"igcn\",\"ph\":\"X\",\"ts\":");
            push_us(&mut out, span.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, span.dur_ns);
            out.push_str(&format!(",\"pid\":1,\"tid\":{tid},\"args\":{{"));
            out.push_str(&format!(
                "\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}",
                self.trace_id, span.span_id, span.parent_id
            ));
            for (key, value) in &span.tags {
                out.push_str(",\"");
                escape_into(&mut out, key);
                out.push_str("\":\"");
                escape_into(&mut out, value);
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str(&format!(
            "],\"otherData\":{{\"trace_id\":\"{:016x}\",\"status\":\"{}\",\
             \"total_ns\":{},\"truncated_spans\":{}}}}}",
            self.trace_id, self.status, self.total_ns, self.truncated_spans
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::enabled_lock as serial;

    /// The zeroed histogram of a test-private stage.
    fn fresh_stage(stage: &str) -> &'static crate::Histogram {
        let h = stage_histogram(stage);
        h.reset();
        h
    }

    #[test]
    fn inert_paths_record_nothing() {
        let _s = serial();
        crate::set_enabled(false);
        reset_traces();
        let h = fresh_stage("test_disabled");
        let flights = crate::flight_entries().len();
        // Even a nonzero trace id roots nothing.
        let root = root_span(0xAA, "request");
        assert!(!root.is_live());
        assert_eq!(root.ctx(), TraceCtx::NONE);
        drop(OpenSpan::child(root.ctx(), "test_disabled"));
        record_child_ns(root.ctx(), "test_disabled", 10);
        root.finish("ok");
        assert_eq!(h.snapshot().count(), 0, "disabled spans must not record");
        assert_eq!(in_progress_count(), 0);
        assert_eq!(retained_count(), 0);
        assert_eq!(crate::flight_entries().len(), flights, "an inert root leaves no flight entry");
    }

    #[test]
    fn one_drop_feeds_histogram_and_tree_with_the_same_number() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(0); // retain everything
        let (dropped, retro) = (fresh_stage("test_one_drop"), fresh_stage("test_one_retro"));
        let root = root_span(0x0D0, "request");
        drop(OpenSpan::child(root.ctx(), "test_one_drop"));
        record_child_ns(root.ctx(), "test_one_retro", 1_234);
        root.finish("ok");
        crate::set_enabled(false);

        let tree = retained_trace(0x0D0).expect("threshold 0 retains the tree");
        let dur = |name: &str| tree.spans.iter().find(|s| s.name == name).unwrap().dur_ns;
        // One record each, so the histogram's exact sum and max *are*
        // that record: the very nanosecond count the tree holds.
        for (hist, name) in [(dropped, "test_one_drop"), (retro, "test_one_retro")] {
            let snap = hist.snapshot();
            assert_eq!(snap.count(), 1, "{name}: one span is one histogram record");
            assert_eq!((snap.sum, snap.max), (dur(name), dur(name)), "{name}: views disagree");
        }
        assert_eq!(dur("test_one_retro"), 1_234);
        reset_traces();
    }

    #[test]
    fn a_span_under_an_inactive_parent_still_feeds_its_histogram() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        let h = fresh_stage("test_inactive_parent");
        let mut span = OpenSpan::child(TraceCtx::NONE, "test_inactive_parent");
        span.tag("ignored", 1);
        assert_eq!(span.ctx(), TraceCtx::NONE, "no tree, so children get no parent either");
        drop(span);
        record_child_ns(TraceCtx::NONE, "test_inactive_parent", 10);
        crate::set_enabled(false);
        assert_eq!(h.snapshot().count(), 2, "the store's spans have no root and must still count");
        assert_eq!(in_progress_count(), 0);
        assert_eq!(retained_count(), 0);
    }

    #[test]
    fn flight_entry_is_the_roots_direct_children() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(0);
        let mut root = root_span(0xF1, "request");
        root.tag("protocol", "http");
        root.tag("request_id", 9);
        record_child_ns(root.ctx(), "gateway_decode_http", 40);
        let dispatch = OpenSpan::child(root.ctx(), "dispatch");
        drop(OpenSpan::child(dispatch.ctx(), "layer_execute")); // a grandchild
        drop(dispatch);
        drop(OpenSpan::child(root.ctx(), "response_encode_http"));
        let root_id = root.ctx().span_id;
        root.finish("ok");
        crate::set_enabled(false);

        let entry = crate::flight_entries().into_iter().rfind(|e| e.trace_id == 0xF1).unwrap();
        assert_eq!((entry.protocol.as_str(), entry.request_id, entry.status), ("http", 9, "ok"));
        let names: Vec<&str> = entry.stages.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["gateway_decode_http", "dispatch", "response_encode_http"]);
        // Not a copy of the numbers: the same spans.
        let tree = retained_trace(0xF1).unwrap();
        let mut children: Vec<&SpanRecord> =
            tree.spans.iter().filter(|s| s.parent_id == root_id).collect();
        children.sort_by_key(|s| s.start_ns);
        let from_tree: Vec<(&str, u64)> = children.iter().map(|s| (s.name, s.dur_ns)).collect();
        assert_eq!(entry.stages, from_tree);
        reset_traces();
    }

    #[test]
    fn tree_assembles_with_parents_and_tags() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(0); // retain everything
        let mut root = root_span(0xB0B, "request");
        assert!(root.is_live());
        root.tag("protocol", "http");
        let mut layer = OpenSpan::child(root.ctx(), "layer_execute");
        layer.tag("layer", 0);
        let mut shard = OpenSpan::child(layer.ctx(), "shard_execute");
        shard.tag("shard", 1);
        let (layer_id, shard_id) = (layer.ctx().span_id, shard.ctx().span_id);
        drop(shard);
        drop(layer);
        record_child_ns(root.ctx(), "queue_wait", 1_234);
        let root_id = root.ctx().span_id;
        root.finish("ok");
        crate::set_enabled(false);

        assert_eq!(in_progress_count(), 0, "finish must remove the assembling tree");
        let tree = retained_trace(0xB0B).expect("threshold 0 retains the tree");
        assert_eq!(tree.status, "ok");
        assert_eq!(tree.spans.len(), 4);
        let find = |id: u64| tree.spans.iter().find(|s| s.span_id == id).unwrap();
        assert_eq!(find(root_id).parent_id, 0);
        assert_eq!(find(layer_id).parent_id, root_id);
        assert_eq!(find(shard_id).parent_id, layer_id);
        assert_eq!(find(shard_id).tags, vec![("shard", "1".to_string())]);
        // Every non-root span's parent exists in the tree.
        for span in &tree.spans {
            assert!(
                span.parent_id == 0 || tree.spans.iter().any(|p| p.span_id == span.parent_id),
                "span {} has a dangling parent {}",
                span.span_id,
                span.parent_id
            );
        }
        reset_traces();
    }

    #[test]
    fn tail_sampling_drops_fast_ok_traces_and_keeps_errored_ones() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(u64::MAX >> 1); // nothing is "slow"
        root_span(0x1, "request").finish("ok");
        assert_eq!(retained_count(), 0, "a fast ok trace must be discarded");
        root_span(0x2, "request").finish("failed");
        assert_eq!(retained_count(), 1, "an errored trace must be retained");
        drop(root_span(0x3, "request")); // dropped without finish
        crate::set_enabled(false);
        let aborted = retained_trace(0x3).expect("a dropped root aborts and retains its trace");
        assert_eq!(aborted.status, "aborted");
        let flight = crate::flight_entries().into_iter().rfind(|e| e.trace_id == 0x3);
        assert_eq!(flight.map(|e| e.status), Some("aborted"), "and leaves its flight entry");
        assert_eq!(in_progress_count(), 0);
        set_slow_threshold_ns(DEFAULT_SLOW_THRESHOLD_MS * 1_000_000);
        reset_traces();
    }

    #[test]
    fn retention_ring_is_bounded() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(0);
        let prev = retention();
        set_retention(4);
        for id in 1..=20u64 {
            root_span(id, "request").finish("ok");
        }
        crate::set_enabled(false);
        assert_eq!(retained_count(), 4, "retention ring must stay at its bound");
        let kept: Vec<u64> = retained_traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(kept, vec![17, 18, 19, 20], "oldest trees evicted first");
        set_retention(prev);
        set_slow_threshold_ns(DEFAULT_SLOW_THRESHOLD_MS * 1_000_000);
        reset_traces();
    }

    #[test]
    fn span_and_trace_caps_hold() {
        let _s = serial();
        crate::set_enabled(true);
        reset_traces();
        set_slow_threshold_ns(0);
        let root = root_span(0xCAFE, "request");
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            drop(OpenSpan::child(root.ctx(), "layer_execute"));
        }
        root.finish("ok");
        let tree = retained_trace(0xCAFE).unwrap();
        assert_eq!(tree.spans.len(), MAX_SPANS_PER_TRACE);
        // +1: the root span itself also hit the full tree.
        assert_eq!(tree.truncated_spans, 11);

        // In-progress cap: the 513th concurrent trace is dropped.
        reset_traces();
        let roots: Vec<RootSpan> =
            (1..=MAX_IN_PROGRESS as u64).map(|id| root_span(id, "request")).collect();
        assert!(roots.iter().all(RootSpan::is_live));
        let dropped_before = counter("traces_dropped").get();
        let overflow = root_span(9_999, "request");
        assert!(!overflow.is_live(), "traces beyond MAX_IN_PROGRESS must be dropped");
        assert_eq!(counter("traces_dropped").get(), dropped_before + 1);
        drop(roots);
        crate::set_enabled(false);
        set_slow_threshold_ns(DEFAULT_SLOW_THRESHOLD_MS * 1_000_000);
        reset_traces();
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        let outer = TraceCtx { trace_id: 7, span_id: 1 };
        let inner = TraceCtx { trace_id: 7, span_id: 2 };
        assert_eq!(ambient(), TraceCtx::NONE);
        {
            let _g1 = with_ambient(outer);
            assert_eq!(ambient(), outer);
            {
                let _g2 = with_ambient(inner);
                assert_eq!(ambient(), inner);
                // Installing an inactive ctx is a no-op, not a clear.
                let _g3 = with_ambient(TraceCtx::NONE);
                assert_eq!(ambient(), inner);
            }
            assert_eq!(ambient(), outer);
        }
        assert_eq!(ambient(), TraceCtx::NONE);
    }

    #[test]
    fn chrome_export_is_valid_and_complete() {
        let tree = RetainedTrace {
            trace_id: 0xDEAD,
            status: "ok",
            total_ns: 2_500,
            spans: vec![
                SpanRecord {
                    span_id: 1,
                    parent_id: 0,
                    name: "request",
                    start_ns: 0,
                    dur_ns: 2_500,
                    tags: vec![("protocol", "http".to_string())],
                },
                SpanRecord {
                    span_id: 2,
                    parent_id: 1,
                    name: "shard_execute",
                    start_ns: 500,
                    dur_ns: 1_000,
                    tags: vec![("shard", "2".to_string()), ("note", "a\"b".to_string())],
                },
            ],
            truncated_spans: 0,
        };
        let json = tree.to_chrome_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.500"), "µs timestamps with ns precision");
        assert!(json.contains("\"dur\":1.000"));
        assert!(json.contains("\"tid\":3"), "shard 2 renders on track 3");
        assert!(json.contains("\"shard\":\"2\""));
        assert!(json.contains("a\\\"b"), "tag values must be escaped");
        assert!(json.contains("\"trace_id\":\"000000000000dead\""));
        // Balanced braces/brackets outside strings — cheap structural
        // validity check without a JSON parser in this crate.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced JSON structure");
        assert!(!in_str);
    }
}
