//! Vendored process-global telemetry, in the same hermetic spirit as
//! `igcn-fail` and `igcn-simd`: no dependencies, one `static` registry,
//! and a disabled fast path cheap enough to leave compiled into every
//! production code path.
//!
//! Three primitives cover the serving stack's observability needs:
//!
//! * **Metrics** — [`counter`], [`gauge`] and [`histogram`] hand out
//!   `&'static` handles from a name-keyed registry. Recording is
//!   lock-free (plain atomic adds; histograms use fixed log₂ buckets so
//!   a latency record is one `fetch_add` plus a `fetch_max`), and
//!   [`HistogramSnapshot`]s are mergeable and subtractable, reporting
//!   p50/p90/p99/max with **bit-stable bucket bounds** — quantiles are
//!   always a bucket's inclusive upper bound `2^(i+1) - 1`, so the same
//!   records produce the same numbers on every machine.
//! * **Spans** — [`trace::OpenSpan::child(parent, stage)`](trace::OpenSpan::child)
//!   times a named stage; its drop records the one duration into
//!   `stage_ns/<stage>` and, when `parent` belongs to a request's trace
//!   tree, into that tree (see [`trace`]). Stages timed before their
//!   parent is known go through [`trace::record_child_ns`], the one
//!   retroactive recorder. When telemetry is disabled (the default)
//!   opening a span is one relaxed atomic load and no clock read — the
//!   overhead probe ([`disabled_span_overhead_ns`]) pins it at
//!   single-digit nanoseconds, the same contract the failpoint crate
//!   makes for `eval`.
//! * **Flight recorder** — a bounded ring ([`flight_entries`]) of
//!   the last [`FLIGHT_CAPACITY`] per-request stage breakdowns with
//!   their trace IDs, for postmortem dumps when a slow request has
//!   already left the building. Nobody assembles an entry: a request's
//!   root span appends it when it finishes, from its own children.
//!
//! Per-request **trace IDs** ([`next_trace_id`]) are process-unique,
//! never zero, and seeded from wall clock + pid so two processes do not
//! collide in practice. The gateway propagates them end-to-end
//! (`X-IGCN-Trace` header, binary frame header field) and stamps them
//! on flight-recorder entries and slow-request log lines.
//!
//! [`render_prometheus`] serialises the whole registry in Prometheus
//! text exposition format: counters as `igcn_<name>_total`, gauges as
//! `igcn_<name>`, and every stage histogram as one `igcn_stage_ns`
//! summary family with `stage` and `quantile` labels.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod trace;

pub use trace::TraceCtx;

/// Master switch. Disabled by default: opening a span is one relaxed
/// load and no request roots a trace (so none leaves a flight entry).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables telemetry process-wide. Serving edges call
/// `set_enabled(true)` at startup; unit tests and benches that need the
/// nanosecond-path leave it off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether telemetry is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The stage glossary: every named stage the serving stack records.
/// `obs_tool` drives load shaped to touch all of them and asserts every
/// histogram is non-empty, so a stage added here without wiring (or
/// wired without being declared) fails CI.
pub mod stage {
    /// HTTP/1.1 request head + body parse at the gateway.
    pub const GATEWAY_DECODE_HTTP: &str = "gateway_decode_http";
    /// Binary frame decode (header check + payload parse) at the gateway.
    pub const GATEWAY_DECODE_BINARY: &str = "gateway_decode_binary";
    /// Queue wait: request admitted → popped by a serving worker. On a
    /// tier that keeps up this is the time to wake a worker; under a
    /// backlog it is the service of the requests ahead. Nothing waits on
    /// a timer in it.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Dispatch: one request's service — popped by a serving worker →
    /// its outcome made, on that worker, with only that request's
    /// backend execution in between. A worker's `dispatch` spans never
    /// overlap; the hand-back to the IO thread is not in it.
    pub const DISPATCH: &str = "dispatch";
    /// One model layer, recorded per layer: a single engine's hot-path
    /// execution, or — in a sharded fleet — the coordinator's whole
    /// layer (halo exchange and merge included).
    pub const LAYER_EXECUTE: &str = "layer_execute";
    /// Sharded fleet: building + broadcasting the hub XW halo slab and
    /// the shard-local island fan-out of one layer.
    pub const HALO_EXCHANGE: &str = "halo_exchange";
    /// Sharded fleet: one shard's local island execution of one layer
    /// (recorded per shard per layer, inside `halo_exchange`).
    pub const SHARD_EXECUTE: &str = "shard_execute";
    /// Sharded fleet: schedule-order merge of per-island hub
    /// contributions + hub finalisation of one layer.
    pub const HALO_MERGE: &str = "halo_merge";
    /// One graph update's structural half, per record of a batch: the
    /// CSR patch and the locator rounds over what it disturbed.
    pub const UPDATE_STRUCTURAL: &str = "update_structural";
    /// The one layout recomposition that commits a batch of updates,
    /// tagged with what it carried over and what it rebuilt.
    pub const LAYOUT_RECOMPOSE: &str = "layout_recompose";
    /// One write-ahead-log record append (fsync included).
    pub const WAL_APPEND: &str = "wal_append";
    /// One crash-safe checkpoint (rotate + publish + WAL reset).
    pub const CHECKPOINT: &str = "checkpoint";
    /// HTTP response serialisation at the gateway.
    pub const RESPONSE_ENCODE_HTTP: &str = "response_encode_http";
    /// Binary response frame encode at the gateway.
    pub const RESPONSE_ENCODE_BINARY: &str = "response_encode_binary";

    /// Every declared stage, in pipeline order.
    pub const ALL: &[&str] = &[
        GATEWAY_DECODE_HTTP,
        GATEWAY_DECODE_BINARY,
        QUEUE_WAIT,
        DISPATCH,
        LAYER_EXECUTE,
        HALO_EXCHANGE,
        SHARD_EXECUTE,
        HALO_MERGE,
        UPDATE_STRUCTURAL,
        LAYOUT_RECOMPOSE,
        WAL_APPEND,
        CHECKPOINT,
        RESPONSE_ENCODE_HTTP,
        RESPONSE_ENCODE_BINARY,
    ];
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: HashMap<String, &'static Counter>,
    gauges: HashMap<String, &'static Gauge>,
    histograms: HashMap<String, &'static Histogram>,
    descriptions: HashMap<String, &'static str>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    // Telemetry must never take the process down: recover from a
    // poisoned lock (a panic under the registry lock) by using the
    // inner value — every operation on it is rebuild-safe.
    registry().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The process-global counter named `name`, created on first use. The
/// handle is `'static`: hot paths may look it up once and keep it.
pub fn counter(name: &str) -> &'static Counter {
    if let Some(c) = lock().counters.get(name) {
        return c;
    }
    let mut reg = lock();
    reg.counters.entry(name.to_string()).or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The process-global gauge named `name`, created on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    if let Some(g) = lock().gauges.get(name) {
        return g;
    }
    let mut reg = lock();
    reg.gauges.entry(name.to_string()).or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// The process-global histogram named `name`, created on first use.
/// Stage histograms use the bare stage name (see [`stage`]).
pub fn histogram(name: &str) -> &'static Histogram {
    if let Some(h) = lock().histograms.get(name) {
        return h;
    }
    let mut reg = lock();
    reg.histograms.entry(name.to_string()).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Registers help text for the metric named `name`, emitted as the
/// `# HELP` line in [`render_prometheus`]. First registration wins;
/// metrics without one get a generic per-kind default. Help must be a
/// single line (exposition-format comments cannot span lines).
pub fn describe(name: &str, help: &'static str) {
    debug_assert!(!help.contains('\n'), "metric help must be a single line");
    lock().descriptions.entry(name.to_string()).or_insert(help);
}

/// Zeroes every registered metric and clears the flight recorder.
/// Handles stay valid (values reset in place). Tool use only — counters
/// observed by concurrent recorders will simply restart from zero.
pub fn reset() {
    let reg = lock();
    for c in reg.counters.values() {
        c.value.store(0, Ordering::SeqCst);
    }
    for g in reg.gauges.values() {
        g.value.store(0, Ordering::SeqCst);
    }
    for h in reg.histograms.values() {
        h.reset();
    }
    drop(reg);
    flight().lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clear();
}

/// A monotonically increasing `u64` counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge (instantaneous level: queue depth, open connections).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of log₂ buckets: bucket 0 holds values `{0, 1}`, bucket `i`
/// holds `[2^i, 2^(i+1))`, bucket 63 holds everything from `2^63` up.
pub const NUM_BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram with lock-free recording.
///
/// Values are dimensionless `u64`s; the serving stack records
/// nanoseconds. Recording is two relaxed atomic RMWs (bucket + sum) plus
/// a `fetch_max`; there is no lock anywhere on the record path.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("p50", &s.quantile(0.50))
            .field("max", &s.max)
            .finish()
    }
}

/// The log₂ bucket index of `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < 2 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` — the bit-stable value
/// quantiles report.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    fn new() -> Self {
        Histogram {
            buckets: [Self::ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// One consistent-enough snapshot (relaxed loads: concurrent
    /// recorders may straddle buckets, but quiesced values are exact).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::SeqCst);
        }
        self.sum.store(0, Ordering::SeqCst);
        self.max.store(0, Ordering::SeqCst);
    }
}

/// A point-in-time copy of a [`Histogram`]: mergeable, subtractable,
/// and the thing quantiles are computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket record counts (see [`bucket_upper_bound`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not a bucket bound).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; NUM_BUCKETS], sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Total records.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the inclusive upper bound
    /// of the bucket with the rank-`ceil(q·count)` record — bit-stable
    /// across machines and runs for the same records. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Folds `other` into `self` (fleet-wide aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The records landed since `earlier` was taken (bucket-wise
    /// saturating subtraction — valid because buckets only grow). `max`
    /// is carried from `self`: a maximum cannot be un-observed, so the
    /// delta's max is an upper bound for the window.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

// ---------------------------------------------------------------------------
// Stage histograms
// ---------------------------------------------------------------------------

/// The histogram a stage records into (name-prefixed so stage timings
/// and ad-hoc histograms cannot collide).
pub fn stage_histogram(stage: &str) -> &'static Histogram {
    // Stage names are short; format! once per lookup is fine — hot
    // paths hold the returned handle or live behind the enabled gate.
    histogram(&format!("stage_ns/{stage}"))
}

pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Measures the cost of opening + dropping a [`trace::OpenSpan`] with
/// telemetry **disabled** — the production configuration for the
/// engine's inner loops. Forces telemetry off for the measurement and
/// restores the previous state. Returns nanoseconds per span (median of
/// 5 timed passes of `iters` spans each, so one scheduler hiccup on a
/// 1-CPU container cannot dominate).
pub fn disabled_span_overhead_ns(iters: u64) -> f64 {
    let was = enabled();
    set_enabled(false);
    let timed = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            let span = std::hint::black_box(trace::OpenSpan::child(
                std::hint::black_box(TraceCtx::NONE),
                std::hint::black_box("obs::probe"),
            ));
            drop(span);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    let mut passes: Vec<f64> = (0..5).map(|_| timed(iters)).collect();
    passes.sort_by(f64::total_cmp);
    set_enabled(was);
    passes[2]
}

// ---------------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------------

/// A fresh process-unique trace ID: never zero (zero is the wire's
/// "no trace attached"), strictly unique within the process (atomic
/// counter), and seeded from wall clock ⊕ pid so concurrent processes
/// diverge immediately.
pub fn next_trace_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        AtomicU64::new(nanos ^ (u64::from(std::process::id()) << 32))
    });
    let mut id = next.fetch_add(1, Ordering::Relaxed);
    if id == 0 {
        id = next.fetch_add(1, Ordering::Relaxed);
    }
    id
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Ring capacity of the flight recorder: the last this-many requests'
/// stage breakdowns survive for postmortem dumps.
pub const FLIGHT_CAPACITY: usize = 256;

/// One finished request's breakdown, as kept by the flight recorder and
/// dumped by the gateway's `/debug/flight` endpoint.
///
/// An entry is *derived*: [`trace::RootSpan::finish`] (or the root's
/// drop, which aborts) appends it from what the root already holds. A
/// request whose root is inert — telemetry off, a trace id already
/// assembling, or [`trace::MAX_IN_PROGRESS`] exceeded (the last two
/// counted in `traces_dropped`) — therefore leaves no entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// The request's end-to-end trace ID.
    pub trace_id: u64,
    /// Caller correlation id: the root's `request_id` tag (0 when the
    /// root carries none).
    pub request_id: u64,
    /// The root's `protocol` tag: `"http"` or `"binary"` at the gateway
    /// (empty when the root carries none).
    pub protocol: String,
    /// Terminal status: `"ok"`, `"failed"`, `"shed"`, `"deadline"`,
    /// `"aborted"`.
    pub status: &'static str,
    /// The root's direct children as `(stage, nanoseconds)`, in start
    /// order — the same spans, the same numbers as the request's tree.
    pub stages: Vec<(&'static str, u64)>,
}

fn flight() -> &'static Mutex<std::collections::VecDeque<FlightEntry>> {
    static FLIGHT: OnceLock<Mutex<std::collections::VecDeque<FlightEntry>>> = OnceLock::new();
    FLIGHT.get_or_init(|| Mutex::new(std::collections::VecDeque::with_capacity(FLIGHT_CAPACITY)))
}

/// Appends `entry` to the flight recorder, evicting the oldest entry
/// once [`FLIGHT_CAPACITY`] is reached.
pub(crate) fn flight_record(entry: FlightEntry) {
    let mut ring = flight().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if ring.len() == FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// The recorded entries, oldest first.
pub fn flight_entries() -> Vec<FlightEntry> {
    flight().lock().unwrap_or_else(|poisoned| poisoned.into_inner()).iter().cloned().collect()
}

// ---------------------------------------------------------------------------
// Snapshot + Prometheus rendering
// ---------------------------------------------------------------------------

/// A name-sorted copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram (stage histograms carry
    /// the `stage_ns/` prefix).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the whole registry, sorted by name for stable output.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock();
    let mut counters: Vec<(String, u64)> =
        reg.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect();
    let mut gauges: Vec<(String, i64)> =
        reg.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect();
    let mut histograms: Vec<(String, HistogramSnapshot)> =
        reg.histograms.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect();
    drop(reg);
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { counters, gauges, histograms }
}

/// Maps a metric name to a Prometheus-legal base name: `igcn_` prefix,
/// and every character outside `[a-zA-Z0-9_]` becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("igcn_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the registry in Prometheus text exposition format (v0.0.4):
/// counters as `igcn_<name>_total`, gauges as `igcn_<name>`, stage
/// histograms as one `igcn_stage_ns` summary family labelled by stage
/// (`quantile` ∈ {0.5, 0.9, 0.99} plus `_sum`/`_count` and a `_max`
/// gauge), other histograms as their own summary family. Every family
/// carries a `# HELP` line: text registered via [`describe`], or a
/// per-kind default naming the metric.
pub fn render_prometheus() -> String {
    let snap = snapshot();
    let descriptions: HashMap<String, &'static str> = lock().descriptions.clone();
    let help_for = |name: &str, default: String| -> String {
        descriptions.get(name).map_or(default, |h| (*h).to_string())
    };
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let base = prom_name(name);
        let help = help_for(name, format!("Monotonic event counter {name}."));
        out.push_str(&format!(
            "# HELP {base}_total {help}\n# TYPE {base}_total counter\n{base}_total {value}\n"
        ));
    }
    for (name, value) in &snap.gauges {
        let base = prom_name(name);
        let help = help_for(name, format!("Instantaneous level {name}."));
        out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} gauge\n{base} {value}\n"));
    }
    let stages: Vec<&(String, HistogramSnapshot)> =
        snap.histograms.iter().filter(|(n, _)| n.starts_with("stage_ns/")).collect();
    if !stages.is_empty() {
        out.push_str(
            "# HELP igcn_stage_ns Per-stage latency in nanoseconds \
             (log2-bucketed summary; quantiles are bit-stable bucket upper bounds).\n",
        );
        out.push_str("# TYPE igcn_stage_ns summary\n");
        for (name, h) in &stages {
            let stage = &name["stage_ns/".len()..];
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "igcn_stage_ns{{stage=\"{stage}\",quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("igcn_stage_ns_sum{{stage=\"{stage}\"}} {}\n", h.sum));
            out.push_str(&format!("igcn_stage_ns_count{{stage=\"{stage}\"}} {}\n", h.count()));
            out.push_str(&format!("igcn_stage_ns_max{{stage=\"{stage}\"}} {}\n", h.max));
        }
    }
    for (name, h) in snap.histograms.iter().filter(|(n, _)| !n.starts_with("stage_ns/")) {
        let base = prom_name(name);
        let help = help_for(name, format!("Log2-bucketed summary {name}."));
        out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} summary\n"));
        for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!("{base}{{quantile=\"{label}\"}} {}\n", h.quantile(q)));
        }
        out.push_str(&format!("{base}_sum {}\n", h.sum));
        out.push_str(&format!("{base}_count {}\n", h.count()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the process-global enabled flag or
    /// touch the trace store and flight ring (the same pattern as
    /// `igcn-fail`'s `FailGuard`).
    pub(crate) fn enabled_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn bucket_bounds_are_bit_stable() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let h = histogram("test/quantiles");
        h.reset();
        for v in [1u64, 2, 3, 100, 1000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.quantile(0.5), bucket_upper_bound(bucket_of(100)));
        assert_eq!(s.quantile(1.0), bucket_upper_bound(bucket_of(100_000)));
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.count(), 14);
        assert_eq!(merged.sum, 2 * s.sum);
        let delta = merged.delta_since(&s);
        assert_eq!(delta.count(), 7);
        assert_eq!(delta.sum, s.sum);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Satellite contract: N threads × M records each land exactly
        // N·M records with bit-stable bucket bounds.
        const N: usize = 8;
        const M: u64 = 10_000;
        let h = histogram("test/concurrent");
        h.reset();
        std::thread::scope(|s| {
            for t in 0..N {
                s.spawn(move || {
                    for i in 0..M {
                        h.record((t as u64) * 17 + i % 4096);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), N as u64 * M, "concurrent records were lost");
        // Same records → same buckets, every run, every machine.
        let mut expect = [0u64; NUM_BUCKETS];
        for t in 0..N as u64 {
            for i in 0..M {
                expect[bucket_of(t * 17 + i % 4096)] += 1;
            }
        }
        assert_eq!(snap.buckets, expect, "bucket assignment is not bit-stable");
    }

    #[test]
    fn counters_and_gauges() {
        let c = counter("test/counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        let g = gauge("test/gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        // Same name → same handle.
        assert!(std::ptr::eq(c, counter("test/counter")));
    }

    #[test]
    fn trace_ids_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "trace id repeated");
        }
    }

    #[test]
    fn flight_recorder_is_bounded() {
        let _serial = enabled_lock();
        for i in 0..(FLIGHT_CAPACITY as u64 + 40) {
            flight_record(FlightEntry {
                trace_id: i + 1,
                request_id: i,
                protocol: "http".to_string(),
                status: "ok",
                stages: vec![(stage::DISPATCH, i)],
            });
        }
        let entries = flight_entries();
        assert_eq!(entries.len(), FLIGHT_CAPACITY);
        // Oldest evicted first: the ring holds the *last* N entries.
        assert_eq!(entries.last().unwrap().trace_id, FLIGHT_CAPACITY as u64 + 40);
        assert_eq!(entries.first().unwrap().trace_id, 41);
    }

    #[test]
    fn prometheus_rendering_shape() {
        counter("promtest_requests").add(3);
        describe("promtest_requests", "Requests seen by the prom shape test.");
        gauge("promtest_depth").set(2);
        stage_histogram("promtest_stage").record(100);
        let text = render_prometheus();
        assert!(text.contains("igcn_promtest_requests_total 3"));
        assert!(text.contains("# TYPE igcn_promtest_requests_total counter"));
        assert!(text
            .contains("# HELP igcn_promtest_requests_total Requests seen by the prom shape test."));
        assert!(text.contains("igcn_promtest_depth 2"));
        assert!(
            text.contains("# HELP igcn_promtest_depth Instantaneous level promtest_depth."),
            "undescribed metrics get a per-kind default HELP"
        );
        assert!(text.contains("# HELP igcn_stage_ns "));
        assert!(text.contains("igcn_stage_ns{stage=\"promtest_stage\",quantile=\"0.5\"}"));
        assert!(text.contains("igcn_stage_ns_count{stage=\"promtest_stage\"}"));
        // Every line is `name{labels} value` or a comment — parseable.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "unparseable exposition line: {line:?}"
            );
        }
        // Every `# TYPE` family is preceded by a `# HELP` for the same
        // family — the satellite contract this PR adds.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split_whitespace().next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {family} ")),
                    "family {family} has no HELP line"
                );
            }
        }
    }

    #[test]
    fn disabled_span_overhead_is_nanoscale() {
        let _serial = enabled_lock();
        // The CI gate runs in obs_tool with a pinned 5 ns bound; here we
        // only sanity-check the probe returns something sub-microsecond.
        let ns = disabled_span_overhead_ns(200_000);
        assert!(ns < 1_000.0, "disabled span costs {ns} ns");
    }
}
