//! The Island Consumer's one datapath: a single schedule-order walk
//! over the physical [`IslandLayout`], generic over what it feeds.
//!
//! **The walk.** `walk_layer` is the traversal of Figures 7–8 written
//! once: islands wave by wave along the schedule — per island every
//! member's combination, the pre-aggregation groups, then per
//! bitmap row the `1×k` window decisions and the row's finish — followed
//! by the inter-hub tasks in PUSH-outer-product order and the hub
//! finalise. It owns no data and does no arithmetic; it tells a *sink*
//! what happens, and is monomorphised per sink.
//!
//! **Two sinks.**
//!
//! * `Compute` produces one island's values: member vectors, group sums
//!   and the accumulator live in flat row-major arenas
//!   ([`LayerScratch`]), hub XW vectors come from a dense slab indexed by
//!   the layout's compact hub IDs `0..H`. A window is applied to the
//!   accumulator the moment the walk decides it, at the full feature
//!   width (an island is bounded by `c_max`, so its member slab stays
//!   cache-resident at any width). Island-node rows go to the output;
//!   hub rows go, in bitmap-row order, to the island's slots of a
//!   contribution slab. It keeps no statistics, prices nothing and
//!   models no ring.
//! * `Account` produces the [`LayerExecStats`] and the ring model and
//!   touches no floating-point data: the same events over the same
//!   prebuilt bitmaps, with `Vec<bool>` / `Vec<u32>` slabs over hub IDs
//!   for the XW-cache, partial-row and bank state. One `Account` walk
//!   per layer is what the engine's request-independent plan
//!   ([`crate::exec::ExecPlan`]) is built from: a function of the
//!   layout, the [`ConsumerConfig`], the model's widths and
//!   normalisation, the worker count and the locator statistics, rebuilt
//!   lazily by the first request after any of them changes (`prepare`,
//!   `apply_update`, `set_exec_config`) and never per request — a
//!   request only adds layer 0's two row-length sums to it.
//!
//! **One driver.** A layer's values are three steps around the island
//! walk, written once here (`run_layer`) and run by the one request loop
//! ([`IGcnEngine::execute`]) for the engine and the shard fleet alike:
//!
//! 1. `HubMergeState::begin_layer` fills the hub XW slab (the software
//!    HUB Matrix XW Cache) from the hub rows `0..H` of the loop's
//!    input, in runs of rows fanned out when the layer may use more
//!    than one thread;
//! 2. an [`IslandRunner`] runs every island through `Compute`
//!    ([`run_islands`]). The engine's (`WholeLayout`) runs the whole
//!    layout in place, inline over [`LayerScratch`]'s own island
//!    buffers or fanned across the process's helper pool ([`fan_out`]);
//!    a fleet's runs each shard's islands into shard-local slabs after
//!    loading its halo ([`LayerScratch::load_halo`]), under the layer's
//!    `halo_exchange` span with step 1;
//! 3. `HubMergeState::merge_layer` replays the islands' hub rows in
//!    schedule order, then the inter-hub PUSH tasks, and finalises every
//!    hub row (a fleet's under its `halo_merge` span).
//!
//! The public [`execute_layer`] is one layer of the driver, inline, plus
//! [`account_layer`]'s statistics: two walks over the same bitmaps.
//!
//! [`IGcnEngine::execute`]: crate::IGcnEngine::execute
//!
//! **Bit-identity contract.** Every form accumulates in one order:
//! island schedule order, per-member bitmap order, then the inter-hub
//! PUSH tasks by ascending *original* source-hub ID. Outputs are
//! bit-identical at every thread and shard count. The unit tests below
//! pin it, and hold the driver and `Account` against two references
//! that share none of their code: the dense
//! `igcn_gnn::reference_forward_layers` for values (within 1e-4), and a
//! re-derivation of every statistic from the partition in original IDs
//! for the statistics (exactly).

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use igcn_gnn::Activation;
use igcn_graph::{NodeId, SparseFeatures};
use igcn_linalg::kernels::axpy_f32;
use igcn_linalg::{DenseMatrix, GcnNormalization};
use igcn_obs::trace::{OpenSpan, TraceCtx};
use threadpool::ThreadPool;

use crate::config::ConsumerConfig;
use crate::island::IslandBitmap;
use crate::layout::IslandLayout;
use crate::stats::LayerExecStats;

use super::pe::{combine_cost, combine_values_into, RowCost};
use super::ring::RingAccountant;
use super::window::WindowDecision;
use super::LayerInput;

const F32_BYTES: u64 = 4;

// ---------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------

/// What the walk of one island tells its sink, in this order: the
/// island's bitmap, every member's combination (hubs first), the
/// pre-aggregation groups (with redundancy removal on, every group, once
/// per island), then per bitmap row its window decisions and its finish.
trait IslandSink {
    fn begin_island(&mut self, bm: &IslandBitmap);
    /// Member `i` of the bitmap is node `node`.
    fn combine(&mut self, i: usize, node: u32, is_hub: bool);
    /// Group `g` covers members `start..start + size`.
    fn materialize(&mut self, g: usize, start: usize, size: usize);
    fn window(&mut self, g: usize, mask: u64, decision: WindowDecision);
    /// Bitmap row `r` (node `node`) has seen all its windows.
    fn finish_row(&mut self, r: usize, node: u32, is_hub: bool);
}

/// The layer-level events around the islands.
trait LayerSink: IslandSink {
    /// The next island runs on PE `pe`.
    fn begin_task(&mut self, pe: u32);
    /// An issue wave of island or inter-hub tasks is complete.
    fn end_wave(&mut self);
    /// Hub `src` pushes its XW vector to each of `dests`, from PE `pe`.
    fn inter_hub_task(&mut self, pe: u32, src: u32, dests: &[u32]);
    fn finalize_hub(&mut self, hub: u32);
}

/// One island (its `hubs`, its member range `nodes` and its `Ã = A +
/// I` bitmap `bm`): members →
/// combination, pre-aggregation groups, per bitmap row the `1×k` window
/// decisions, row finish. Without redundancy removal no window reuses a
/// group, so none is materialised. Without `self_in_bitmap` the self
/// term is added apart (`finish_row`), so a node row's window drops its
/// diagonal bit: the windows are those of the plain `A` bitmap.
fn walk_island<S: IslandSink>(
    cfg: &ConsumerConfig,
    hubs: &[u32],
    nodes: Range<u32>,
    bm: &IslandBitmap,
    self_in_bitmap: bool,
    sink: &mut S,
) {
    let k = cfg.k;
    let dim = bm.dim();
    let nh = bm.num_hubs();
    let num_groups = dim.div_ceil(k);
    let group = |g: usize| (g * k, k.min(dim - g * k));
    let members = || hubs.iter().copied().chain(nodes.clone()).enumerate();

    sink.begin_island(bm);
    for (i, m) in members() {
        sink.combine(i, m, i < nh);
    }
    if cfg.redundancy_removal {
        for g in 0..num_groups {
            let (start, size) = group(g);
            sink.materialize(g, start, size);
        }
    }
    for (r, node) in members() {
        // The window holding row `r`'s diagonal bit, if it is dropped.
        let diagonal = if self_in_bitmap || r < nh { usize::MAX } else { r / k };
        for g in 0..num_groups {
            let (start, size) = group(g);
            let mut mask = bm.window(r, start, k);
            if g == diagonal {
                mask &= !(1 << (r % k));
            }
            sink.window(g, mask, WindowDecision::decide(mask, size, cfg.redundancy_removal));
        }
        sink.finish_row(r, node, r < nh);
    }
}

/// Island tasks, issued to PEs wave by wave along the schedule.
fn walk_islands<S: LayerSink>(
    layout: &IslandLayout,
    cfg: &ConsumerConfig,
    self_in_bitmap: bool,
    sink: &mut S,
) {
    let islands = layout.islands();
    for wave in layout.schedule().waves() {
        for task_idx in wave {
            sink.begin_task((task_idx % cfg.num_pes) as u32);
            let (hubs, nodes) = (islands.hubs(task_idx), islands.nodes(task_idx));
            walk_island(cfg, hubs, nodes, layout.bitmap(task_idx), self_in_bitmap, sink);
        }
        sink.end_wave();
    }
}

/// Inter-hub tasks in PUSH-outer-product order (one per source hub, by
/// ascending original source-hub ID, from the layout's task list), then
/// every hub's finalise (hub IDs are the compact prefix `0..H`).
fn walk_hubs<S: LayerSink>(layout: &IslandLayout, cfg: &ConsumerConfig, sink: &mut S) {
    for (task_idx, (src, dests)) in layout.inter_hub_tasks().iter().enumerate() {
        sink.inter_hub_task((task_idx % cfg.num_pes) as u32, src, dests);
        if (task_idx + 1) % cfg.num_pes == 0 {
            sink.end_wave();
        }
    }
    sink.end_wave();
    for h in 0..layout.num_hubs() as u32 {
        sink.finalize_hub(h);
    }
}

/// The whole layer. `self_in_bitmap` keeps the diagonal bits of the
/// `Ã = A + I` bitmaps (unit self-weight models).
fn walk_layer<S: LayerSink>(
    layout: &IslandLayout,
    cfg: &ConsumerConfig,
    self_in_bitmap: bool,
    sink: &mut S,
) {
    walk_islands(layout, cfg, self_in_bitmap, sink);
    walk_hubs(layout, cfg, sink);
}

// ---------------------------------------------------------------------
// The `Compute` sink and the layer driver
// ---------------------------------------------------------------------

/// Flat arenas of the island arithmetic, one set per worker: reused
/// across islands, layers and requests, grown on first use and only
/// ever resliced afterwards.
#[derive(Debug, Clone, Default)]
struct IslandBuffers {
    /// Island member combination vectors (`dim × width`, row-major).
    y: Vec<f32>,
    /// Pre-aggregation group sums (`num_groups × width`).
    group_sums: Vec<f32>,
    /// The window-scan accumulator (`width`): all-zero between rows —
    /// windows add into it, `finish_row` clears it, hub rows included.
    acc: Vec<f32>,
}

/// Every island's exported hub rows of one layer: one `width`-wide slot
/// per (island, contacted hub) pair, islands back to back, each
/// island's slots in its bitmap-row (first-contact hub) order.
#[derive(Debug, Clone, Default)]
struct Contributions {
    width: usize,
    slab: Vec<f32>,
    /// Prefix sums of per-island hub-contact counts: island `i`'s slots
    /// are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
}

impl Contributions {
    /// Sizes the slab for `layout`'s islands at `width`; returns the
    /// slot count.
    fn begin_layer(&mut self, layout: &IslandLayout, width: usize) -> usize {
        self.width = width;
        self.offsets.clear();
        self.offsets.extend_from_slice(layout.islands().hub_offsets());
        let slots = self.offsets[self.offsets.len() - 1];
        grow_f32(&mut self.slab, slots * width);
        slots
    }

    /// Island `i`'s hub rows.
    fn rows(&self, i: usize) -> &[f32] {
        &self.slab[self.offsets[i] * self.width..self.offsets[i + 1] * self.width]
    }
}

/// Flat scratch arenas of one execution worker.
///
/// Owned per worker and reused across layers, islands and `infer`
/// calls; every buffer grows to its steady-state size on the first call
/// and is only ever resliced afterwards.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    island: IslandBuffers,
    /// Hub XW and partial-result slabs (`H × width`), indexed by compact
    /// hub ID: the loop's own, or a shard's halo.
    hubs: HubMergeState,
    /// The islands' hub rows, written by [`run_islands`] and replayed by
    /// `HubMergeState::merge_layer`.
    contrib: Contributions,
}

impl LayerScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all arenas — the observable for
    /// scratch-reuse regression tests (must stop growing after warm-up).
    pub fn arena_bytes(&self) -> usize {
        let IslandBuffers { y, group_sums, acc } = &self.island;
        (y.capacity() + group_sums.capacity() + acc.capacity()) * 4
            + (self.hubs.y.capacity() + self.hubs.partial.capacity()) * 4
            + self.hubs.partial_ready.capacity()
            + self.contrib.slab.capacity() * 4
            + self.contrib.offsets.capacity() * 8
    }

    /// Makes rows `rows` of `coordinator`'s filled hub XW slab this
    /// scratch's hub XW slab, in order: a shard's halo, local hub `l`
    /// being global hub `rows[l]`.
    pub fn load_halo(&mut self, coordinator: &LayerScratch, rows: &[u32]) {
        let hubs = &coordinator.hubs;
        let width = hubs.width;
        self.hubs.size(rows.len(), width);
        for (l, &g) in rows.iter().enumerate() {
            self.hubs.y[l * width..][..width]
                .copy_from_slice(&hubs.y[g as usize * width..][..width]);
        }
    }

    /// Island `i`'s hub rows from the last [`run_islands`] over this
    /// scratch (`hubs × width`, in the island's first-contact hub
    /// order).
    pub fn contribution(&self, i: usize) -> &[f32] {
        self.contrib.rows(i)
    }
}

fn grow_f32(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Everything one layer's arithmetic borrows immutably: the step, the
/// consumer configuration and what follows from them.
#[derive(Clone, Copy)]
struct LayerEnv<'l> {
    cfg: ConsumerConfig,
    step: LayerStep<'l>,
    width: usize,
    self_in_bitmap: bool,
}

impl<'l> LayerEnv<'l> {
    fn new(layout: &IslandLayout, cfg: ConsumerConfig, step: &LayerStep<'l>) -> Self {
        let LayerStep { input, weights, norm, .. } = *step;
        let n = layout.num_nodes();
        assert_eq!(input.num_rows(), n, "input row count does not match the graph");
        assert_eq!(input.num_cols(), weights.rows(), "input width does not match the weights");
        assert_eq!(norm.len(), n, "normalisation does not match the graph");
        let (width, self_in_bitmap) = (weights.cols(), norm.self_weight() == 1.0);
        LayerEnv { cfg, step: *step, width, self_in_bitmap }
    }
}

/// The value sink of one island: its node rows and its hub rows,
/// nothing else.
struct Compute<'a> {
    env: &'a LayerEnv<'a>,
    buf: &'a mut IslandBuffers,
    /// The island's node rows of the output; its first row is node
    /// `row_base`'s.
    rows: &'a mut [f32],
    row_base: u32,
    /// The filled hub XW slab (`H × width`).
    hub_y: &'a [f32],
    /// The island's hub rows, in bitmap-row order (`nh × width`).
    hub_out: &'a mut [f32],
}

impl IslandSink for Compute<'_> {
    fn begin_island(&mut self, bm: &IslandBitmap) {
        let width = self.env.width;
        grow_f32(&mut self.buf.y, bm.dim() * width);
        grow_f32(&mut self.buf.group_sums, bm.dim().div_ceil(self.env.cfg.k) * width);
        grow_f32(&mut self.buf.acc, width);
        debug_assert!(self.buf.acc.iter().all(|&a| a == 0.0), "accumulator not cleared");
    }

    fn combine(&mut self, i: usize, node: u32, is_hub: bool) {
        let width = self.env.width;
        let dst = &mut self.buf.y[i * width..][..width];
        if is_hub {
            dst.copy_from_slice(&self.hub_y[node as usize * width..][..width]);
        } else {
            let LayerStep { input, weights, norm, .. } = self.env.step;
            combine_values_into(input, weights, norm, node, dst);
        }
    }

    fn materialize(&mut self, g: usize, start: usize, size: usize) {
        let width = self.env.width;
        let IslandBuffers { y, group_sums, .. } = &mut *self.buf;
        let dst = &mut group_sums[g * width..][..width];
        dst.copy_from_slice(&y[start * width..][..width]);
        for item in 1..size {
            axpy_f32(dst, &y[(start + item) * width..][..width], 1.0);
        }
    }

    /// Applies the window to the accumulator as the walk decides it, in
    /// the walk's (window, member) order per output element.
    fn window(&mut self, g: usize, mask: u64, decision: WindowDecision) {
        let width = self.env.width;
        let start = g * self.env.cfg.k;
        let IslandBuffers { y, group_sums, acc } = &mut *self.buf;
        let acc = &mut acc[..width];
        let member = |b: usize| &y[(start + b) * width..][..width];
        match decision {
            WindowDecision::Skip => {}
            WindowDecision::Direct { .. } => set_bits(mask).for_each(|b| add_row(acc, member(b))),
            WindowDecision::Reuse { subs } => {
                add_row(acc, &group_sums[g * width..][..width]);
                // The group's clear bits; its size is `subs` + popcount.
                let clear = !mask & (u64::MAX >> (64 - subs - mask.count_ones()));
                set_bits(clear).for_each(|b| sub_row(acc, member(b)));
            }
        }
    }

    fn finish_row(&mut self, r: usize, node: u32, is_hub: bool) {
        let width = self.env.width;
        let IslandBuffers { y, acc, .. } = &mut *self.buf;
        let acc = &mut acc[..width];
        if is_hub {
            self.hub_out[r * width..][..width].copy_from_slice(acc);
        } else {
            let norm = self.env.step.norm;
            if !self.env.self_in_bitmap {
                axpy_f32(acc, &y[r * width..][..width], norm.self_weight());
            }
            let os = norm.out_scale(NodeId::new(node));
            let out_row = &mut self.rows[(node - self.row_base) as usize * width..][..width];
            for (o, &v) in out_row.iter_mut().zip(acc.iter()) {
                *o = self.env.step.activation.apply(v * os);
            }
        }
        acc.fill(0.0);
    }
}

/// The process's one pool of helper threads, created by the first
/// fan-out that can use it: `available_parallelism()` threads in all,
/// counting the caller, so one fewer parked workers. Every fan-out of
/// every engine, fleet and codec call queues on it, and a caller runs
/// its own queued jobs that no helper has taken, so a call borrows only
/// idle cores and never waits on another call's work.
fn helpers() -> &'static ThreadPool {
    static HELPERS: OnceLock<ThreadPool> = OnceLock::new();
    HELPERS.get_or_init(|| {
        ThreadPool::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

/// The widest a [`fan_out`] can run: the helper pool's thread count.
pub fn helper_threads() -> usize {
    helpers().threads()
}

/// Runs `f` on every item: in order on the calling thread, with
/// `local`, when `width` (or the helper pool, [`helper_threads`]) is 1;
/// otherwise claimed dynamically by up to `width` threads of the
/// process's helper pool. An atomic cursor hands each item to exactly
/// one thread: the caller works with `local`, and each of up to
/// `width − 1` helpers with a fresh `S::default()` it keeps across the
/// items it claims. A panic in `f` reaches the caller.
pub fn fan_out<T, S, I>(width: usize, items: I, local: &mut S, f: impl Fn(&mut S, T) + Sync)
where
    T: Send,
    S: Default,
    I: IntoIterator<Item = T>,
{
    let pool = (width > 1).then(helpers).filter(|pool| pool.threads() > 1);
    let Some(pool) = pool else {
        return items.into_iter().for_each(|item| f(local, item));
    };
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = |state: &mut S| {
        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
            // invariant: the cursor hands out every index once, so the
            // slot is full and its lock is released before `f` runs.
            let item = slot.lock().expect("fan-out slot lock").take().expect("claimed once");
            f(state, item);
        }
    };
    let helper_jobs = (width.min(pool.threads()) - 1).min(slots.len().saturating_sub(1));
    pool.scope(|s| {
        for _ in 0..helper_jobs {
            s.spawn(|| work(&mut S::default()));
        }
        work(local);
    });
}

/// One layer as the driver hands it to its [`IslandRunner`].
#[derive(Clone, Copy)]
pub struct LayerStep<'a> {
    /// The layer's `layer_execute` span, parent of the runner's spans.
    pub ctx: TraceCtx,
    /// The layout-order rows the loop keeps (see [`IslandRunner::shards`]).
    pub input: LayerInput<'a>,
    /// The layer's weights.
    pub weights: &'a DenseMatrix,
    /// The layout-order normalisation.
    pub norm: &'a GcnNormalization,
    /// The layer's activation.
    pub activation: Activation,
    /// The most threads the layer's steps fan out across ([`fan_out`];
    /// 1: inline).
    pub threads: usize,
}

/// Step 2 of the driver: runs every island of `layout` through
/// `Compute` for `step`'s layer (its input and normalisation in
/// `layout`'s IDs), with hub XW vectors from `scratch`'s filled hub slab.
/// Island-node rows go straight into `out` (layout ID order, `num_nodes
/// × width`, row-major; its hub rows are left untouched), hub rows into
/// `scratch`'s contribution slab ([`LayerScratch::contribution`]).
/// At `step.threads` = 1 the islands run inline over the scratch's own
/// island buffers; above it they are fanned out ([`fan_out`]).
/// An island reads nothing another writes, so the values are
/// bit-identical either way.
///
/// # Panics
///
/// Panics if the input, weight, normalisation or output shapes do not
/// match the layout, or the hub slab is not `H × width`.
pub fn run_islands(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    step: &LayerStep<'_>,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) {
    let env = LayerEnv::new(layout, cfg, step);
    let width = env.width;
    let num_hubs = layout.num_hubs();
    assert_eq!(out.len(), layout.num_nodes() * width, "output buffer mismatch");
    let LayerScratch { island, hubs, contrib } = scratch;
    assert_eq!(hubs.y.len(), num_hubs * width, "hub XW slab mismatch");
    let slots = contrib.begin_layer(layout, width);
    // Island nodes tile `H..n` back to back in island order and each
    // island's slots follow the previous island's, so splitting both in
    // island order hands every island its own rows.
    let mut node_rest = &mut out[num_hubs * width..];
    let mut hub_rest = &mut contrib.slab[..slots * width];
    let tasks = layout.islands().iter().enumerate().map(|(i, (nodes, island_hubs))| {
        let (node_out, nr) = std::mem::take(&mut node_rest).split_at_mut(nodes.len() * width);
        node_rest = nr;
        let (hub_out, hr) = std::mem::take(&mut hub_rest).split_at_mut(island_hubs.len() * width);
        hub_rest = hr;
        (i, nodes, island_hubs, node_out, hub_out)
    });
    let hub_y = &hubs.y[..];
    fan_out(step.threads, tasks, island, |buf, (i, nodes, island_hubs, rows, hub_out)| {
        let row_base = nodes.start;
        let mut sink = Compute { env: &env, buf, rows, row_base, hub_y, hub_out };
        walk_island(&cfg, island_hubs, nodes, layout.bitmap(i), env.self_in_bitmap, &mut sink);
    });
}

/// Step 2 of the driver: what runs a layer's islands once the hub XW
/// slab is filled. The request loop ([`crate::IGcnEngine::execute`]) is
/// monomorphised per runner.
pub trait IslandRunner {
    /// Per-request state beyond the loop's own scratch.
    type State;
    /// A contained failure; it abandons the request.
    type Error;

    /// `None` when the islands run in place: their rows go into the
    /// loop's buffer, which then keeps all `n` rows. `Some(k)` for `k`
    /// shards that keep the island rows: the loop keeps the hub rows
    /// alone, tags `layer_execute` with `shards = k` and opens
    /// `halo_exchange` around steps 1–2 and `halo_merge` around step 3.
    fn shards(&self) -> Option<usize> {
        None
    }

    /// Gathers the request rows the runner reads into `state`.
    fn gather(&self, _features: &SparseFeatures, _state: &mut Self::State) {}

    /// Runs every island, with hub XW vectors from `own`'s slab. `out`
    /// is the loop's buffer for `step.input`'s rows.
    ///
    /// # Errors
    ///
    /// The runner's contained failure.
    fn run(
        &self,
        step: &LayerStep<'_>,
        own: &mut LayerScratch,
        out: &mut [f32],
        state: &mut Self::State,
    ) -> Result<(), Self::Error>;

    /// Island `island`'s hub rows from the last `run`.
    fn contribution<'s>(
        &'s self,
        own: &'s LayerScratch,
        state: &'s Self::State,
        island: usize,
    ) -> &'s [f32];

    /// Writes the final rows the runner keeps to their original IDs.
    fn scatter(&self, _state: &Self::State, _out: &mut DenseMatrix) {}
}

/// The engine's runner: [`run_islands`] over the whole layout, in
/// place.
pub(crate) struct WholeLayout<'a> {
    pub(crate) layout: &'a IslandLayout,
    pub(crate) cfg: ConsumerConfig,
}

impl IslandRunner for WholeLayout<'_> {
    type State = ();
    type Error = std::convert::Infallible;

    fn run(
        &self,
        step: &LayerStep<'_>,
        own: &mut LayerScratch,
        out: &mut [f32],
        _: &mut (),
    ) -> Result<(), Self::Error> {
        run_islands(self.layout, self.cfg, step, own, out);
        Ok(())
    }

    fn contribution<'s>(&'s self, own: &'s LayerScratch, _: &'s (), island: usize) -> &'s [f32] {
        own.contrib.rows(island)
    }
}

/// One layer of the driver into `out`: steps 1 and 3 over `scratch`'s
/// hub slabs, step 2 `runner`'s.
pub(crate) fn run_layer<R: IslandRunner>(
    layout: &IslandLayout,
    runner: &R,
    step: &LayerStep<'_>,
    scratch: &mut LayerScratch,
    out: &mut [f32],
    state: &mut R::State,
) -> Result<(), R::Error> {
    let num_hubs = layout.num_hubs();
    let halo = runner.shards().is_some();
    let exchange = halo.then(|| OpenSpan::child(step.ctx, igcn_obs::stage::HALO_EXCHANGE));
    scratch.hubs.begin_layer(num_hubs, step);
    runner.run(step, scratch, out, state)?;
    drop(exchange);
    let _merge = halo.then(|| OpenSpan::child(step.ctx, igcn_obs::stage::HALO_MERGE));
    // The engine's contributions live in `scratch` too: move the hub
    // slabs out while they are read (three vectors, no copy).
    let mut hubs = std::mem::take(&mut scratch.hubs);
    let hub_out = &mut out[..num_hubs * step.weights.cols()];
    let contribution = |i| runner.contribution(scratch, state, i);
    hubs.merge_layer(layout, step, contribution, hub_out);
    scratch.hubs = hubs;
    Ok(())
}

/// Executes one GraphCONV layer sequentially over the physical layout,
/// writing activated output rows (layout ID order) into `out`
/// (`num_nodes × width`, row-major) and returning the layer's
/// statistics: the driver's values, in place and inline, plus
/// [`account_layer`]'s statistics, two walks over the same bitmaps.
///
/// # Panics
///
/// Panics if the input, weight, normalisation or output shapes do not
/// match the layout.
#[allow(clippy::too_many_arguments)]
pub fn execute_layer(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) -> LayerExecStats {
    let step = LayerStep { ctx: TraceCtx::NONE, input, weights, norm, activation, threads: 1 };
    let Ok(()) = run_layer(layout, &WholeLayout { layout, cfg }, &step, scratch, out, &mut ());
    account_layer(layout, cfg, input, weights.cols(), norm)
}

// ---------------------------------------------------------------------
// The `Account` sink
// ---------------------------------------------------------------------

/// The statistics sink: every [`LayerExecStats`] counter and the ring
/// model, from the walk's events alone — no values, no hashing. The
/// hub-shared state (XW cache, partial rows, DHUB-PRC banks) is three
/// slabs over the compact hub IDs.
struct Account<'a> {
    rows: RowCost<'a>,
    width: usize,
    norm: &'a GcnNormalization,
    self_in_bitmap: bool,
    num_pes: u32,
    stats: LayerExecStats,
    /// Hubs whose XW vector is in the cache (first touch charges the
    /// combination, later touches are hits).
    cached: Vec<bool>,
    /// Hubs whose partial row has been initialised.
    partial: Vec<bool>,
    /// DHUB-PRC bank of each hub (`u32::MAX` = unassigned), allocated
    /// round-robin at first appearance.
    bank: Vec<u32>,
    next_bank: u32,
    ring: RingAccountant,
    /// Pending ring wave (`(pe, bank, hub)` triples).
    wave: Vec<(u32, u32, u32)>,
    /// The PE the current island runs on.
    pe: u32,
}

impl<'a> Account<'a> {
    fn new(
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        rows: RowCost<'a>,
        in_dim: usize,
        out_dim: usize,
        norm: &'a GcnNormalization,
    ) -> Self {
        assert_eq!(norm.len(), layout.num_nodes(), "normalisation does not match");
        let num_hubs = layout.num_hubs();
        let mut stats = LayerExecStats { feature_width: out_dim, ..Default::default() };
        // Weights are loaded once and stay in the on-chip Weight Matrix
        // Buffers.
        stats.traffic.weight_bytes = (in_dim * out_dim * 4) as u64;
        stats.island_tasks = layout.num_islands() as u64;
        Account {
            rows,
            width: out_dim,
            norm,
            self_in_bitmap: norm.self_weight() == 1.0,
            num_pes: cfg.num_pes as u32,
            stats,
            cached: vec![false; num_hubs],
            partial: vec![false; num_hubs],
            bank: vec![u32::MAX; num_hubs],
            next_bank: 0,
            ring: RingAccountant::new(cfg.num_pes),
            wave: Vec::new(),
            pe: 0,
        }
    }

    fn charge_combine(&mut self, node: u32) {
        let (macs, muls, feature_bytes) = combine_cost(self.rows, self.width, self.norm, node);
        self.stats.combination_ops.macs += macs;
        self.stats.combination_ops.muls += muls;
        self.stats.traffic.feature_read_bytes += feature_bytes;
    }

    fn touch(&mut self, hub: u32) {
        if std::mem::replace(&mut self.cached[hub as usize], true) {
            self.stats.hub_path.xw_cache_hits += 1;
        } else {
            self.charge_combine(hub);
        }
    }

    fn bank_of(&mut self, hub: u32) -> u32 {
        let i = hub as usize;
        if self.bank[i] == u32::MAX {
            self.bank[i] = self.next_bank;
            self.next_bank = (self.next_bank + 1) % self.num_pes;
            self.stats.hub_path.hub_rows_allocated += 1;
        }
        self.bank[i]
    }

    /// The self contribution `self_weight · y_hub` a partial row starts
    /// from.
    fn ensure_partial(&mut self, hub: u32) {
        if !std::mem::replace(&mut self.partial[hub as usize], true) {
            self.stats.aggregation.unpruned_vector_ops += 1;
            self.stats.aggregation.executed_vector_adds += 1;
        }
    }

    /// A finished row: the post-scale and the output write.
    fn write_row(&mut self, node: u32) {
        if self.norm.out_scale(NodeId::new(node)) != 1.0 {
            self.stats.combination_ops.muls += self.width as u64;
        }
        self.stats.traffic.output_write_bytes += self.width as u64 * F32_BYTES;
    }

    /// Folds the ring counters in and returns the layer's statistics.
    fn finish(mut self) -> LayerExecStats {
        let rs = self.ring.stats();
        self.stats.hub_path.local_bank_hits = rs.local_hits;
        self.stats.hub_path.ring_hops = rs.hops;
        self.stats.hub_path.in_network_reductions = rs.reductions;
        self.stats
    }
}

impl IslandSink for Account<'_> {
    fn begin_island(&mut self, _bm: &IslandBitmap) {}

    fn combine(&mut self, _i: usize, node: u32, is_hub: bool) {
        if is_hub {
            self.touch(node);
        } else {
            self.charge_combine(node);
        }
    }

    fn materialize(&mut self, _g: usize, _start: usize, size: usize) {
        self.stats.aggregation.preagg_vector_adds += size as u64 - 1;
    }

    fn window(&mut self, _g: usize, mask: u64, decision: WindowDecision) {
        let agg = &mut self.stats.aggregation;
        agg.unpruned_vector_ops += mask.count_ones() as u64;
        match decision {
            WindowDecision::Skip => agg.windows_skipped += 1,
            WindowDecision::Direct { adds } => {
                agg.windows_direct += 1;
                agg.executed_vector_adds += adds as u64;
            }
            WindowDecision::Reuse { subs } => {
                agg.windows_reused += 1;
                agg.executed_vector_adds += 1;
                agg.executed_vector_subs += subs as u64;
            }
        }
    }

    fn finish_row(&mut self, _r: usize, node: u32, is_hub: bool) {
        if is_hub {
            // The partial goes to its DHUB-PRC bank over the ring.
            let bank = self.bank_of(node);
            self.ensure_partial(node);
            self.stats.hub_path.hub_updates += 1;
            self.wave.push((self.pe, bank, node));
        } else {
            if !self.self_in_bitmap {
                self.stats.aggregation.unpruned_vector_ops += 1;
                self.stats.aggregation.executed_vector_adds += 1;
            }
            self.write_row(node);
        }
    }
}

impl LayerSink for Account<'_> {
    fn begin_task(&mut self, pe: u32) {
        self.pe = pe;
    }

    fn end_wave(&mut self) {
        if !self.wave.is_empty() {
            self.ring.record_wave(&self.wave);
            self.wave.clear();
        }
    }

    fn inter_hub_task(&mut self, pe: u32, src: u32, dests: &[u32]) {
        self.touch(src);
        for &d in dests {
            let bank = self.bank_of(d);
            self.touch(d);
            self.ensure_partial(d);
            self.stats.aggregation.unpruned_vector_ops += 1;
            self.stats.aggregation.executed_vector_adds += 1;
            self.stats.hub_path.hub_updates += 1;
            self.wave.push((pe, bank, d));
        }
        self.stats.inter_hub_tasks += 1;
    }

    fn finalize_hub(&mut self, hub: u32) {
        if !self.partial[hub as usize] {
            // Hub untouched by any task (degenerate graphs only): its
            // output is the self contribution alone.
            self.touch(hub);
            self.ensure_partial(hub);
        }
        self.write_row(hub);
    }
}

/// The `Account` walk over rows priced as `rows` (`in_dim` wide):
/// everything [`account_layer`] does, plus the deferred-rows form the
/// request-independent plan is built from.
pub(crate) fn account_rows(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    rows: RowCost<'_>,
    in_dim: usize,
    out_dim: usize,
    norm: &GcnNormalization,
) -> LayerExecStats {
    let mut account = Account::new(layout, cfg, rows, in_dim, out_dim, norm);
    walk_layer(layout, &cfg, account.self_in_bitmap, &mut account);
    account.finish()
}

/// Computes the statistics [`execute_layer`] would return for a layer of
/// `out_dim` outputs over `input`, *without* any floating-point work:
/// the `Account` sink alone over the same walk.
///
/// # Panics
///
/// Panics if the input or normalisation do not match the layout.
pub fn account_layer(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    out_dim: usize,
    norm: &GcnNormalization,
) -> LayerExecStats {
    assert_eq!(input.num_rows(), layout.num_nodes(), "input row count does not match the graph");
    account_rows(layout, cfg, input.into(), input.num_cols(), out_dim, norm)
}

// ---------------------------------------------------------------------
// The hub side of the driver
// ---------------------------------------------------------------------

/// Hub rows per claim of `HubMergeState::begin_layer`'s fan-out.
const HUB_RUN: usize = 8;

/// Hub state of one layer — the XW slab and the partial-result rows —
/// and the driver's two hub-side steps: `begin_layer` fills the slab,
/// `merge_layer` replays the islands' hub rows and the inter-hub tasks
/// into the partial rows and finalises them. The request loop keeps one
/// in its [`LayerScratch`], and each shard of a fleet loads its halo
/// from it ([`LayerScratch::load_halo`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct HubMergeState {
    width: usize,
    /// Hub XW slab (`H × width`).
    y: Vec<f32>,
    partial: Vec<f32>,
    partial_ready: Vec<bool>,
}

impl HubMergeState {
    /// Sizes the slabs for `num_hubs` hubs `width` wide, no partial row
    /// started.
    fn size(&mut self, num_hubs: usize, width: usize) {
        self.width = width;
        self.y.resize(num_hubs * width, 0.0);
        self.partial.resize(num_hubs * width, 0.0);
        self.partial_ready.clear();
        self.partial_ready.resize(num_hubs, false);
    }

    /// Step 1 of the driver: sizes the slabs for a layer over `num_hubs`
    /// hubs and fills the XW slab, hub `h`'s row from input row `h` —
    /// every hub's combination once per layer, the software HUB Matrix
    /// XW Cache. Rows are independent, so fanning them out
    /// (`step.threads`) cannot change a bit.
    ///
    /// # Panics
    ///
    /// Panics if `input` has fewer than `num_hubs` rows, or its width or
    /// `norm` do not match.
    pub(crate) fn begin_layer(&mut self, num_hubs: usize, step: &LayerStep<'_>) {
        let LayerStep { input, weights, norm, .. } = *step;
        let width = weights.cols();
        self.size(num_hubs, width);
        // A hub's cost follows its feature-row nnz, which varies wildly
        // across hubs, so runs of rows are claimed dynamically. (A
        // zero-width layer has an empty slab and nothing to claim.)
        let runs = self.y.chunks_mut((HUB_RUN * width).max(1)).enumerate();
        fan_out(step.threads, runs, &mut (), |_, (r, rows)| {
            for (j, row) in rows.chunks_mut(width).enumerate() {
                combine_values_into(input, weights, norm, (r * HUB_RUN + j) as u32, row);
            }
        });
    }

    /// Initialises hub `hub`'s partial row with its self contribution
    /// `self_weight · y_hub` on first touch.
    fn ensure_partial(&mut self, hub: u32, self_weight: f32) {
        let (i, width) = (hub as usize, self.width);
        if !std::mem::replace(&mut self.partial_ready[i], true) {
            let row = &mut self.partial[i * width..][..width];
            row.fill(0.0);
            axpy_f32(row, &self.y[i * width..][..width], self_weight);
        }
    }

    /// Step 3 of the driver, in the one accumulation order every form
    /// shares: each island's hub rows (`contribution(i)`, island `i`'s,
    /// in its first-contact hub order) in global schedule order, then
    /// the inter-hub PUSH tasks by ascending original source-hub ID,
    /// then every hub's finalise — post-scale and activation into
    /// `hub_out` (`H × width`, hub-ID order). A hub no task touched
    /// (degenerate graphs only) is its self contribution alone.
    /// `step.norm` is the layout-order normalisation: hub `h` is node
    /// `h`.
    ///
    /// # Panics
    ///
    /// Panics if the slabs were not begun for `layout`'s hubs, or a
    /// contribution or `hub_out` is mis-sized.
    pub(crate) fn merge_layer<'c>(
        &mut self,
        layout: &IslandLayout,
        step: &LayerStep<'_>,
        contribution: impl Fn(usize) -> &'c [f32],
        hub_out: &mut [f32],
    ) {
        let LayerStep { norm, activation, .. } = *step;
        let (width, num_hubs) = (self.width, layout.num_hubs());
        assert_eq!(self.partial_ready.len(), num_hubs, "hub slabs begun for another layout");
        assert_eq!(hub_out.len(), num_hubs * width, "hub output slab mismatch");
        let self_weight = norm.self_weight();
        let islands = layout.islands();
        for task_idx in layout.schedule().waves().flatten() {
            let rows = contribution(task_idx);
            for (j, &hub) in islands.hubs(task_idx).iter().enumerate() {
                self.ensure_partial(hub, self_weight);
                add_row(
                    &mut self.partial[hub as usize * width..][..width],
                    &rows[j * width..][..width],
                );
            }
        }
        for (src, dests) in layout.inter_hub_tasks().iter() {
            for &d in dests {
                self.ensure_partial(d, self_weight);
                // The slabs are disjoint, so the source row needs no copy.
                add_row(
                    &mut self.partial[d as usize * width..][..width],
                    &self.y[src as usize * width..][..width],
                );
            }
        }
        for h in 0..num_hubs {
            self.ensure_partial(h as u32, self_weight);
            let os = norm.out_scale(NodeId::new(h as u32));
            let partial = &self.partial[h * width..][..width];
            for (o, &v) in hub_out[h * width..][..width].iter_mut().zip(partial) {
                *o = activation.apply(v * os);
            }
        }
    }
}

/// The positions of the set bits of `bits`, lowest first.
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(b)
    })
}

#[inline]
fn add_row(row: &mut [f32], delta: &[f32]) {
    for (p, &d) in row.iter_mut().zip(delta) {
        *p += d;
    }
}

#[inline]
fn sub_row(row: &mut [f32], delta: &[f32]) {
    for (p, &d) in row.iter_mut().zip(delta) {
        *p -= d;
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::consumer::oracle;
    use crate::locator::islandize;
    use igcn_gnn::{reference_forward_layers, GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::{CsrGraph, SparseFeatures};

    fn setup(
        n: usize,
        noise: f64,
        seed: u64,
    ) -> (CsrGraph, crate::partition::IslandPartition, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        let x = SparseFeatures::random(n, 12, 0.4, seed ^ 0xBEEF);
        (g.graph, p, x)
    }

    /// Islands of up to 131 members under a large `c_max`: bitmap rows
    /// of one, two and three words, so windows straddle word boundaries
    /// at every `k` that does not divide 64.
    fn setup_wide() -> (CsrGraph, crate::partition::IslandPartition, SparseFeatures) {
        let g = HubIslandConfig::new(400, 6)
            .island_size_range(65, 135)
            .island_density(0.12)
            .noise_fraction(0.0)
            .generate(1);
        let p = islandize(&g.graph, &IslandizationConfig::default().with_c_max(160));
        let mut words: Vec<usize> =
            p.islands().iter().map(|i| (i.hubs.len() + i.nodes.len()).div_ceil(64)).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words, [1, 2, 3], "bitmap words per row of the wide partition");
        (g.graph, p, SparseFeatures::random(400, 12, 0.4, 0xBEEF))
    }

    /// Output widths on both sides of one SIMD vector (the narrow dense
    /// combination arm) and of 64 columns, odd tails included.
    const WIDTHS: [usize; 10] = [1, 3, 7, 8, 9, 16, 17, 64, 65, 130];

    /// The window widths the wide partition runs at, with redundancy
    /// removal off at the default `k`.
    fn wide_configs() -> Vec<ConsumerConfig> {
        let default = ConsumerConfig::default();
        let mut configs: Vec<_> = [2, 3, 4, 8, 64].iter().map(|&k| default.with_k(k)).collect();
        configs.push(default.with_redundancy_removal(false));
        configs
    }

    /// A GCN (self bit in the bitmap) and a GIN (separate scaled self
    /// add) whose first layer is `12 → width` and second `width → width`.
    fn models_of_width(width: usize) -> [GnnModel; 2] {
        [GnnModel::gcn(12, width, width), GnnModel::gin(12, width, width, 0.3)]
    }

    /// `rows` (layout order, `width` wide) scattered back to original
    /// node IDs.
    fn unpermute(layout: &IslandLayout, rows: &[f32], width: usize) -> DenseMatrix {
        let n = layout.graph().num_nodes();
        let mut out = DenseMatrix::zeros(n, width);
        for old in 0..n {
            let new = layout.forward()[old] as usize;
            out.row_mut(old).copy_from_slice(&rows[new * width..][..width]);
        }
        out
    }

    /// One layer of the walk against its two references. Statistics:
    /// `Account` alone == `(Compute, Account)` == the oracle on every
    /// field. Values: the unpermuted `(Compute, Account)` output within
    /// 1e-4 of `reference`, the dense reference's layer-0 output. `dense`
    /// feeds the features as a dense matrix (the layer ≥ 1 combination
    /// arm) instead of sparse rows.
    #[allow(clippy::too_many_arguments)]
    fn assert_layer_matches_references(
        g: &CsrGraph,
        p: &crate::partition::IslandPartition,
        layout: &IslandLayout,
        x: &SparseFeatures,
        dense: bool,
        model: &GnnModel,
        weights: &DenseMatrix,
        reference: &DenseMatrix,
        cfg: ConsumerConfig,
        what: &str,
    ) {
        let n = g.num_nodes();
        let gathered = x.gather_rows(layout.gather_order());
        let as_dense = |x: &SparseFeatures| DenseMatrix::from_vec(n, x.num_cols(), x.to_dense());
        let (x_dense, gathered_dense) = (as_dense(x), as_dense(&gathered));
        let (original_in, hot_in) = if dense {
            (LayerInput::Dense(&x_dense), LayerInput::Dense(&gathered_dense))
        } else {
            (LayerInput::Sparse(x), LayerInput::Sparse(&gathered))
        };
        // The layout norm is computed on the permuted graph: same
        // degrees, bitwise-equal scales.
        let hot_norm = model.normalization(layout.graph());
        let mut buf = vec![0.0f32; n * weights.cols()];
        let hot_stats = execute_layer(
            layout,
            cfg,
            hot_in,
            weights,
            &hot_norm,
            Activation::Relu,
            &mut LayerScratch::new(),
            &mut buf,
        );
        let diff = unpermute(layout, &buf, weights.cols()).max_abs_diff(reference);
        assert!(diff < 1e-4, "{what}: values off the dense reference by {diff}");
        let expected =
            oracle::layer_stats(g, p, cfg, original_in, weights.cols(), &model.normalization(g));
        assert_eq!(hot_stats, expected, "{what}: (Compute, Account) vs the oracle");
        let accounted = account_layer(layout, cfg, hot_in, weights.cols(), &hot_norm);
        assert_eq!(accounted, expected, "{what}: Account alone vs the oracle");
    }

    /// The hub-island graphs of `cases` (`(noise, seed)`, 220 nodes):
    /// the sparse first layer of a GCN, a GIN and a wide GCN under each
    /// of `configs`, against the dense reference and the oracle.
    pub(in crate::consumer) fn assert_hub_island_layers_match_references(
        cases: &[(f64, u64)],
        configs: &[ConsumerConfig],
    ) {
        for &(noise, seed) in cases {
            let (g, p, x) = setup(220, noise, seed);
            let layout = IslandLayout::new(&g, &p, ConsumerConfig::default().num_pes);
            for model in
                [GnnModel::gcn(12, 7, 3), GnnModel::gin(12, 7, 3, 0.3), GnnModel::gcn(12, 70, 3)]
            {
                let w = ModelWeights::glorot(&model, seed + 10);
                let reference = &reference_forward_layers(&g, &x, &model, &w)[0];
                for &cfg in configs {
                    let what = format!("noise={noise} {:?} {cfg:?}", model.kind());
                    assert_layer_matches_references(
                        &g,
                        &p,
                        &layout,
                        &x,
                        false,
                        &model,
                        w.layer(0),
                        reference,
                        cfg,
                        &what,
                    );
                }
            }
        }
    }

    /// Redundancy removal off on the hub-island graphs (the default
    /// configuration and the window widths are `consumer::tests`), then
    /// the wide partition under every window width and with it off.
    #[test]
    fn hot_path_matches_dense_reference_and_stats_oracle() {
        let default = ConsumerConfig::default();
        assert_hub_island_layers_match_references(
            &[(0.0, 1), (0.08, 2), (0.2, 3)],
            &[default.with_redundancy_removal(false)],
        );
        // Multi-word bitmap rows at every output width, sparse and
        // dense combination.
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, default.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                let w = ModelWeights::glorot(&model, 17);
                let reference = &reference_forward_layers(&g, &x, &model, &w)[0];
                for cfg in wide_configs() {
                    for dense in [false, true] {
                        let what =
                            format!("wide width={width} dense={dense} {:?} {cfg:?}", model.kind());
                        assert_layer_matches_references(
                            &g,
                            &p,
                            &layout,
                            &x,
                            dense,
                            &model,
                            w.layer(0),
                            reference,
                            cfg,
                            &what,
                        );
                    }
                }
            }
        }
    }

    /// The engine's runner over `layout`, fanned out `threads` wide: one
    /// layer of the request loop.
    #[allow(clippy::too_many_arguments)]
    fn pooled_layer(
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        input: LayerInput<'_>,
        weights: &DenseMatrix,
        norm: &GcnNormalization,
        activation: Activation,
        threads: usize,
        scratch: &mut LayerScratch,
        out: &mut [f32],
    ) {
        let step = LayerStep { ctx: TraceCtx::NONE, input, weights, norm, activation, threads };
        let Ok(()) = run_layer(layout, &WholeLayout { layout, cfg }, &step, scratch, out, &mut ());
    }

    /// Sequential `(Compute, Account)` and the pooled form at 1, 2 and 8
    /// threads agree on every bit and statistic, for the sparse first
    /// layer and the dense second one.
    fn assert_parallel_matches_sequential(
        layout: &IslandLayout,
        x: &SparseFeatures,
        cfg: ConsumerConfig,
        model: &GnnModel,
        what: &str,
    ) {
        let w = ModelWeights::glorot(model, 11);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = layout.graph().num_nodes();
        let width = w.layer(0).cols();
        let mut seq_buf = vec![0.0f32; n * width];
        let mut scratch = LayerScratch::new();
        let sparse = LayerInput::Sparse(&gathered);
        let relu = Activation::Relu;
        let seq_stats =
            execute_layer(layout, cfg, sparse, w.layer(0), &norm, relu, &mut scratch, &mut seq_buf);
        for threads in [1usize, 2, 8] {
            let mut par_buf = vec![0.0f32; n * width];
            let mut par_scratch = LayerScratch::new();
            let (w0, par) = (w.layer(0), &mut par_buf);
            pooled_layer(layout, cfg, sparse, w0, &norm, relu, threads, &mut par_scratch, par);
            let par_stats = account_layer(layout, cfg, sparse, width, &norm);
            assert_eq!(par_buf, seq_buf, "{what}: values at {threads} threads");
            assert_eq!(par_stats, seq_stats, "{what}: stats at {threads} threads");
        }
        // Dense (layer ≥ 1) input path, sequential vs parallel.
        let dense = DenseMatrix::from_vec(n, width, seq_buf.clone());
        let dense_in = LayerInput::Dense(&dense);
        let (w1, none) = (w.layer(1), Activation::None);
        let mut seq1 = vec![0.0f32; n * w1.cols()];
        let seq1_stats =
            execute_layer(layout, cfg, dense_in, w1, &norm, none, &mut scratch, &mut seq1);
        let mut par1 = vec![0.0f32; n * w1.cols()];
        pooled_layer(layout, cfg, dense_in, w1, &norm, none, 4, &mut scratch, &mut par1);
        let par1_stats = account_layer(layout, cfg, dense_in, w1.cols(), &norm);
        assert_eq!(par1, seq1, "{what}: dense layer values");
        assert_eq!(par1_stats, seq1_stats, "{what}: dense layer stats");
    }

    #[test]
    fn hot_path_parallel_is_bit_identical_to_sequential() {
        let (g, p, x) = setup(260, 0.05, 7);
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for model in [GnnModel::gcn(12, 6, 4), GnnModel::gin(12, 6, 4, 0.2)] {
            assert_parallel_matches_sequential(
                &layout,
                &x,
                cfg,
                &model,
                &format!("{:?}", model.kind()),
            );
        }
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                for cfg in wide_configs() {
                    let what = format!("wide width={width} {:?} {cfg:?}", model.kind());
                    assert_parallel_matches_sequential(&layout, &x, cfg, &model, &what);
                }
            }
        }
    }

    /// The driver in a fleet's form, with the whole layout as one shard,
    /// must equal `execute_layer` bit for bit: the coordinator fills the
    /// hub slab from the hubs' rows alone (fanned out), the shard
    /// loads every hub as its halo and runs the islands into its own
    /// scratch, and the coordinator merges that scratch's hub rows.
    fn assert_export_and_merge_match(
        layout: &IslandLayout,
        x: &SparseFeatures,
        cfg: ConsumerConfig,
        model: &GnnModel,
        what: &str,
    ) {
        let w = ModelWeights::glorot(model, 26);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = layout.graph().num_nodes();
        let num_hubs = layout.num_hubs();
        let width = w.layer(0).cols();
        let input = LayerInput::Sparse(&gathered);

        let mut reference = vec![0.0f32; n * width];
        let mut scratch = LayerScratch::new();
        execute_layer(
            layout,
            cfg,
            input,
            w.layer(0),
            &norm,
            Activation::Relu,
            &mut scratch,
            &mut reference,
        );

        // Coordinator: the hub XW slab from the hubs' feature rows.
        let step = LayerStep {
            ctx: TraceCtx::NONE,
            input,
            weights: w.layer(0),
            norm: &norm,
            activation: Activation::Relu,
            threads: 1,
        };
        let hub_rows = x.gather_rows(&layout.gather_order()[..num_hubs]);
        let hub_in = LayerInput::Sparse(&hub_rows);
        let hub_step = LayerStep { input: hub_in, threads: 3, ..step };
        let mut coordinator = LayerScratch::new();
        coordinator.hubs.begin_layer(num_hubs, &hub_step);

        // Shard: every hub in its halo, the islands into its scratch.
        let halo: Vec<u32> = (0..num_hubs as u32).collect();
        let mut shard = LayerScratch::new();
        shard.load_halo(&coordinator, &halo);
        let mut out = vec![0.0f32; n * width];
        run_islands(layout, cfg, &step, &mut shard, &mut out);

        // Coordinator: schedule-order merge, inter-hub, finalise.
        let hub_out = &mut out[..num_hubs * width];
        let merge = &mut coordinator.hubs;
        merge.merge_layer(layout, &step, |i| shard.contribution(i), hub_out);
        assert_eq!(out, reference, "{what}: the fleet-form layer diverged");
    }

    #[test]
    fn export_and_merge_hooks_reproduce_the_layer_bitwise() {
        let cfg = ConsumerConfig::default();
        for (noise, seed) in [(0.0, 21), (0.1, 22)] {
            let (g, p, x) = setup(240, noise, seed);
            let layout = IslandLayout::new(&g, &p, cfg.num_pes);
            for model in [GnnModel::gcn(12, 7, 3), GnnModel::gin(12, 7, 3, 0.3)] {
                let what = format!("{:?} noise={noise}", model.kind());
                assert_export_and_merge_match(&layout, &x, cfg, &model, &what);
            }
        }
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                for cfg in wide_configs() {
                    let what = format!("wide width={width} {:?} {cfg:?}", model.kind());
                    assert_export_and_merge_match(&layout, &x, cfg, &model, &what);
                }
            }
        }
    }

    #[test]
    fn scratch_arena_stops_growing_after_first_layer() {
        // Arenas grow once to the widest layer and then hold: a narrow
        // layer, a wider one, the narrow one again. Every island of
        // every run enters with an all-zero accumulator (the
        // `debug_assert!` in `begin_island`): `finish_row` leaves it
        // cleared, hub rows included, whatever the width before.
        let (g, p, x) = setup(200, 0.05, 5);
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        let model = GnnModel::gcn(12, 8, 40);
        let w = ModelWeights::glorot(&model, 3);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = g.num_nodes();
        let mut scratch = LayerScratch::new();
        let narrow = |scratch: &mut LayerScratch| {
            let mut out = vec![0.0f32; n * 8];
            let input = LayerInput::Sparse(&gathered);
            let stats = execute_layer(
                &layout,
                cfg,
                input,
                w.layer(0),
                &norm,
                Activation::Relu,
                scratch,
                &mut out,
            );
            (out, stats)
        };
        let first = narrow(&mut scratch);
        let narrow_bytes = scratch.arena_bytes();
        assert!(narrow_bytes > 0);
        let hidden = DenseMatrix::from_vec(n, 8, first.0.clone());
        let wide = |scratch: &mut LayerScratch| {
            let mut out = vec![0.0f32; n * 40];
            let input = LayerInput::Dense(&hidden);
            let stats = execute_layer(
                &layout,
                cfg,
                input,
                w.layer(1),
                &norm,
                Activation::None,
                scratch,
                &mut out,
            );
            (out, stats)
        };
        let first_wide = wide(&mut scratch);
        let warm_bytes = scratch.arena_bytes();
        assert!(warm_bytes > narrow_bytes, "the wider layer must have grown the arenas");
        for _ in 0..3 {
            assert_eq!(narrow(&mut scratch), first, "repeated layers must be deterministic");
            assert_eq!(wide(&mut scratch), first_wide, "repeated layers must be deterministic");
            assert_eq!(
                scratch.arena_bytes(),
                warm_bytes,
                "scratch arenas must not grow after warm-up"
            );
        }
    }

    /// Counts the states `fan_out` creates for its workers.
    static WORKER_STATES: AtomicUsize = AtomicUsize::new(0);

    struct CountedState(Vec<usize>);

    impl Default for CountedState {
        fn default() -> Self {
            WORKER_STATES.fetch_add(1, Ordering::SeqCst);
            CountedState(Vec::new())
        }
    }

    #[test]
    fn fan_out_claims_every_item_once_with_one_state_per_thread() {
        for threads in [1usize, 2, 4] {
            WORKER_STATES.store(0, Ordering::SeqCst);
            let mut local = CountedState(Vec::new());
            let mut out = vec![0usize; 50];
            fan_out(threads, out.iter_mut().enumerate(), &mut local, |state, (i, slot)| {
                state.0.push(i);
                *slot += i + 1;
            });
            assert_eq!(out, (1..=50).collect::<Vec<_>>(), "threads={threads}");
            // The caller's state plus one per helper, not one per item,
            // and no more helpers than the width or the pool allows.
            let states = WORKER_STATES.load(Ordering::SeqCst);
            let most = threads.min(helper_threads());
            assert!(states < most, "threads={threads}: {states} helper states");
        }
        // At width 1: in order, on the caller's state alone.
        let mut local = CountedState(Vec::new());
        fan_out(1, 0..5, &mut local, |state, i| state.0.push(i));
        assert_eq!(local.0, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn gather_then_forward_restores_the_original_rows() {
        // Requests are gathered into layout order on the way in and
        // outputs scattered back through `forward`: the two maps are
        // inverse, whatever order the partition composes to.
        let (g, p, x) = setup(150, 0.0, 9);
        let layout = IslandLayout::new(&g, &p, ConsumerConfig::default().num_pes);
        let gathered = x.gather_rows(layout.gather_order());
        assert_eq!(gathered.gather_rows(layout.forward()), x);
    }
}
