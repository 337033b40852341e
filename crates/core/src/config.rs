//! Configuration of the Island Locator and Island Consumer.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// How the initial hub threshold `TH_o` (Algorithm 1 input) is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdInit {
    /// `TH_o = max(2, fraction · max_degree)`. The paper's Island Locator
    /// starts from a high threshold so only the strongest hubs are peeled
    /// first; half the maximum degree is a robust default.
    MaxDegreeFraction(f64),
    /// A fixed absolute threshold.
    Absolute(u32),
}

impl ThresholdInit {
    /// Resolves the initial threshold for a graph with the given maximum
    /// degree.
    pub fn resolve(self, max_degree: usize) -> u32 {
        match self {
            ThresholdInit::MaxDegreeFraction(f) => ((max_degree as f64 * f).round() as u32).max(2),
            ThresholdInit::Absolute(t) => t.max(1),
        }
    }
}

/// The per-round threshold decay `Decay()` of Algorithm 1 (line 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecayPolicy {
    /// `TH ← max(floor, TH / 2)` — geometric decay, the default.
    Halve,
    /// `TH ← max(floor, TH − step)` — linear decay.
    Linear {
        /// Amount subtracted each round.
        step: u32,
    },
}

impl DecayPolicy {
    /// Applies one round of decay; the result never goes below 1.
    pub fn apply(self, threshold: u32) -> u32 {
        match self {
            DecayPolicy::Halve => (threshold / 2).max(1),
            DecayPolicy::Linear { step } => threshold.saturating_sub(step.max(1)).max(1),
        }
    }
}

/// Configuration of the Island Locator (Algorithm 1 inputs).
///
/// # Example
///
/// ```
/// use igcn_core::IslandizationConfig;
///
/// let cfg = IslandizationConfig::default()
///     .with_c_max(16)
///     .with_engines(32);
/// assert_eq!(cfg.c_max, 16);
/// assert_eq!(cfg.p2_engines, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IslandizationConfig {
    /// Initial hub threshold `TH_o`.
    pub threshold_init: ThresholdInit,
    /// Per-round threshold decay.
    pub decay: DecayPolicy,
    /// Maximum number of nodes in an island (`c_max`). TP-BFS drops tasks
    /// that grow beyond it.
    pub c_max: usize,
    /// Parallel factor of hub detection (`P1`): node-degree FIFO lanes.
    pub p1_lanes: usize,
    /// Parallel factor of island search (`P2`): TP-BFS engines.
    pub p2_engines: usize,
    /// Safety bound on locator rounds (the algorithm terminates on its own;
    /// this converts a would-be hang into a panic in debug runs).
    pub max_rounds: u32,
}

impl Default for IslandizationConfig {
    /// The configuration the paper evaluates: 64 TP-BFS engines, 16 hub
    /// FIFO lanes, islands of at most 64 nodes, halving decay from half
    /// the maximum degree. (The paper leaves `c_max` unspecified; 64
    /// gives enough headroom for a few noise-merged communities to close
    /// as one island while keeping the bitmap buffer at 64×64 bits per
    /// engine.)
    fn default() -> Self {
        IslandizationConfig {
            threshold_init: ThresholdInit::MaxDegreeFraction(0.5),
            decay: DecayPolicy::Halve,
            c_max: 64,
            p1_lanes: 16,
            p2_engines: 64,
            max_rounds: 512,
        }
    }
}

impl IslandizationConfig {
    /// Sets `c_max`.
    ///
    /// # Panics
    ///
    /// Panics if `c_max == 0`.
    pub fn with_c_max(mut self, c_max: usize) -> Self {
        assert!(c_max > 0, "c_max must be positive");
        self.c_max = c_max;
        self
    }

    /// Sets the TP-BFS engine count (`P2`).
    ///
    /// # Panics
    ///
    /// Panics if `engines == 0`.
    pub fn with_engines(mut self, engines: usize) -> Self {
        assert!(engines > 0, "at least one TP-BFS engine is required");
        self.p2_engines = engines;
        self
    }

    /// Sets the hub-detection lane count (`P1`).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "at least one hub-detection lane is required");
        self.p1_lanes = lanes;
        self
    }

    /// Sets the initial threshold policy.
    pub fn with_threshold_init(mut self, init: ThresholdInit) -> Self {
        self.threshold_init = init;
        self
    }

    /// Sets the decay policy.
    pub fn with_decay(mut self, decay: DecayPolicy) -> Self {
        self.decay = decay;
        self
    }

    /// The minimum loop-free degree a node must keep to remain a hub
    /// when edges are *removed* (`apply_update` demotes hubs that fall
    /// below it). This is the lowest threshold the configured
    /// [`ThresholdInit`] can resolve to: the floor of `Absolute`, and 2
    /// for `MaxDegreeFraction` (which never resolves lower).
    pub fn hub_floor(&self) -> u32 {
        match self.threshold_init {
            ThresholdInit::Absolute(t) => t.max(1),
            ThresholdInit::MaxDegreeFraction(_) => 2,
        }
    }
}

/// How pre-aggregation groups are materialised in the Island Consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreaggPolicy {
    /// Pre-aggregate every group of `k` consecutive members at combination
    /// time, as §3.3.1 describes ("conducts pre-aggregation at the
    /// completion of the combination of every k node").
    Eager,
    /// Materialise a group sum only when the window scan first uses it
    /// (an ablation; saves work on very sparse islands).
    Lazy,
}

/// Configuration of the Island Consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsumerConfig {
    /// Pre-aggregation group width `k` (the `1×k` scan-window size).
    pub k: usize,
    /// Number of processing elements.
    pub num_pes: usize,
    /// Pre-aggregation materialisation policy.
    pub preagg: PreaggPolicy,
    /// Whether shared-neighbor redundancy removal is enabled (disable for
    /// the ablation baseline of Figure 10).
    pub redundancy_removal: bool,
}

impl Default for ConsumerConfig {
    /// Evaluation defaults: `k = 4` pre-aggregation window (Figure 7's
    /// walk-through uses k = 2 "for clarity"; k is customisable and 4
    /// prunes more on the dense islands real graphs contain), 8 PEs,
    /// eager pre-aggregation, redundancy removal on.
    fn default() -> Self {
        ConsumerConfig { k: 4, num_pes: 8, preagg: PreaggPolicy::Eager, redundancy_removal: true }
    }
}

impl ConsumerConfig {
    /// Checks what the `with_*` setters guard but a literal (or a
    /// decoded snapshot) can bypass: `2 ≤ k ≤ 64` and `num_pes ≥ 1`.
    /// Every engine build runs it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        let invalid =
            |field, value, expected| Err(CoreError::InvalidConfig { field, value, expected });
        if !(2..=64).contains(&self.k) {
            return invalid("consumer.k", self.k, "2..=64");
        }
        if self.num_pes == 0 {
            return invalid("consumer.num_pes", 0, "at least 1");
        }
        Ok(())
    }

    /// Sets the pre-aggregation window width `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (a window of 1 cannot share anything) or `k > 64`
    /// (the scan window is a packed 64-bit mask).
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 2, "pre-aggregation window must be at least 2");
        assert!(k <= 64, "pre-aggregation window must be at most 64");
        self.k = k;
        self
    }

    /// Sets the PE count.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes == 0`.
    pub fn with_pes(mut self, num_pes: usize) -> Self {
        assert!(num_pes > 0, "at least one PE is required");
        self.num_pes = num_pes;
        self
    }

    /// Enables or disables redundancy removal.
    pub fn with_redundancy_removal(mut self, on: bool) -> Self {
        self.redundancy_removal = on;
        self
    }

    /// Sets the pre-aggregation policy.
    pub fn with_preagg(mut self, policy: PreaggPolicy) -> Self {
        self.preagg = policy;
        self
    }
}

/// Configuration of software execution inside one inference: the
/// thread count that fans the island schedule out. How many requests
/// run at once is not decided here — that is the caller's thread count
/// (`igcn-serve`'s `ServingConfig::num_workers`).
///
/// No `ExecConfig` changes an output or a report: with `num_threads ==
/// 1` (the default) every path runs the sequential code, and with more
/// threads outputs are still bit-identical — island results merge in
/// schedule order, so no floating-point reassociation depends on thread
/// timing — and `ExecReport`s are equal, on an engine and on a sharded
/// fleet alike.
///
/// # Example
///
/// ```
/// use igcn_core::ExecConfig;
///
/// let cfg = ExecConfig::default().with_threads(4);
/// assert_eq!(cfg.num_threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Worker threads available to the engine (including the calling
    /// thread). 1 = fully sequential; more fan per-island aggregation
    /// work across the pool inside a single inference.
    pub num_threads: usize,
}

impl Default for ExecConfig {
    /// Sequential execution over the physical layout: one thread.
    fn default() -> Self {
        ExecConfig { num_threads: 1 }
    }
}

impl ExecConfig {
    /// Sets the worker thread count.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        assert!(num_threads > 0, "at least one thread is required");
        self.num_threads = num_threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_config_defaults_are_sequential() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.num_threads, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ExecConfig::default().with_threads(0);
    }

    #[test]
    fn threshold_init_resolution() {
        assert_eq!(ThresholdInit::MaxDegreeFraction(0.5).resolve(100), 50);
        assert_eq!(ThresholdInit::MaxDegreeFraction(0.5).resolve(1), 2);
        assert_eq!(ThresholdInit::Absolute(7).resolve(100), 7);
        assert_eq!(ThresholdInit::Absolute(0).resolve(100), 1);
    }

    #[test]
    fn decay_floors_at_one() {
        assert_eq!(DecayPolicy::Halve.apply(8), 4);
        assert_eq!(DecayPolicy::Halve.apply(1), 1);
        assert_eq!(DecayPolicy::Linear { step: 3 }.apply(5), 2);
        assert_eq!(DecayPolicy::Linear { step: 3 }.apply(2), 1);
        assert_eq!(DecayPolicy::Linear { step: 0 }.apply(5), 4);
    }

    #[test]
    fn builder_chains() {
        let cfg = IslandizationConfig::default()
            .with_c_max(8)
            .with_engines(4)
            .with_lanes(2)
            .with_threshold_init(ThresholdInit::Absolute(10))
            .with_decay(DecayPolicy::Linear { step: 2 });
        assert_eq!(cfg.c_max, 8);
        assert_eq!(cfg.p2_engines, 4);
        assert_eq!(cfg.p1_lanes, 2);
    }

    #[test]
    #[should_panic(expected = "c_max must be positive")]
    fn zero_cmax_panics() {
        let _ = IslandizationConfig::default().with_c_max(0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_below_two_panics() {
        let _ = ConsumerConfig::default().with_k(1);
    }

    #[test]
    fn consumer_defaults_match_paper() {
        let c = ConsumerConfig::default();
        assert_eq!(c.k, 4);
        assert!(c.redundancy_removal);
        assert_eq!(c.preagg, PreaggPolicy::Eager);
    }
}
