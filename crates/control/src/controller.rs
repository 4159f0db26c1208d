//! The policy boundary: interval statistics in, a resize decision out.

use gals_cache::AccountingStats;

/// End-of-interval statistics handed to a [`DomainController`].
///
/// Two interval flavors exist, matching the paper's two control loops:
/// cache domains are evaluated from their Accounting Cache counters
/// (§3.1), issue queues from the rename-time ILP timestamp tracker
/// (§3.2). Both are evaluated once per adaptation interval (15K
/// committed instructions, sized "comparable to the PLL lock-down
/// time"); the issue-queue flavor aggregates the many ~N-instruction
/// tracking intervals that completed inside the adaptation interval,
/// because deciding per tracking interval would thrash the PLLs on
/// measurement noise. A policy that only understands one flavor should
/// return [`Decision::Stay`] for the other.
#[derive(Debug)]
pub enum IntervalStats<'a> {
    /// Accounting-cache interval counters for an adaptive cache (or the
    /// jointly-resized D/L2 pair).
    Cache {
        /// First-level (I-cache or L1-D) interval counters.
        l1: &'a AccountingStats,
        /// Joint second-level counters (D/L2 pair controller only).
        l2: Option<&'a AccountingStats>,
        /// Average service time (ns) of a miss out of the last modeled
        /// level: measured L2 service for the I-cache, memory for the
        /// D/L2 pair.
        miss_ns: f64,
        /// The domain's PLL is mid-relock or a resize is still pending;
        /// the engine will not act this interval, and stateful policies
        /// should suspend streaks/integrators rather than accumulate
        /// stale pressure.
        locked: bool,
    },
    /// One adaptation interval's aggregated ILP measurements for an
    /// issue queue.
    Ilp {
        /// Mean effective-ILP score (`min(N, n_class)/M_N × f_N`, higher
        /// is better) per candidate queue size over the interval's
        /// completed tracking intervals, indexed like `IqSize::ALL`.
        scores: [f64; 4],
        /// The interval's recommendation: the candidate that won the
        /// majority of the completed tracking intervals' raw §3.2
        /// decisions (argmax over scores with the starvation rule,
        /// per tracking interval), ties kept by the incumbent.
        want: usize,
        /// See [`IntervalStats::Cache::locked`].
        locked: bool,
    },
}

impl IntervalStats<'_> {
    /// Whether the domain is locked (PLL relock or pending resize).
    pub fn locked(&self) -> bool {
        match self {
            IntervalStats::Cache { locked, .. } | IntervalStats::Ilp { locked, .. } => *locked,
        }
    }
}

/// A controller's verdict for the next interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current configuration.
    Stay,
    /// Reconfigure to the candidate with this index (into the domain's
    /// upsizing-ordered configuration list).
    Switch(usize),
}

/// One adaptive domain's control policy: at the end of each interval the
/// engine feeds it that interval's statistics and it answers with a
/// [`Decision`].
///
/// Contract:
///
/// * `decide` expresses a *preference* — it must not assume the switch
///   happens. The engine (or a wrapper such as
///   [`Hysteresis`](crate::Hysteresis)) confirms an accepted decision
///   via [`DomainController::set_current`].
/// * Implementations must be deterministic: the same statistics sequence
///   must produce the same decision sequence (sweep results are cached
///   on that assumption).
/// * When `stats.locked()` is true the engine will discard a `Switch`,
///   so policies should return [`Decision::Stay`] and treat the interval
///   as a hold (reset streaks, freeze integrators) rather than let state
///   accumulate toward a move they cannot make.
pub trait DomainController: std::fmt::Debug + Send + Sync {
    /// Short policy name, used in decision traces and artifacts.
    fn name(&self) -> &'static str;

    /// Clones the controller behind the trait object. Simulator snapshots
    /// (the sweep engine's interval memo) clone whole machines, so every
    /// policy must be deep-copyable mid-run with its streaks/integrators
    /// intact.
    fn box_clone(&self) -> Box<dyn DomainController>;

    /// End-of-interval decision.
    fn decide(&mut self, stats: &IntervalStats<'_>) -> Decision;

    /// The currently targeted configuration index (the last confirmed
    /// decision; the physically effective configuration may lag while a
    /// PLL relock is in flight).
    fn current(&self) -> usize;

    /// Confirms a configuration (decision accepted by the engine, or an
    /// externally forced reset).
    fn set_current(&mut self, idx: usize);

    /// Number of candidate configurations.
    fn candidates(&self) -> usize;
}

impl Clone for Box<dyn DomainController> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}
