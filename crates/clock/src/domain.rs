//! A free-running, jittered, frequency-agile domain clock.

use gals_common::{DomainId, Femtos, Hertz, SplitMix64};

use crate::pll::Pll;

/// Maximum supported jitter fraction. With the jitter amplitude at most
/// `0.4·period`, consecutive edges are at least `0.2·period` apart (and
/// `0.6·period` apart across a grid re-base), so edges never reorder, and
/// `2·amp < period` pins the last edge before any horizon to one of two
/// grid indices, which is what makes [`DomainClock::fast_forward_to`] O(1).
const MAX_JITTER_FRAC: f64 = 0.4;

#[derive(Debug, Clone, Copy)]
struct PendingChange {
    target: Hertz,
    complete_at: Femtos,
}

/// One clock domain's rising-edge generator.
///
/// Edges lie on an ideal grid `base + k·period` perturbed by bounded,
/// deterministic, seeded jitter. The emitted edge sequence is strictly
/// monotone. Frequency changes go through a [`Pll`] relock: the clock keeps
/// running at the old frequency during the lock interval and switches to
/// the new period at the first edge past lock completion (§2: domains
/// "continue operating through a frequency change").
///
/// # Example
///
/// ```
/// use gals_clock::DomainClock;
/// use gals_common::{DomainId, Hertz, SplitMix64};
///
/// let mut clk = DomainClock::new(
///     DomainId::LoadStore,
///     Hertz::from_ghz(1.0),
///     0.0, // no jitter: exact 1 ns edges
///     SplitMix64::new(1),
/// );
/// assert_eq!(clk.tick().as_fs(), 1_000_000);
/// assert_eq!(clk.tick().as_fs(), 2_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct DomainClock {
    id: DomainId,
    freq: Hertz,
    period: Femtos,
    jitter_frac: f64,
    /// Jitter half-amplitude in fs for the current period (0 = no draws).
    amp: u64,
    /// Jitter stream, positioned just after the draw for `next_edge`.
    rng: SplitMix64,
    pll: Pll,
    /// Time of the ideal grid origin (edge index 0; not itself an edge).
    grid_base: Femtos,
    /// Index of the next ideal edge on the grid (1-based from `grid_base`).
    grid_index: u64,
    /// Total edges emitted since construction.
    cycle: u64,
    /// Time of the most recently emitted edge.
    last_edge: Femtos,
    /// Precomputed time of the next edge.
    next_edge: Femtos,
    pending: Option<PendingChange>,
}

impl DomainClock {
    /// Creates a clock whose first edge falls one (jittered) period after
    /// time zero.
    ///
    /// `jitter_frac` is the peak-to-peak half-amplitude of cycle-to-cycle
    /// jitter as a fraction of the period (e.g. `0.02` = ±2%).
    ///
    /// # Panics
    ///
    /// Panics if `jitter_frac` is negative, not finite, or above 0.4.
    pub fn new(id: DomainId, freq: Hertz, jitter_frac: f64, mut rng: SplitMix64) -> Self {
        assert!(
            jitter_frac.is_finite() && (0.0..=MAX_JITTER_FRAC).contains(&jitter_frac),
            "jitter fraction must be in [0, {MAX_JITTER_FRAC}]: {jitter_frac}"
        );
        let pll = Pll::new(rng.fork(0x504C_4C00));
        let mut clk = DomainClock {
            id,
            freq,
            period: freq.period(),
            jitter_frac,
            amp: 0,
            rng,
            pll,
            grid_base: Femtos::ZERO,
            grid_index: 1,
            cycle: 0,
            last_edge: Femtos::ZERO,
            next_edge: Femtos::ZERO,
            pending: None,
        };
        clk.set_period(freq);
        clk.next_edge = clk.jittered(clk.ideal(1));
        clk
    }

    /// Creates a clock with a fixed phase offset of the ideal grid, so that
    /// independent domains do not share edge alignment. The offset is
    /// reduced modulo the period.
    pub fn with_phase(
        id: DomainId,
        freq: Hertz,
        jitter_frac: f64,
        phase: Femtos,
        rng: SplitMix64,
    ) -> Self {
        let mut clk = DomainClock::new(id, freq, jitter_frac, rng);
        clk.grid_base = Femtos::new(phase.as_fs() % clk.period.as_fs());
        clk.next_edge = clk.jittered(clk.ideal(1));
        clk
    }

    #[inline]
    fn ideal(&self, index: u64) -> Femtos {
        self.grid_base + self.period * index
    }

    fn set_period(&mut self, freq: Hertz) {
        self.freq = freq;
        self.period = freq.period();
        self.amp = (self.period.as_fs() as f64 * self.jitter_frac) as u64;
    }

    /// Perturbs an ideal edge by one jitter draw from `rng` (no draw when
    /// `amp == 0`).
    #[inline]
    fn jitter(ideal: Femtos, amp: u64, rng: &mut SplitMix64) -> Femtos {
        if amp == 0 {
            return ideal;
        }
        let j = rng.next_below(2 * amp + 1) as i64 - amp as i64;
        if j >= 0 {
            ideal + Femtos::new(j as u64)
        } else {
            ideal.saturating_sub(Femtos::new((-j) as u64))
        }
    }

    #[inline]
    fn jittered(&mut self, ideal: Femtos) -> Femtos {
        Self::jitter(ideal, self.amp, &mut self.rng)
    }

    /// Time of the edge at grid index `index >= grid_index` on the current
    /// grid, without consuming anything. Edge `grid_index` is `next_edge`;
    /// each later edge takes the next draw of the stream in index order.
    fn edge_at(&self, index: u64) -> Femtos {
        debug_assert!(index >= self.grid_index);
        if index == self.grid_index {
            return self.next_edge;
        }
        let mut rng = self.rng.clone();
        if self.amp != 0 {
            rng.skip(index - self.grid_index - 1);
        }
        Self::jitter(self.ideal(index), self.amp, &mut rng)
    }

    /// Domain this clock drives.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// Current operating frequency (the old frequency during a relock).
    pub fn frequency(&self) -> Hertz {
        self.freq
    }

    /// Current period.
    pub fn period(&self) -> Femtos {
        self.period
    }

    /// Total edges emitted so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Time of the most recent edge ([`Femtos::ZERO`] before the first).
    pub fn last_edge(&self) -> Femtos {
        self.last_edge
    }

    /// Time of the next edge, without advancing.
    pub fn peek_next_edge(&self) -> Femtos {
        self.next_edge
    }

    /// True while a frequency change is waiting for PLL lock.
    pub fn is_locking(&self) -> bool {
        self.pending.is_some()
    }

    /// The frequency that will take effect once the current relock
    /// completes, if any.
    pub fn target_frequency(&self) -> Option<Hertz> {
        self.pending.map(|p| p.target)
    }

    /// Advances to the next rising edge and returns its time.
    ///
    /// If a pending frequency change has completed its PLL lock by this
    /// edge, the new period takes effect for subsequent edges (the grid is
    /// re-based at this edge).
    pub fn tick(&mut self) -> Femtos {
        let edge = self.next_edge;
        debug_assert!(edge > self.last_edge || self.cycle == 0);
        self.last_edge = edge;
        self.cycle += 1;
        self.grid_index += 1;

        if let Some(p) = self.pending {
            if p.complete_at <= edge {
                self.set_period(p.target);
                self.grid_base = edge;
                self.grid_index = 1;
                self.pending = None;
            }
        }

        // No clamp needed: consecutive edges on one grid are at least
        // `period - 2·amp >= 0.2·period` apart, and the first edge after a
        // re-base at least `period - amp >= 0.6·period` past it.
        self.next_edge = self.jittered(self.ideal(self.grid_index));
        debug_assert!(self.next_edge > edge);
        edge
    }

    /// Advances past every edge strictly before `horizon`, exactly as if
    /// [`DomainClock::tick`] had been called once per such edge, and
    /// returns how many edges were consumed.
    ///
    /// The jump is O(1) for every clock, jittered or not and with or
    /// without a relock pending, and leaves the RNG stream — and therefore
    /// every later edge — bit-identical to ticking. Edge `k` of a grid
    /// sits at `grid_base + k·period + j_k` with `|j_k| <= amp`, and the
    /// `j_k` are consecutive draws of a Weyl-counter stream, so any edge
    /// can be computed directly and the stream skipped past a whole span.
    /// A pending relock splits the span at its completion time: the edge
    /// that re-bases the grid is ticked, and the rest of the span is
    /// jumped on the new grid.
    pub fn fast_forward_to(&mut self, horizon: Femtos) -> u64 {
        let start = self.cycle;
        if let Some(p) = self.pending {
            self.jump_on_grid(horizon.min(p.complete_at));
            if self.next_edge >= horizon {
                return self.cycle - start;
            }
            // Every edge before `complete_at` is consumed, so this one
            // re-bases the grid.
            self.tick();
        }
        self.jump_on_grid(horizon);
        self.cycle - start
    }

    /// Consumes every edge before `horizon` on the current grid. The
    /// caller guarantees no relock completes within the span.
    fn jump_on_grid(&mut self, horizon: Femtos) {
        if self.next_edge >= horizon {
            return;
        }
        // `m` is the last grid index whose earliest possible edge,
        // `ideal(m) - amp`, is before `horizon`: no later edge can be.
        // Edge `m - 1` is at most `ideal(m) - period + amp`, which is
        // before `horizon` because `2·amp < period`. So the last edge
        // before `horizon` is `m` or `m - 1`. `m >= grid_index` because
        // `next_edge` itself is before `horizon`.
        let reach = horizon.as_fs().saturating_add(self.amp) - 1;
        let m = (reach - self.grid_base.as_fs()) / self.period.as_fs();
        debug_assert!(m >= self.grid_index);
        let at_m = self.edge_at(m);
        let last = if at_m < horizon {
            self.last_edge = at_m;
            self.next_edge = self.edge_at(m + 1);
            m
        } else {
            self.last_edge = self.edge_at(m - 1);
            self.next_edge = at_m;
            m - 1
        };
        let consumed = last + 1 - self.grid_index;
        if self.amp != 0 {
            self.rng.skip(consumed);
        }
        self.cycle += consumed;
        self.grid_index = last + 1;
    }

    /// Begins a frequency change to `target`, sampling a PLL lock time.
    /// Returns the completion time. The clock continues at the current
    /// frequency until then.
    ///
    /// Calling again while a change is pending replaces the pending target
    /// and restarts the lock interval (the controller in the paper never
    /// does this — decisions are spaced by 15K-instruction intervals an
    /// order of magnitude longer than the lock time — but the model is
    /// defined for robustness).
    pub fn begin_frequency_change(&mut self, target: Hertz) -> Femtos {
        if target == self.freq && self.pending.is_none() {
            return self.last_edge;
        }
        let lock = self.pll.sample_lock_time();
        let complete_at = self.last_edge + lock;
        self.pending = Some(PendingChange {
            target,
            complete_at,
        });
        complete_at
    }

    /// Replaces the PLL model (for ablation studies over lock times).
    pub fn set_pll(&mut self, pll: Pll) {
        self.pll = pll;
    }

    /// Immediately sets the frequency without a relock. Used to construct
    /// baseline machines and in tests; run-time adaptation must use
    /// [`DomainClock::begin_frequency_change`].
    pub fn set_frequency_immediate(&mut self, target: Hertz) {
        self.set_period(target);
        self.grid_base = self.last_edge;
        self.grid_index = 1;
        self.pending = None;
        // A re-based first edge is at least `period - amp >= 0.6·period`
        // past `last_edge`, so no clamp is needed (see `tick`).
        self.next_edge = self.jittered(self.ideal(1));
        debug_assert!(self.next_edge > self.last_edge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clk(freq_ghz: f64, jitter: f64, seed: u64) -> DomainClock {
        DomainClock::new(
            DomainId::Integer,
            Hertz::from_ghz(freq_ghz),
            jitter,
            SplitMix64::new(seed),
        )
    }

    /// Ticks one edge at a time until the next edge is at or past
    /// `horizon`; returns the number of edges consumed.
    fn tick_to(c: &mut DomainClock, horizon: Femtos) -> u64 {
        let mut n = 0;
        while c.peek_next_edge() < horizon {
            c.tick();
            n += 1;
        }
        n
    }

    #[test]
    fn jitter_free_edges_on_grid() {
        let mut c = clk(1.0, 0.0, 1);
        for k in 1..=100u64 {
            assert_eq!(c.tick(), Femtos::new(k * 1_000_000));
        }
        assert_eq!(c.cycle(), 100);
    }

    /// `fast_forward_to` must leave the clock in exactly the state that
    /// the equivalent number of `tick` calls would, jittered or not.
    #[test]
    fn fast_forward_is_equivalent_to_ticking() {
        for (jitter, seed) in [(0.0, 1u64), (0.0, 9), (0.01, 1), (0.05, 7), (0.4, 11)] {
            let mut ff = clk(1.6, jitter, seed);
            let mut tk = clk(1.6, jitter, seed);
            // Interleave jumps of assorted spans with normal ticks.
            for (i, span_edges) in [3u64, 1, 250, 17, 1000, 2].iter().enumerate() {
                // Choose a horizon a fractional period past the span.
                let horizon =
                    tk.peek_next_edge() + tk.period() * *span_edges + Femtos::new(137 * i as u64);
                let n_tk = tick_to(&mut tk, horizon);
                let n_ff = ff.fast_forward_to(horizon);
                assert_eq!(n_ff, n_tk, "jitter {jitter}: edge counts diverged");
                assert_eq!(ff.cycle(), tk.cycle());
                assert_eq!(ff.last_edge(), tk.last_edge());
                assert_eq!(ff.peek_next_edge(), tk.peek_next_edge());
                // A few plain ticks between jumps keep both streams hot.
                for _ in 0..5 {
                    assert_eq!(ff.tick(), tk.tick());
                }
            }
        }
    }

    #[test]
    fn fast_forward_noop_when_horizon_not_reached() {
        let mut c = clk(1.0, 0.0, 1);
        let before = c.peek_next_edge();
        assert_eq!(c.fast_forward_to(before), 0, "strictly-before semantics");
        assert_eq!(c.peek_next_edge(), before);
        assert_eq!(c.cycle(), 0);
    }

    /// One jittered jump across ~10^12 edges: a per-edge loop would never
    /// finish. Edges stay within `amp < period/2` of the ideal grid, so a
    /// horizon half a period past ideal edge `n` consumes exactly `n`.
    #[test]
    fn fast_forward_is_constant_time() {
        let n = 1_000_000_000_000u64;
        let mut whole = clk(1.0, 0.4, 12);
        let horizon = Femtos::new(n * 1_000_000 + 500_000);
        assert_eq!(whole.fast_forward_to(horizon), n);
        assert_eq!(whole.cycle(), n);
        let off = whole.last_edge().as_fs() as i64 - (n * 1_000_000) as i64;
        assert!(off.abs() <= 400_000, "last edge {off} fs off the grid");
        // Splitting the span anywhere leaves the identical state.
        for split in [1u64, 999_999, 12_345_678_901, n * 1_000_000 - 1] {
            let mut parts = clk(1.0, 0.4, 12);
            let first = parts.fast_forward_to(Femtos::new(split));
            assert_eq!(first + parts.fast_forward_to(horizon), n);
            assert_eq!(parts.cycle(), whole.cycle());
            assert_eq!(parts.last_edge(), whole.last_edge());
            assert_eq!(parts.peek_next_edge(), whole.peek_next_edge());
            let mut ahead = whole.clone();
            for _ in 0..100 {
                assert_eq!(parts.tick(), ahead.tick());
            }
        }
    }

    #[test]
    fn fast_forward_across_relock_matches_ticking() {
        let mut c = clk(1.0, 0.1, 3);
        c.tick();
        let done = c.begin_frequency_change(Hertz::from_ghz(2.0));
        let mut tk = clk(1.0, 0.1, 3);
        tk.tick();
        let done_tk = tk.begin_frequency_change(Hertz::from_ghz(2.0));
        assert_eq!(done, done_tk);
        // Jump across the relock boundary: the grid re-bases mid-span,
        // and the jitter amplitude changes with the period.
        let horizon = done + Femtos::from_ns(10);
        assert_eq!(c.fast_forward_to(horizon), tick_to(&mut tk, horizon));
        assert!(!c.is_locking());
        assert_eq!(c.last_edge(), tk.last_edge());
        assert_eq!(c.peek_next_edge(), tk.peek_next_edge());
        assert_eq!(c.frequency(), tk.frequency());
        assert_eq!(c.cycle(), tk.cycle());
        for _ in 0..100 {
            assert_eq!(c.tick(), tk.tick());
        }
    }

    /// An edge landing exactly on the lock completion re-bases the grid,
    /// as in `tick` (`complete_at <= edge`), whether the jump stops just
    /// before that edge or runs past it.
    #[test]
    fn fast_forward_rebases_on_edge_at_lock_completion() {
        let lock = Femtos::from_ns(10);
        for split in [Femtos::from_ns(11), Femtos::new(11_000_001)] {
            let mut c = clk(1.0, 0.0, 4);
            c.set_pll(Pll::with_parameters(
                lock,
                Femtos::ZERO,
                lock,
                lock,
                SplitMix64::new(0),
            ));
            c.tick();
            let done = c.begin_frequency_change(Hertz::from_ghz(2.0));
            assert_eq!(done, Femtos::from_ns(11), "edge 11 completes the lock");
            let mut tk = c.clone();
            for horizon in [split, Femtos::from_ns(14)] {
                assert_eq!(c.fast_forward_to(horizon), tick_to(&mut tk, horizon));
                assert_eq!(c.is_locking(), tk.is_locking());
                assert_eq!(c.last_edge(), tk.last_edge());
                assert_eq!(c.peek_next_edge(), tk.peek_next_edge());
            }
            assert_eq!(c.frequency(), Hertz::from_ghz(2.0));
            assert_eq!(c.last_edge(), Femtos::new(13_500_000));
        }
    }

    #[test]
    fn edges_strictly_monotone_with_jitter() {
        let mut c = clk(1.52, 0.05, 2);
        let mut prev = Femtos::ZERO;
        for _ in 0..100_000 {
            let e = c.tick();
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn jitter_stays_near_ideal_grid() {
        let mut c = clk(1.0, 0.02, 3);
        for k in 1..=10_000u64 {
            let e = c.tick().as_fs() as i64;
            let ideal = (k * 1_000_000) as i64;
            assert!((e - ideal).abs() <= 20_000, "edge {k}: {e} vs {ideal}");
        }
    }

    #[test]
    fn phase_offset_shifts_grid() {
        let a = DomainClock::with_phase(
            DomainId::FrontEnd,
            Hertz::from_ghz(1.0),
            0.0,
            Femtos::new(250_000),
            SplitMix64::new(4),
        );
        assert_eq!(a.peek_next_edge(), Femtos::new(1_250_000));
    }

    #[test]
    fn frequency_change_waits_for_lock() {
        let mut c = clk(1.0, 0.0, 5);
        c.tick();
        let done = c.begin_frequency_change(Hertz::from_ghz(2.0));
        assert!(c.is_locking());
        assert_eq!(c.target_frequency(), Some(Hertz::from_ghz(2.0)));
        // Lock time within the paper's 10-20 µs.
        let lock = done - c.last_edge();
        assert!(lock >= Femtos::from_us(10) && lock <= Femtos::from_us(20));
        // Old frequency until completion.
        while c.peek_next_edge() < done {
            c.tick();
            assert_eq!(c.frequency(), Hertz::from_ghz(1.0));
        }
        // First edge past completion applies the new frequency.
        c.tick();
        c.tick();
        assert_eq!(c.frequency(), Hertz::from_ghz(2.0));
        assert!(!c.is_locking());
        assert_eq!(c.period(), Femtos::new(500_000));
    }

    #[test]
    fn change_to_same_frequency_is_noop() {
        let mut c = clk(1.0, 0.0, 6);
        c.tick();
        c.begin_frequency_change(Hertz::from_ghz(1.0));
        assert!(!c.is_locking());
    }

    #[test]
    fn immediate_change_rebases_grid() {
        let mut c = clk(1.0, 0.0, 7);
        c.tick(); // t = 1 ns
        c.set_frequency_immediate(Hertz::from_ghz(0.5));
        assert_eq!(c.tick(), Femtos::new(3_000_000)); // 1 ns + 2 ns period
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn excessive_jitter_rejected() {
        let _ = clk(1.0, 0.5, 8);
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = clk(1.3, 0.03, 9);
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(a.tick(), b.tick());
        }
    }
}
