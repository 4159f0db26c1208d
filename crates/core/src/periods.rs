//! The durations the pipeline derives from the four domain clock periods.
//!
//! A clock period changes only when a PLL relock completes, a handful of
//! times per run, yet the simulator needs the crossing delay on every
//! cross-domain operand and commit, and a guarded latency on every issue.
//! [`PeriodTable`] computes all of them once per period change so the hot
//! path reads them instead of redoing the float math per instruction.

use gals_clock::{DomainClock, SyncModel};
use gals_common::Femtos;
use gals_isa::OpClass;

use crate::config::CoreParams;

const FE: usize = 0;
const INT: usize = 1;
const LS: usize = 3;

/// Guarded latency and functional-unit occupancy of one operation class
/// in its execution domain.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecTiming {
    /// Issue-to-completion time.
    pub latency: Femtos,
    /// Time the unit stays occupied (the full latency when unpipelined).
    pub busy: Femtos,
}

/// Every duration the simulator derives from the four clock periods,
/// valid for exactly the periods [`PeriodTable::period`] reports.
#[derive(Debug, Clone)]
pub(crate) struct PeriodTable {
    sync: SyncModel,
    jitter_frac: f64,
    /// The periods the entries were computed from (domain-indexed).
    periods: [Femtos; 4],
    /// Delay a value crossing from domain `from` to `to` waits:
    /// `sync_delay[from][to]`, zero on the diagonal.
    pub sync_delay: [[Femtos; 4]; 4],
    /// Per-domain jitter guard band (see [`jitter_guard`]).
    pub guard: [Femtos; 4],
    /// Integer (index 0) and FP (index 1) issue timing per op class,
    /// indexed by `OpClass as usize`.
    pub exec: [[ExecTiming; OpClass::ALL.len()]; 2],
    /// One guarded load/store cycle (store readiness, forwarding).
    pub ls_one: Femtos,
    /// Guarded L1-D A-partition hit latency.
    pub l1_a: Femtos,
    /// Guarded L1-D B-partition hit latency per D/L2 configuration index.
    pub l1_b: [Femtos; 4],
    /// Unguarded L2 service time: A-partition hit, B-partition hit per
    /// D/L2 configuration index, and miss (A time plus memory).
    pub l2_a: Femtos,
    pub l2_b: [Femtos; 4],
    pub l2_miss: Femtos,
    /// Extra fetch stall of an I-cache B-partition hit per I-cache
    /// configuration index.
    pub ic_b_stall: [Femtos; 4],
    /// Front-end refill after a mispredicted branch resolves.
    pub mispredict_refill: Femtos,
}

/// The jitter guard band: completions are scheduled `2·jitter·period`
/// early so that a consumer edge that nominally coincides with the
/// completing edge still qualifies even when jitter makes it arrive
/// marginally early. Within a domain, producer and consumer share the
/// physical clock, so back-to-back dependent issue must not depend on
/// jitter phase.
fn jitter_guard(period: Femtos, jitter_frac: f64) -> Femtos {
    Femtos::new((period.as_fs() as f64 * jitter_frac * 2.0) as u64)
}

/// Duration of `cycles` cycles of `period`, minus the domain's guard.
fn guarded(period: Femtos, guard: Femtos, cycles: u64) -> Femtos {
    (period * cycles).saturating_sub(guard).max(Femtos::new(1))
}

impl PeriodTable {
    /// Builds the table for the clocks' current periods.
    pub fn new(sync: SyncModel, clocks: &[DomainClock; 4], p: &CoreParams) -> Self {
        let mut t = PeriodTable {
            sync,
            jitter_frac: p.jitter_frac,
            periods: [Femtos::ZERO; 4],
            sync_delay: [[Femtos::ZERO; 4]; 4],
            guard: [Femtos::ZERO; 4],
            exec: [[ExecTiming::default(); OpClass::ALL.len()]; 2],
            ls_one: Femtos::ZERO,
            l1_a: Femtos::ZERO,
            l1_b: [Femtos::ZERO; 4],
            l2_a: Femtos::ZERO,
            l2_b: [Femtos::ZERO; 4],
            l2_miss: Femtos::ZERO,
            ic_b_stall: [Femtos::ZERO; 4],
            mispredict_refill: Femtos::ZERO,
        };
        t.rebuild(clocks, p);
        t
    }

    /// The period `domain`'s entries were computed from.
    #[inline]
    pub fn period(&self, domain: usize) -> Femtos {
        self.periods[domain]
    }

    /// Recomputes every entry if any clock's period differs from the one
    /// the table was built for.
    pub fn refresh(&mut self, clocks: &[DomainClock; 4], p: &CoreParams) {
        if (0..4).any(|d| clocks[d].period() != self.periods[d]) {
            self.rebuild(clocks, p);
        }
    }

    fn rebuild(&mut self, clocks: &[DomainClock; 4], p: &CoreParams) {
        let periods: [Femtos; 4] = std::array::from_fn(|d| clocks[d].period());
        self.periods = periods;
        for (from, row) in self.sync_delay.iter_mut().enumerate() {
            for (to, delay) in row.iter_mut().enumerate() {
                *delay = if from == to {
                    Femtos::ZERO
                } else {
                    self.sync.delay(periods[from], periods[to])
                };
            }
        }
        self.guard = periods.map(|period| jitter_guard(period, self.jitter_frac));
        let cycles = |d: usize, n: u64| guarded(periods[d], self.guard[d], n);

        for (qi, row) in self.exec.iter_mut().enumerate() {
            let domain = qi + 1;
            for op in OpClass::ALL {
                let lat = p.op_latency_cycles(op);
                row[op as usize] = ExecTiming {
                    latency: cycles(domain, lat),
                    busy: cycles(domain, if p.op_unpipelined(op) { lat } else { 1 }),
                };
            }
        }

        let l1_b = |idx: usize| p.l1_b_cycles[idx].unwrap_or(p.l1_a_cycles);
        let l2_b = |idx: usize| p.l2_b_cycles[idx].unwrap_or(p.l2_a_cycles);
        self.ls_one = cycles(LS, 1);
        self.l1_a = cycles(LS, p.l1_a_cycles);
        self.l1_b = std::array::from_fn(|idx| cycles(LS, l1_b(idx)));
        self.l2_a = periods[LS] * p.l2_a_cycles;
        self.l2_b = std::array::from_fn(|idx| periods[LS] * l2_b(idx));
        self.l2_miss = self.l2_a + p.memory_latency();
        self.ic_b_stall = std::array::from_fn(|idx| periods[FE] * (l1_b(idx) - p.l1_a_cycles));
        self.mispredict_refill =
            periods[FE] * p.mispredict_fe_cycles + periods[INT] * p.mispredict_int_cycles;
    }
}

#[cfg(test)]
impl PeriodTable {
    /// Asserts every entry equals its direct formula over the clocks'
    /// current periods: the crossing rule via [`SyncModel::ready_time`]
    /// and each latency via the guard expression.
    pub fn assert_matches(&self, clocks: &[DomainClock; 4], p: &CoreParams) {
        let period = |d: usize| clocks[d].period();
        let at = Femtos::from_us(7);
        for from in 0..4 {
            assert_eq!(self.periods[from], period(from));
            for to in 0..4 {
                let direct = if from == to {
                    at
                } else {
                    self.sync.ready_time(at, period(from), period(to))
                };
                assert_eq!(
                    at + self.sync_delay[from][to],
                    direct,
                    "crossing {from}->{to}"
                );
            }
        }
        let guard = |d: usize| Femtos::new((period(d).as_fs() as f64 * p.jitter_frac * 2.0) as u64);
        let direct =
            |d: usize, n: u64| (period(d) * n).saturating_sub(guard(d)).max(Femtos::new(1));
        for d in 0..4 {
            assert_eq!(self.guard[d], guard(d), "guard {d}");
        }
        for qi in 0..2 {
            for op in OpClass::ALL {
                let lat = p.op_latency_cycles(op);
                let busy = if p.op_unpipelined(op) { lat } else { 1 };
                let e = self.exec[qi][op as usize];
                assert_eq!(e.latency, direct(qi + 1, lat), "{op:?} latency");
                assert_eq!(e.busy, direct(qi + 1, busy), "{op:?} busy");
            }
        }
        assert_eq!(self.ls_one, direct(LS, 1));
        assert_eq!(self.l1_a, direct(LS, p.l1_a_cycles));
        for idx in 0..4 {
            let b1 = p.l1_b_cycles[idx].unwrap_or(p.l1_a_cycles);
            let b2 = p.l2_b_cycles[idx].unwrap_or(p.l2_a_cycles);
            assert_eq!(self.l1_b[idx], direct(LS, b1));
            assert_eq!(self.l2_b[idx], period(LS) * b2);
            assert_eq!(self.ic_b_stall[idx], period(FE) * (b1 - p.l1_a_cycles));
        }
        assert_eq!(self.l2_a, period(LS) * p.l2_a_cycles);
        assert_eq!(
            self.l2_miss,
            period(LS) * p.l2_a_cycles + p.memory_latency()
        );
        assert_eq!(
            self.mispredict_refill,
            period(FE) * p.mispredict_fe_cycles + period(INT) * p.mispredict_int_cycles
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gals_common::{DomainId, Hertz, SplitMix64};

    fn clocks(ghz: [f64; 4]) -> [DomainClock; 4] {
        std::array::from_fn(|d| {
            DomainClock::new(
                DomainId::ALL[d],
                Hertz::from_ghz(ghz[d]),
                0.0,
                SplitMix64::new(d as u64),
            )
        })
    }

    #[test]
    fn entries_match_the_direct_formulas() {
        let p = CoreParams::default();
        let c = clocks([1.6, 1.25, 0.9, 1.1]);
        let t = PeriodTable::new(SyncModel::default(), &c, &p);
        t.assert_matches(&c, &p);
        // The same machine without a synchronization window (the
        // synchronous baseline) prices every crossing at zero.
        let t0 = PeriodTable::new(SyncModel::disabled(), &c, &p);
        assert!(t0.sync_delay.iter().flatten().all(|d| *d == Femtos::ZERO));
    }

    #[test]
    fn refresh_follows_a_period_change() {
        let p = CoreParams::default();
        let mut c = clocks([1.6, 1.25, 0.9, 1.1]);
        let mut t = PeriodTable::new(SyncModel::default(), &c, &p);
        c[LS].set_frequency_immediate(Hertz::from_ghz(1.5));
        assert_ne!(t.period(LS), c[LS].period());
        t.refresh(&c, &p);
        t.assert_matches(&c, &p);
    }
}
