//! Cross-domain synchronization cost model.

use gals_common::Femtos;

/// The inter-domain synchronization rule of the MCD simulator, after
/// Sjogren and Myers (§2):
///
/// > "It imposes a delay of one cycle in the consumer domain whenever the
/// > distance between the edges of the two clocks is within 30% of the
/// > period of the faster clock."
///
/// Mechanically: a value produced at a producer edge `t` cannot be latched
/// by a consumer edge that falls less than `0.3·T_fast` after `t` (the
/// synchronizer's setup window); such an edge "misses" the value and the
/// consumer catches it one cycle later. This is implemented by exposing the
/// earliest *safe* time [`SyncModel::ready_time`]; the consumer uses the
/// value at its first edge at or after that time.
///
/// # Example
///
/// ```
/// use gals_clock::SyncModel;
/// use gals_common::Femtos;
///
/// let sync = SyncModel::default();
/// let produced = Femtos::from_ns(10);
/// let ready = sync.ready_time(produced, Femtos::from_ps(625), Femtos::from_ps(800));
/// // Faster period is 625 ps; safe 187.5 ps after production.
/// assert_eq!(ready, produced + Femtos::new(187_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncModel {
    threshold_frac: f64,
}

impl SyncModel {
    /// Creates a model with the given setup-window fraction of the faster
    /// clock's period.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_frac` is negative, not finite, or ≥ 1.
    pub fn new(threshold_frac: f64) -> Self {
        assert!(
            threshold_frac.is_finite() && (0.0..1.0).contains(&threshold_frac),
            "threshold must be in [0, 1): {threshold_frac}"
        );
        SyncModel { threshold_frac }
    }

    /// A model that imposes no synchronization penalty (used for the fully
    /// synchronous baseline, which has no domain boundaries).
    pub fn disabled() -> Self {
        SyncModel {
            threshold_frac: 0.0,
        }
    }

    /// The setup-window fraction.
    pub fn threshold_frac(&self) -> f64 {
        self.threshold_frac
    }

    /// Earliest time at which a value produced at `produced_at` (an edge of
    /// the producer clock) may be latched by the consumer, given both
    /// current periods.
    #[inline]
    pub fn ready_time(
        &self,
        produced_at: Femtos,
        producer_period: Femtos,
        consumer_period: Femtos,
    ) -> Femtos {
        produced_at + self.delay(producer_period, consumer_period)
    }

    /// The crossing delay itself: how long after production a value
    /// becomes safe to latch. It depends only on the two periods, so a
    /// caller whose periods change rarely can compute it once per change.
    #[inline]
    pub fn delay(&self, producer_period: Femtos, consumer_period: Femtos) -> Femtos {
        if self.threshold_frac == 0.0 {
            return Femtos::ZERO;
        }
        let fast = producer_period.min(consumer_period).as_fs() as f64;
        Femtos::new((self.threshold_frac * fast).ceil() as u64)
    }
}

impl Default for SyncModel {
    /// The paper's 30% rule.
    fn default() -> Self {
        SyncModel {
            threshold_frac: 0.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_30_percent() {
        assert_eq!(SyncModel::default().threshold_frac(), 0.3);
    }

    #[test]
    fn window_uses_faster_period() {
        let s = SyncModel::default();
        let t = Femtos::from_ns(100);
        let fast = Femtos::from_ps(500);
        let slow = Femtos::from_ps(900);
        // Same window regardless of which side is faster.
        assert_eq!(s.ready_time(t, fast, slow), s.ready_time(t, slow, fast));
        assert_eq!(s.ready_time(t, fast, slow), t + Femtos::from_ps(150));
    }

    #[test]
    fn disabled_imposes_nothing() {
        let s = SyncModel::disabled();
        let t = Femtos::from_ns(5);
        assert_eq!(
            s.ready_time(t, Femtos::from_ps(625), Femtos::from_ps(625)),
            t
        );
    }

    #[test]
    fn consumer_edge_inside_window_slips_one_cycle() {
        // Behavioural check of the rule as the simulator applies it:
        // consumer edges every 800 ps starting at 10 ns; producer edge at
        // 10.1 ns; window = 0.3 * 625 ps = 187.5 ps.
        let s = SyncModel::default();
        let produced = Femtos::new(10_100_000);
        let ready = s.ready_time(produced, Femtos::from_ps(625), Femtos::from_ps(800));
        // Next consumer edge at 10.4 ns is outside the window -> usable.
        assert!(Femtos::new(10_400_000) >= ready);
        // An edge at 10.2 ns would have been inside the window -> unusable.
        assert!(Femtos::new(10_200_000) < ready);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn invalid_threshold_rejected() {
        let _ = SyncModel::new(1.0);
    }
}
