//! Property-based tests for the clock substrate.

use gals_clock::{DomainClock, SyncModel};
use gals_common::{DomainId, Femtos, Hertz, SplitMix64};
use proptest::prelude::*;

/// Ticks `c` one edge at a time until its next edge is at or past
/// `horizon`, returning the number of edges consumed.
fn tick_to(c: &mut DomainClock, horizon: Femtos) -> u64 {
    let mut n = 0;
    while c.peek_next_edge() < horizon {
        c.tick();
        n += 1;
    }
    n
}

fn assert_same_state(jumped: &DomainClock, ticked: &DomainClock) {
    assert_eq!(jumped.cycle(), ticked.cycle());
    assert_eq!(jumped.last_edge(), ticked.last_edge());
    assert_eq!(jumped.peek_next_edge(), ticked.peek_next_edge());
    assert_eq!(jumped.frequency(), ticked.frequency());
    assert_eq!(jumped.is_locking(), ticked.is_locking());
}

proptest! {
    /// Edges are strictly monotone for any frequency/jitter/seed combo,
    /// up to and including the maximum jitter fraction 0.4.
    #[test]
    fn edges_strictly_monotone(
        mhz in 80u64..2000,
        jitter_ppm in 0u64..400_001,
        seed in any::<u64>(),
    ) {
        let mut c = DomainClock::new(
            DomainId::FrontEnd,
            Hertz::from_mhz(mhz),
            jitter_ppm as f64 / 1e6,
            SplitMix64::new(seed),
        );
        let mut prev = Femtos::ZERO;
        for i in 0..2000 {
            let e = c.tick();
            prop_assert!(e > prev || i == 0 && e > Femtos::ZERO);
            prev = e;
        }
    }

    /// Cycle counting matches the number of ticks, and mean period tracks
    /// the nominal period to within the jitter bound.
    #[test]
    fn mean_period_tracks_nominal(
        mhz in 200u64..2000,
        jitter in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let f = Hertz::from_mhz(mhz);
        let mut c = DomainClock::new(DomainId::LoadStore, f, jitter, SplitMix64::new(seed));
        let n = 5000u64;
        let mut last = Femtos::ZERO;
        for _ in 0..n {
            last = c.tick();
        }
        prop_assert_eq!(c.cycle(), n);
        let mean_period = last.as_fs() as f64 / n as f64;
        let nominal = f.period().as_fs() as f64;
        // The grid anchors edges to ideal times, so the mean period error
        // is bounded by a single jitter amplitude spread over n cycles.
        prop_assert!((mean_period - nominal).abs() / nominal < 0.01);
    }

    /// The sync window never exceeds the faster period and scales with the
    /// threshold.
    #[test]
    fn sync_window_bounded(
        p1 in 500u64..10_000,
        p2 in 500u64..10_000,
        frac in 0.0f64..0.9,
    ) {
        let s = SyncModel::new(frac);
        let produced = Femtos::from_ns(1);
        let ready = s.ready_time(
            produced,
            Femtos::from_ps(p1),
            Femtos::from_ps(p2),
        );
        let window = ready - produced;
        let fast = Femtos::from_ps(p1.min(p2));
        prop_assert!(window <= fast);
        prop_assert!(ready >= produced);
    }

    /// Frequency changes always complete within the paper's 10-20 µs lock
    /// range, and the new frequency is in force afterwards.
    #[test]
    fn relock_bounded_and_applied(
        seed in any::<u64>(),
        from_mhz in 500u64..1800,
        to_mhz in 500u64..1800,
    ) {
        let mut c = DomainClock::new(
            DomainId::Integer,
            Hertz::from_mhz(from_mhz),
            0.02,
            SplitMix64::new(seed),
        );
        c.tick();
        let start = c.last_edge();
        let done = c.begin_frequency_change(Hertz::from_mhz(to_mhz));
        if from_mhz == to_mhz {
            prop_assert!(!c.is_locking());
        } else {
            let lock = done - start;
            prop_assert!(lock >= Femtos::from_us(10));
            prop_assert!(lock <= Femtos::from_us(20));
            while c.last_edge() < done {
                c.tick();
            }
            c.tick();
            prop_assert_eq!(c.frequency(), Hertz::from_mhz(to_mhz));
        }
    }

    /// `fast_forward_to` leaves a clock in exactly the state that ticking
    /// one edge at a time would, for any frequency, phase, seed and
    /// jitter in the whole allowed range `[0, 0.4]`, with jumps of every
    /// length interleaved with plain ticks, relocks begun and completed
    /// mid-span, and immediate frequency changes.
    #[test]
    fn fast_forward_matches_ticking(
        mhz in 100u64..2000,
        jitter_ppm in 0u64..400_001,
        phase_fs in any::<u64>(),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..5, any::<u64>()), 4..12),
    ) {
        let jitter = jitter_ppm as f64 / 1e6;
        let mut jumped = DomainClock::with_phase(
            DomainId::FloatingPoint,
            Hertz::from_mhz(mhz),
            jitter,
            Femtos::new(phase_fs),
            SplitMix64::new(seed),
        );
        let mut ticked = jumped.clone();
        for (kind, x) in ops {
            let from = ticked.peek_next_edge();
            let period = ticked.period();
            match kind {
                // A short jump: up to 64 periods, often mid-period.
                0 => {
                    let horizon = from + Femtos::new(x % (period.as_fs() * 64));
                    prop_assert_eq!(jumped.fast_forward_to(horizon), tick_to(&mut ticked, horizon));
                }
                // A long jump of up to 25 µs, long enough to cross a
                // 10-20 µs relock.
                1 => {
                    let horizon = from + Femtos::new(x % Femtos::from_us(25).as_fs());
                    prop_assert_eq!(jumped.fast_forward_to(horizon), tick_to(&mut ticked, horizon));
                }
                2 => {
                    for _ in 0..=x % 8 {
                        prop_assert_eq!(jumped.tick(), ticked.tick());
                    }
                }
                // Begin a relock, then jump to within a few periods of
                // its completion, on either side of it.
                3 => {
                    let target = Hertz::from_mhz(100 + x % 1900);
                    let done = jumped.begin_frequency_change(target);
                    prop_assert_eq!(ticked.begin_frequency_change(target), done);
                    let near = Femtos::new((x >> 32) % (period.as_fs() * 8));
                    let horizon = if x & (1 << 31) == 0 {
                        done.saturating_sub(near).max(from)
                    } else {
                        done + near
                    };
                    prop_assert_eq!(jumped.fast_forward_to(horizon), tick_to(&mut ticked, horizon));
                }
                _ => {
                    let target = Hertz::from_mhz(100 + x % 1900);
                    jumped.set_frequency_immediate(target);
                    ticked.set_frequency_immediate(target);
                }
            }
            assert_same_state(&jumped, &ticked);
        }
        for _ in 0..16 {
            prop_assert_eq!(jumped.tick(), ticked.tick());
        }
    }
}
