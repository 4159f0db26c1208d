//! Shared substrate types for the `gals-mcd` simulator suite.
//!
//! This crate provides the vocabulary used by every other crate in the
//! workspace:
//!
//! * [`Femtos`] — absolute simulated time and durations, in femtoseconds.
//!   Clock periods of multi-GHz domains require sub-picosecond resolution;
//!   one femtosecond (10⁻¹⁵ s) is fine enough that a 1.6 GHz period
//!   (625,000 fs) is represented exactly.
//! * [`Hertz`] — clock frequencies, with convenience constructors in MHz/GHz.
//! * [`DomainId`] — the four clock domains of the adaptive MCD processor of
//!   Dropsho et al. (MICRO 2004), plus the fixed-frequency external memory
//!   domain.
//! * [`SplitMix64`] — a tiny, fully deterministic PRNG used everywhere a
//!   seeded random choice is needed (workload generation, clock jitter, PLL
//!   lock times). Using our own generator keeps every experiment bit-for-bit
//!   reproducible across platforms and dependency upgrades.
//! * [`stats`] — small statistics helpers (means, geometric means, running
//!   summaries) used by the experiment harnesses.
//! * [`fxmap`] — a seedable FxHash-style hasher with map/set aliases for
//!   the per-instruction hot paths, where SipHash's DoS resistance buys
//!   nothing on trusted, internally generated keys.
//!
//! # Example
//!
//! ```
//! use gals_common::{Femtos, Hertz};
//!
//! let f = Hertz::from_ghz(1.6);
//! let period = f.period();
//! assert_eq!(period, Femtos::new(625_000));
//! assert_eq!(period * 2, Femtos::new(1_250_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod fxmap;
mod ids;
mod rng;
pub mod stats;
mod time;

pub use ids::DomainId;
pub use rng::SplitMix64;
pub use time::{Femtos, Hertz};
