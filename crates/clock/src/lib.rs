//! Clock-domain substrate for the GALS/MCD simulator.
//!
//! The adaptive MCD processor has four independently clocked domains plus a
//! fixed-frequency external memory domain (Figure 1). This crate models:
//!
//! * [`DomainClock`] — a free-running clock with deterministic seeded
//!   cycle-to-cycle **jitter**, producing a strictly monotone sequence of
//!   rising edges on a femtosecond timeline.
//! * [`Pll`] / frequency changes — §2: "The dynamic frequency control
//!   circuit within each of these domains is a PLL clocking circuit …
//!   The lock time in our experiments is normally distributed with a mean
//!   time of 15 µs and a range of 10–20 µs. As in the XScale processor, we
//!   assume that a domain is able to continue operating through a frequency
//!   change."
//! * [`SyncModel`] — the Sjogren–Myers-style synchronization rule used by
//!   the MCD simulator: a cross-domain value "imposes a delay of one cycle
//!   in the consumer domain whenever the distance between the edges of the
//!   two clocks is within 30% of the period of the faster clock."
//!
//! # Example
//!
//! ```
//! use gals_clock::DomainClock;
//! use gals_common::{DomainId, Hertz, SplitMix64};
//!
//! let mut clk = DomainClock::new(
//!     DomainId::Integer,
//!     Hertz::from_ghz(1.52),
//!     0.02,
//!     SplitMix64::new(7),
//! );
//! let first = clk.tick();
//! let second = clk.tick();
//! assert!(second > first, "edges advance monotonically");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod domain;
mod fifo;
mod pll;
mod sync;

pub use domain::DomainClock;
pub use fifo::{FifoFull, SyncFifo};
pub use pll::Pll;
pub use sync::SyncModel;

pub use gals_common::{DomainId, Femtos, Hertz};
