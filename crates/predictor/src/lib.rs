//! Hybrid branch predictor (McFarling \[20\]) with the geometries of
//! Tables 2 and 3.
//!
//! The predictor combines:
//!
//! * a **gshare** component — a global branch history table (BHT) of
//!   `2^hg` two-bit counters indexed by the XOR of the branch PC with the
//!   `hg`-bit global history,
//! * a **local** component — a pattern history table (PHT) of per-branch
//!   `hl`-bit histories indexed by PC, each history indexing a local BHT
//!   of `2^hl` two-bit counters,
//! * a **metapredictor** of two-bit counters that selects which component
//!   to trust for each branch.
//!
//! In the adaptive MCD front end the predictor is resized *jointly* with
//! the instruction cache so that it never constrains the domain clock
//! (§2.2); [`PredictorGeometry::for_capacity_kb`] reproduces the
//! cache-size → geometry mapping shared by Tables 2 and 3.
//!
//! # Example
//!
//! ```
//! use gals_predictor::{HybridPredictor, PredictorGeometry};
//!
//! let mut p = HybridPredictor::new(PredictorGeometry::for_capacity_kb(16)?);
//! // A branch that is always taken is learned once the global history
//! // register has warmed up (hg bits of history shift in first).
//! for _ in 0..50 {
//!     p.update(0x400, true);
//! }
//! assert!(p.predict(0x400).taken);
//! # Ok::<(), gals_predictor::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod geometry;
mod hybrid;
mod target;

pub use geometry::{GeometryError, PredictorGeometry};
pub use hybrid::{Component, HybridPredictor, Prediction, PredictorStats};
pub use target::{Btb, ReturnAddressStack};
