//! Policy-pluggable adaptation control for the phase-adaptive GALS/MCD
//! machine — the paper's §3 on-line algorithms behind a trait boundary.
//!
//! The paper's contribution is a *specific* control law: per
//! 15K-instruction interval, reconstruct every cache configuration's
//! cost from the Accounting Cache and jump to the argmin (§3.1), and
//! per ILP tracking interval, follow the effective-ILP argmax damped by
//! a 3-interval stickiness streak (§3.2). This crate generalizes the
//! machinery so that law becomes one [`ControlPolicy`] among several:
//!
//! * [`DomainController`] — the policy boundary: one adaptive domain's
//!   interval statistics in ([`IntervalStats`]), a resize [`Decision`]
//!   out.
//! * [`AdaptationEngine`] — owns the four domain controllers, the §3.2
//!   [`IlpTracker`], PLL-relock gating, pending-resize bookkeeping, and
//!   a decision trace. The simulator feeds it statistics and executes
//!   the structural changes it approves.
//! * Policies: [`ControlPolicy::PaperArgmin`] (the default —
//!   golden-pinned against the pre-refactor hard-wired controllers),
//!   [`ControlPolicy::Hysteresis`] (tunable stickiness on every
//!   domain), [`ControlPolicy::PiFeedback`] (single-step
//!   proportional–integral regulation), and [`ControlPolicy::Static`]
//!   (no adaptation — the MCD-substrate baseline).
//!
//! # Example
//!
//! ```
//! use gals_control::{
//!     AdaptationEngine, CacheLatencies, ControlPolicy, EngineSetup,
//! };
//! use gals_timing::{IqSize, TimingModel};
//!
//! let timing = TimingModel::default();
//! let mut engine = AdaptationEngine::new(
//!     ControlPolicy::default(),
//!     &EngineSetup {
//!         timing: &timing,
//!         latencies: CacheLatencies::default(),
//!         interval_insts: 15_000,
//!         mem_ns: 94.0,
//!         l2_service_init_ns: 47.0,
//!         ic_idx: 0,
//!         dl2_idx: 0,
//!         iq_int: IqSize::Q16,
//!         iq_fp: IqSize::Q16,
//!     },
//! );
//! assert_eq!(engine.policy(), ControlPolicy::PaperArgmin);
//! assert!(engine.trace().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod argmin;
mod controller;
mod engine;
mod hysteresis;
mod ilp;
mod pi;
mod policy;
mod service;

pub use argmin::{ArgminCacheController, ArgminIqController, CacheLatencies};
pub use controller::{Decision, DomainController, IntervalStats};
pub use engine::{AdaptationEngine, ControlDomain, DecisionRecord, EngineSetup};
pub use hysteresis::Hysteresis;
pub use ilp::{IlpDecision, IlpTracker};
pub use pi::PiController;
pub use policy::{ControlPolicy, ParsePolicyError, StaticController};
pub use service::ServiceAvg;
