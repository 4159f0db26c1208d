//! The adaptive GALS/MCD out-of-order processor model — the paper's
//! primary contribution.
//!
//! This crate assembles the substrates (clock domains, accounting caches,
//! hybrid branch predictor, timing models) into the four-domain
//! microarchitecture of Figure 1. The §3 on-line control algorithms live
//! behind the `gals-control` trait boundary: the simulator feeds an
//! [`AdaptationEngine`] interval statistics and executes the resizes it
//! approves, and [`MachineConfig::control`] selects which
//! [`ControlPolicy`] drives the engine (the paper's argmin controllers
//! by default).
//!
//! Three machine styles are supported, matching the paper's evaluation:
//!
//! | Mode | Clock(s) | Caches | Structures |
//! |------|----------|--------|------------|
//! | [`MachineKind::Synchronous`] | one global clock = slowest structure | A-partition only, fixed | fixed (Table 3 options) |
//! | [`MachineKind::ProgramAdaptive`] | four domain clocks, fixed per run | A-partition only, fixed | any [`McdConfig`] |
//! | [`MachineKind::PhaseAdaptive`] | four domain clocks, controller-driven | full Accounting Caches | controllers resize on line |
//!
//! # Example
//!
//! ```
//! use gals_core::{MachineConfig, McdConfig, Simulator};
//! use gals_workloads::suite;
//!
//! let spec = suite::by_name("gcc").unwrap();
//! let cfg = MachineConfig::phase_adaptive(McdConfig::smallest());
//! let result = Simulator::new(cfg).run(&mut spec.stream(), 30_000);
//! assert_eq!(result.committed, 30_000);
//! assert!(result.runtime.as_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod periods;
mod sim;
mod stats;

pub use config::{CoreParams, MachineConfig, MachineKind, McdConfig, SyncConfig};
pub use sim::Simulator;
pub use stats::{CacheSummary, ReconfigEvent, ReconfigKind, SimResult};

pub use gals_control::{
    AdaptationEngine, CacheLatencies, ControlDomain, ControlPolicy, Decision, DecisionRecord,
    DomainController, EngineSetup, Hysteresis, IlpDecision, IlpTracker, IntervalStats,
};
pub use gals_timing::{Dl2Config, ICacheConfig, IqSize, SyncICacheOption, TimingModel, Variant};
