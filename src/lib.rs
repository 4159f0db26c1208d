//! `gals-mcd` — a reproduction of *Dynamically Trading Frequency for
//! Complexity in a GALS Microprocessor* (Dropsho, Semeraro, Albonesi,
//! Magklis, Scott — MICRO-37, 2004) as a Rust workspace.
//!
//! This facade crate re-exports the public API of the workspace members:
//!
//! * [`timing`] — CACTI/Palacharla-style frequency models (Figures 2–4).
//! * [`clock`] — jittered domain clocks, PLL relock, synchronization.
//! * [`isa`] / [`workloads`] — the synthetic dynamic-instruction substrate
//!   standing in for MediaBench / Olden / SPEC2000 (Tables 6–8).
//! * [`cache`] — the Accounting Cache and the Table 4 cost model.
//! * [`predictor`] — the hybrid gshare/local/meta predictor.
//! * [`control`] — the policy-pluggable adaptation subsystem (the §3
//!   controllers and their alternatives behind a trait boundary).
//! * [`core`] — the four-domain adaptive MCD pipeline and the fully
//!   synchronous baseline machine.
//! * [`explore`] — the §4 design-space sweeps with persistent caching.
//!
//! # Quickstart
//!
//! ```
//! use gals_mcd::prelude::*;
//!
//! let spec = suite::by_name("gcc").expect("gcc is in the suite");
//! let sync = Simulator::new(MachineConfig::best_synchronous())
//!     .run(&mut spec.stream(), 20_000);
//! let phase = Simulator::new(MachineConfig::phase_adaptive(McdConfig::smallest()))
//!     .run(&mut spec.stream(), 20_000);
//! println!(
//!     "gcc: phase-adaptive is {:+.1}% vs best synchronous",
//!     (sync.runtime_ns() / phase.runtime_ns() - 1.0) * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gals_cache as cache;
pub use gals_clock as clock;
pub use gals_common as common;
pub use gals_control as control;
pub use gals_core as core;
pub use gals_explore as explore;
pub use gals_isa as isa;
pub use gals_predictor as predictor;
pub use gals_timing as timing;
pub use gals_workloads as workloads;

/// The most commonly used items, for `use gals_mcd::prelude::*`.
pub mod prelude {
    pub use gals_common::{Femtos, Hertz};
    pub use gals_core::{
        ControlPolicy, Dl2Config, ICacheConfig, IqSize, MachineConfig, McdConfig, SimResult,
        Simulator, SyncConfig, SyncICacheOption, TimingModel,
    };
    pub use gals_explore::Explorer;
    pub use gals_isa::InstructionStream;
    pub use gals_workloads::{suite, BenchmarkSpec};
}
