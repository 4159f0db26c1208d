//! Synthetic workload substrate: the stand-in for the paper's 32
//! MediaBench / Olden / SPEC2000 applications (Tables 6–8).
//!
//! The paper evaluates on Alpha binaries under SimpleScalar. Neither the
//! binaries, their inputs, nor an Alpha front end are available here, so
//! this crate synthesizes *dynamic instruction streams* whose measurable
//! properties — the only things a timing simulator observes — are
//! controlled per benchmark:
//!
//! * **Instruction mix** ([`OpMix`]) — ALU/multiply/divide/FP/load/store
//!   proportions.
//! * **Inherent ILP** ([`IlpModel`]) — instructions extend round-robin
//!   dependence chains through the architectural registers; the number of
//!   concurrent chains (and an extra serialization fraction) sets the
//!   dependence-chain depth the ILP controller of §3.2 measures.
//! * **Code footprint and locality** ([`CodeModel`]) — a synthetic basic-
//!   block graph walked with region locality; footprint determines
//!   I-cache pressure.
//! * **Branch behaviour** ([`BranchModel`]) — each block's terminating
//!   branch has a stable personality: loop-like (pattern of period `k`) or
//!   data-dependent ("hard", random with a bias), setting predictor
//!   accuracy.
//! * **Data working set** ([`DataSegment`]) — weighted segments accessed
//!   with strided, uniform-random, or pointer-chasing patterns; segment
//!   sizes determine which cache configurations capture the reuse.
//! * **Phases** ([`PhaseSpec`]) — timed parameter overrides reproducing
//!   the phase behaviour that the Phase-Adaptive controllers exploit
//!   (e.g. apsi's periodic working-set swings, art's ILP cycle —
//!   Figure 7).
//!
//! Streams are deterministic: a [`BenchmarkSpec`] plus its seed always
//! yields the identical instruction sequence, which design-space sweeps
//! rely on.
//!
//! # Example
//!
//! ```
//! use gals_isa::InstructionStream;
//! use gals_workloads::suite;
//!
//! let spec = suite::by_name("gcc").expect("gcc is in the suite");
//! let mut stream = spec.stream();
//! let first = stream.next_inst();
//! let mut again = spec.stream();
//! assert_eq!(again.next_inst(), first, "streams are deterministic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod prepared;
mod spec;
mod stream;
pub mod suite;
mod trace;

pub use prepared::PreparedTrace;
pub use spec::{
    AccessPattern, BenchmarkSpec, BranchModel, CodeModel, DataSegment, IlpModel, OpMix,
    PhaseOverrides, PhaseSpec, SpecError, Suite,
};
pub use stream::SyntheticStream;
pub use trace::{record, SharedReplay, SharedTrace, TraceReplay};
