//! Design-space exploration: the paper's offline sweeps.
//!
//! §4: the best-overall fully synchronous baseline is found by an
//! exhaustive sweep of 1,024 configurations (16 I-cache options × 4 D/L2 ×
//! 4 integer IQ × 4 FP IQ), and the Program-Adaptive results come from an
//! exhaustive per-application sweep of the 256 adaptive-MCD
//! configurations — about 300 CPU-months on the authors' cluster.
//!
//! This crate reproduces both sweeps at laptop scale: a job-driven
//! sweep engine (workers pull typed [`Job`]s from a priority-ordered,
//! deadline-aware [`JobScheduler`], so one slow run never idles the
//! other threads and heterogeneous work mixes freely in one queue),
//! with all measured runtimes recorded in a sharded result cache with
//! batched persistence so tables and figures can be regenerated
//! instantly.
//!
//! Environment knobs (all optional):
//!
//! * `GALS_MCD_SWEEP_WINDOW` — instructions per sweep run (default
//!   10,000).
//! * `GALS_MCD_FINAL_WINDOW` — instructions for the final Figure 6
//!   comparison runs (default 120,000).
//! * `GALS_MCD_CACHE` — cache file path (default
//!   `target/gals-sweep-cache.json`).
//! * `GALS_MCD_WAL_SYNC` — result-store WAL sync policy, `always` |
//!   `batch:N` | `none` (default `batch:64`; see [`wal`]).
//!
//! # Example
//!
//! ```no_run
//! use gals_explore::Explorer;
//! use gals_workloads::suite;
//!
//! let mut ex = Explorer::from_env()?;
//! let suite: Vec<_> = suite::all().into_iter().take(4).collect();
//! let rows = ex.figure6(&suite)?;
//! for row in &rows {
//!     println!("{}: program {:+.1}%  phase {:+.1}%",
//!              row.benchmark, row.program_improvement_pct(),
//!              row.phase_improvement_pct());
//! }
//! # Ok::<(), gals_explore::ExploreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
mod cache;
mod engine;
mod explorer;
pub mod json;
pub mod sched;
pub mod wal;

pub use ablation::AblationPoint;
pub use cache::{
    sealed_path_of, tmp_path_of, wal_path_of, CacheKey, CrashPoint, RecoveryReport, ResultCache,
    SegmentReport,
};
pub use engine::{MeasureItem, SweepEngine};
pub use explorer::{
    in_sync_winner_subset, ExploreError, Explorer, Fig6Row, PolicyOutcome, ProgramChoice,
    SkippedConfig, SyncSweepOutcome,
};
pub use sched::{Job, JobOutcome, JobScheduler, Priority};

pub use gals_core::{ControlPolicy, McdConfig, SyncConfig};
