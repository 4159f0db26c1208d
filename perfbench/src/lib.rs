//! `perfbench`: one repeatable benchmark for the GALS-MCD workspace.
//!
//! Three workloads drive the program through its public functions only
//! and time the calls into each layer from outside:
//!
//! * `sweep-sync` (module `sweep`), a synchronous design-space campaign
//!   through [`gals_explore::SweepEngine::run_jobs`];
//! * `mcd-long` (module `mcd`), long phase-adaptive and Static MCD runs
//!   through the same engine call;
//! * `serve-mixed` (module `serve`), a closed loop of clients against an
//!   in-process [`gals_serve::Server`] over a preloaded file-backed
//!   result cache.
//!
//! Every workload checks the program's outputs ([`checks`]) against
//! computations made apart from the path under test, and reports the
//! end-to-end metrics of an untraced run or, with tracing on, the
//! per-layer metrics ([`report`]) built from in-memory spans.

pub mod checks;
mod probe;
pub mod report;
mod spans;
mod stats;

mod mcd;
mod serve;
mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use gals_common::SplitMix64;

/// How large a workload runs: the full benchmark, or a tiny version the
/// crate's own tests use to drive every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as `BENCHMARK.json` runs it.
    Full,
    /// A few jobs and requests per round (tests).
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase; whole rounds run until it has passed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// When the process started (the origin of `setup_s`).
    pub started: Instant,
    /// Directory for the run's temporary files and its written trace.
    pub work_dir: PathBuf,
}

/// Worker threads and client connections every workload uses: the
/// 2-vCPU reference host's `nproc`, fixed so that runs on any host do
/// the same work in the same shape.
pub const WORKERS: usize = 2;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep-sync", "mcd-long", "serve-mixed"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, or an I/O failure setting up the run's
/// files (a failed output check is not an error: it is recorded in the
/// returned [`report::Outcome`]).
pub fn run_workload(name: &str, params: &Params) -> Result<report::Outcome, String> {
    match name {
        "sweep-sync" => Ok(sweep::run(params)),
        "mcd-long" => Ok(mcd::run(params)),
        "serve-mixed" => serve::run(params).map_err(|e| format!("serve-mixed: {e}")),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// `n` distinct seeded indices below `len`.
pub(crate) fn sample_indices(rng: &mut SplitMix64, len: usize, n: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    while picked.len() < n.min(len) {
        let i = rng.next_below(len as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Writes the traced run's spans under the work directory.
pub(crate) fn write_trace(p: &Params, workload: &str, tracer: &spans::Tracer) {
    let path = p
        .work_dir
        .join(format!("trace-{workload}-seed{}.jsonl", p.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write the trace to {}: {e}",
            path.display()
        ),
    }
}
