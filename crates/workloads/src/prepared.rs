//! A [`SharedTrace`] with its fetch-line column precomputed.
//!
//! A design-space sweep replays one benchmark recording under hundreds
//! of machine configurations, and every one of those simulations would
//! re-derive each instruction's I-cache line index (`pc / line_bytes`,
//! a 64-bit division in the fetch hot path). [`PreparedTrace`] performs
//! that derivation once, into one flat column that every simulator
//! replaying the recording indexes directly. It is also the input a
//! simulator can pause over and resume on
//! (`gals_core::Simulator::run_chunk`): the simulator copies it into its
//! own fetch block a block at a time, reading at the absolute stream
//! position of its next instruction, so a run paused over one recording
//! resumes over any longer recording of the same stream.
//!
//! The column depends on one machine parameter: the I-cache line size.
//! Line size is a `CoreParams` field in principle (64 bytes in every
//! preset), so the prepared trace records the value it was built with
//! and consumers must check [`PreparedTrace::line_bytes`] against their
//! machine configuration before using the column (the simulator asserts
//! it).
//!
//! Cloning is two `Arc` bumps; the column is built once and shared.

use std::sync::Arc;

use gals_isa::DynInst;

use crate::trace::SharedTrace;

/// A [`SharedTrace`] plus its precomputed fetch-line column: built once
/// per recording so no simulator replaying it divides `pc / line_bytes`
/// per instruction.
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    trace: SharedTrace,
    line_bytes: u64,
    /// `pc / line_bytes` — the I-cache line index fetch crosses on.
    fetch_line: Arc<[u64]>,
}

impl PreparedTrace {
    /// Prepares `trace` for machines whose I-cache line size is
    /// `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn new(trace: &SharedTrace, line_bytes: u64) -> Self {
        assert!(line_bytes > 0, "line_bytes must be positive");
        PreparedTrace {
            trace: trace.clone(),
            line_bytes,
            fetch_line: trace.insts().iter().map(|i| i.pc / line_bytes).collect(),
        }
    }

    /// The I-cache line size the fetch-line column was derived with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of prepared instructions.
    pub fn len(&self) -> usize {
        self.fetch_line.len()
    }

    /// True when the source recording was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Benchmark name of the source recording.
    pub fn name(&self) -> &str {
        self.trace.name()
    }

    /// The full dynamic instruction at index `i`.
    #[inline]
    pub fn inst(&self, i: usize) -> DynInst {
        self.trace.insts()[i]
    }

    /// The I-cache line index instruction `i` fetches from.
    #[inline]
    pub fn fetch_line(&self, i: usize) -> u64 {
        self.fetch_line[i]
    }
}
