//! Synthetic RISC ISA for the GALS/MCD simulator.
//!
//! The paper drives SimpleScalar with Alpha binaries; this workspace drives
//! the pipeline model with *dynamic instruction records* produced by the
//! workload substrate (`gals-workloads`). Each record carries everything a
//! timing-only simulator needs: operation class, architectural source and
//! destination registers, the effective memory address for loads/stores,
//! and the direction/target for control transfers.
//!
//! The register file mirrors the paper's machine: 32 logical integer and 32
//! logical floating-point registers (§3.2).
//!
//! # Example
//!
//! ```
//! use gals_isa::{ArchReg, DynInst, OpClass};
//!
//! let add = DynInst::alu(0x1000, OpClass::IntAlu, ArchReg::int(3),
//!                        [Some(ArchReg::int(1)), Some(ArchReg::int(2))]);
//! assert!(add.op.is_int());
//! assert_eq!(add.dst, Some(ArchReg::int(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inst;
mod reg;
mod stream;

pub use inst::{DynInst, OpClass};
pub use reg::{ArchReg, RegClass, FP_ARCH_REGS, INT_ARCH_REGS};
pub use stream::InstructionStream;
