//! The Accounting Cache (Dropsho et al. \[9\]) and its interval controller
//! support, as used by the adaptive MCD processor (§3.1).
//!
//! An Accounting Cache is a set-associative cache that is logically split
//! into an **A partition** (the first `a` ways in most-recently-used order)
//! and a **B partition** (the remaining ways). The A partition is accessed
//! first; on an A miss the B partition is probed and, on a hit there, the
//! block is swapped into A. Replacement is full LRU over all physical ways,
//! so **cache contents are independent of where the A/B boundary sits** —
//! only access *latencies* change. This is what makes the control algorithm
//! special: simple counts of hits per MRU position are sufficient to
//! reconstruct the exact number of A hits, B hits, and misses *for every
//! possible configuration*, from a single interval of execution, with no
//! exploration (§3.1).
//!
//! This crate provides:
//!
//! * [`AccountingCache`] — the cache model with full-MRU bookkeeping,
//! * [`AccountingStats`] — per-MRU-position hit counters and the
//!   reconstruction queries,
//! * [`CostTable`]/[`CostPoint`] — the access-cost model the controller
//!   minimizes (per-configuration cycle counts × per-configuration clock
//!   periods),
//! * [`hw_cost`] — the gate-count estimate of the control hardware
//!   (Table 4).
//!
//! # Example
//!
//! ```
//! use gals_cache::{AccessKind, AccountingCache, ServedBy};
//!
//! // 4 KB, 4-way, 64-byte lines, A = 1 way, B enabled (phase mode).
//! let mut c = AccountingCache::new(4 * 1024, 4, 64, 1, true)?;
//! let first = c.access(0x1000, AccessKind::Read);
//! assert_eq!(first.served, ServedBy::Miss);
//! let again = c.access(0x1000, AccessKind::Read);
//! assert_eq!(again.served, ServedBy::APartition);
//! # Ok::<(), gals_cache::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accounting;
mod cost;
pub mod hw_cost;

pub use accounting::{
    AccessKind, AccessResult, AccountingCache, AccountingStats, CacheConfigError, ServedBy,
    MAX_WAYS,
};
pub use cost::{CostPoint, CostTable};
