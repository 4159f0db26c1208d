//! Circuit-timing models for the adaptive MCD processor.
//!
//! The paper derives per-configuration clock frequencies from two sources:
//!
//! * **CACTI 3.1** for cache configurations (Figures 2 and 3, Tables 1–3),
//! * **Palacharla et al.** for issue-queue wakeup + selection delay
//!   (Figure 4).
//!
//! Neither tool exists in the Rust ecosystem, so this crate implements
//! analytical stand-ins with the same structure (array + way-select terms
//! for caches; wakeup + log₄ selection-tree terms for queues). The model
//! constants are calibrated so the *published anchor points* hold:
//!
//! * the adaptive I-cache loses ≈31% frequency going direct-mapped → 2-way
//!   (§2.2),
//! * the optimal 64 KB direct-mapped I-cache is ≈27% faster than the
//!   adaptive 64 KB (4-way) configuration (§4),
//! * optimal D/L2 configurations are ≈5% faster than the replicated
//!   adaptive ones (§2.1, Figure 2),
//! * the issue queue suffers a large frequency cliff from 16 entries
//!   (2 selection-tree levels) to 17+ entries (3 levels), then a shallow
//!   slope to 64 entries (§2.3, Figure 4).
//!
//! The downstream simulator consumes only the resulting [`Hertz`] values,
//! so this calibration is exactly the fidelity the paper's evaluation
//! depends on.
//!
//! # Example
//!
//! ```
//! use gals_timing::{TimingModel, ICacheConfig};
//!
//! let model = TimingModel::default();
//! let dm = model.icache_frequency(ICacheConfig::K16W1);
//! let two_way = model.icache_frequency(ICacheConfig::K32W2);
//! let drop = 1.0 - two_way.as_ghz() / dm.as_ghz();
//! assert!((0.28..0.34).contains(&drop), "adaptive DM->2W drop ≈ 31%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod model;
mod queue;

pub use cache::{Dl2Config, ICacheConfig, SyncICacheOption, Variant};
pub use model::{CachePoint, TimingModel};
pub use queue::IqSize;

pub use gals_common::Hertz;
