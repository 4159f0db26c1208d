//! `gals-serve`: a concurrent, cache-backed experiment service over the
//! GALS-MCD job scheduler.
//!
//! The library-shaped [`Explorer`](gals_explore::Explorer) answers one
//! caller at a time; this crate turns the same machinery into a
//! long-lived multi-tenant process. Clients speak a line-delimited
//! flat-JSON protocol ([`protocol`]) over plain TCP (`std::net`, no
//! external dependencies): every request expands into typed
//! [`Job`](gals_explore::Job)s — `{machine config, window, priority,
//! deadline, request tag}` — admitted into one shared
//! [`JobScheduler`](gals_explore::JobScheduler). A worker pool over
//! the shared [`SweepEngine`](gals_explore::SweepEngine) drains the
//! queue in priority/aging order, serves repeats straight from the
//! sharded result cache (and deduplicates concurrent identical jobs in
//! flight), honors per-request deadlines with typed `expired` frames,
//! and streams each job's `partial` frame back the moment it resolves.
//!
//! Each connection is served by one reader thread; workers write its
//! frames straight to the socket. Fixed bounds on live connections,
//! per-connection in-flight jobs, and write stalls keep one client from
//! costing the rest more than one stall (see [`Server`]).
//!
//! Determinism invariant: the server builds exactly the same
//! `(benchmark, mode, config key, window)` work items as the offline
//! sweeps, so a result served over the wire is bit-identical to the
//! same configuration run directly through the `Explorer` — regardless
//! of scheduling order — and the two share cache entries.
//!
//! # Example
//!
//! ```no_run
//! use gals_serve::{Client, Priority, Request, RequestKind, ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let mut req = Request::new(
//!     "r1",
//!     RequestKind::RunConfig {
//!         bench: "gzip".into(),
//!         mode: "phase".into(),
//!         cfg: None,
//!         policy: None,
//!         window: 2_000,
//!     },
//! );
//! req.priority = Priority::High;
//! req.deadline_ms = Some(5_000);
//! let responses = client.request(&req)?;
//! println!("{responses:?}");
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
pub mod protocol;
mod server;

pub use client::Client;
pub use gals_explore::Priority;
pub use protocol::{Request, RequestKind, Response};
pub use server::{ServeConfig, Server};
