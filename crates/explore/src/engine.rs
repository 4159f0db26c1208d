//! The reentrant job-driven sweep engine.
//!
//! [`SweepEngine`] is the measurement core shared by the batch-oriented
//! [`Explorer`](crate::Explorer) and the long-lived `gals-serve`
//! process: every method takes `&self`, so one engine (and its sharded
//! [`ResultCache`]) can be wrapped in an `Arc` and driven by many
//! threads concurrently. Work arrives as typed [`Job`]s pulled from a
//! [`JobScheduler`] — priority-ordered, deadline-aware, deduplicated
//! in flight — and each job's completion fires as soon as its value is
//! known, which is what lets a server stream per-job responses to
//! clients while the rest of the queue is still running.
//!
//! # Sweep-wide trace sharing
//!
//! A benchmark's instruction stream depends only on its spec (and the
//! seed inside it) — never on the machine configuration being measured
//! — yet a naive sweep regenerates the stream from RNG scratch for
//! every job. The engine therefore keeps an LRU-bounded **trace pool**:
//! the first job needing a benchmark materializes `window +
//! max_in_flight` instructions into an `Arc<[DynInst]>`
//! ([`gals_workloads::SharedTrace`]), and every subsequent job for that
//! benchmark — across `run_jobs` batches, `serve_jobs` workers, and
//! `gals-serve` connections sharing the engine — replays the shared
//! recording instead of regenerating it. Replay is bit-identical to the
//! live stream by the generator's determinism contract (asserted
//! instruction-for-instruction by the workloads property tests and
//! end-to-end by the determinism/pooling integration tests), and a
//! replay that would read past its recording panics rather than loop,
//! so a sizing bug can never silently diverge.
//!
//! # Window sharing
//!
//! A configuration's window only clamps commit, so the `w`-th commit of
//! any longer run of the same configuration happens at exactly the
//! runtime of a `w`-window run (the determinism suite pins this for
//! every machine style on both loops). [`SweepEngine::run_jobs`]
//! therefore registers every window of each `benchmark|mode|config_key`
//! identity in its batch before any worker starts. The first worker to
//! admit a job of an identity claims its key and reserves every other
//! registered window's key in the same scheduler step; later jobs of
//! those keys follow it. That worker runs the configuration once, to
//! the largest window, and resolves each shorter key as the commit count
//! crosses it — so a batch simulates each identity once, whatever the
//! worker count or timing. The batch's registrations are dropped when
//! it resolves.
//!
//! # Interval memo
//!
//! Sharing cannot reach across requests: a long-lived `gals-serve` sees
//! one configuration at one window now and at a longer one later. For
//! that traffic the engine keeps a small FIFO of paused simulators
//! ([`IntervalMemo`]); each run probes it once for the farthest usable
//! snapshot and may leave snapshots at fixed commit-count strides.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gals_common::env::parse_env_or;
use gals_common::fxmap::{FxHashMap, FxHashSet};
use gals_core::{ControlPolicy, MachineConfig, McdConfig, Simulator, SyncConfig};
use gals_workloads::{BenchmarkSpec, PreparedTrace, SharedTrace};

use crate::cache::{CacheKey, ResultCache};
use crate::sched::{Claim, Completion, Job, JobOutcome, JobScheduler};

/// One unit of sweep work: a benchmark run under a machine configuration
/// at some instruction window.
#[derive(Debug, Clone)]
pub struct MeasureItem {
    /// The workload to stream.
    pub spec: BenchmarkSpec,
    /// Cache namespace: `"sync"`, `"prog"`, or `"phase"`.
    pub mode: &'static str,
    /// Configuration key within the namespace (stable across runs).
    pub config_key: String,
    /// The machine to simulate.
    pub machine: MachineConfig,
}

impl MeasureItem {
    /// A fully synchronous run of `cfg`.
    ///
    /// These constructors are the *only* place the cache-key formats
    /// live: the offline sweeps and the `gals-serve` request expansion
    /// both build items through them, which is what keeps their cache
    /// namespaces shared and their results bit-identical.
    pub fn sync(spec: BenchmarkSpec, cfg: SyncConfig) -> Self {
        MeasureItem {
            spec,
            mode: "sync",
            config_key: cfg.key(),
            machine: MachineConfig::synchronous(cfg),
        }
    }

    /// A program-adaptive run fixed at `cfg`.
    pub fn program(spec: BenchmarkSpec, cfg: McdConfig) -> Self {
        MeasureItem {
            spec,
            mode: "prog",
            config_key: cfg.key(),
            machine: MachineConfig::program_adaptive(cfg),
        }
    }

    /// A phase-adaptive run from the base configuration under `policy`.
    pub fn phase(spec: BenchmarkSpec, policy: ControlPolicy) -> Self {
        MeasureItem {
            spec,
            mode: "phase",
            config_key: format!("ctrl-{}", policy.key()),
            machine: MachineConfig::phase_adaptive(McdConfig::smallest()).with_control(policy),
        }
    }

    /// An item with an explicit machine and cache namespace — the
    /// escape hatch for measurements outside the three standard spaces
    /// (the ablation studies perturb `CoreParams` directly). Callers
    /// own key uniqueness within `mode`; pick a `mode` distinct from
    /// `"sync"`/`"prog"`/`"phase"` so custom results never collide with
    /// the shared sweep namespaces.
    pub fn custom(
        spec: BenchmarkSpec,
        mode: &'static str,
        config_key: String,
        machine: MachineConfig,
    ) -> Self {
        MeasureItem {
            spec,
            mode,
            config_key,
            machine,
        }
    }

    /// The cache key for this item at `window` instructions.
    pub fn cache_key(&self, window: u64) -> CacheKey {
        CacheKey::new(self.spec.name(), self.mode, &self.config_key, window)
    }

    /// The window-independent identity window sharing and the interval
    /// memo key on: everything that determines the machine and its input
    /// except the window (mirrors the [`CacheKey`] component contract).
    fn memo_identity(&self) -> String {
        format!("{}|{}|{}", self.spec.name(), self.mode, self.config_key)
    }
}

/// How many freshly measured results accumulate before a worker weighs
/// compacting the cache file (see [`ResultCache::maybe_save_batched`];
/// every result is already in the log, so this bounds upkeep, not loss).
const SAVE_BATCH: usize = 256;

/// Default bound on the total instructions the trace pool may hold
/// (~40 bytes each ⇒ roughly 80 MB); override with
/// `GALS_MCD_TRACE_POOL_INSTS` (`0` disables pooling entirely).
const DEFAULT_POOL_INSTS: u64 = 2_000_000;

/// One pooled recording: the spec it was captured from (the identity
/// key — full structural equality, so distinct specs that happen to
/// share a name can never alias) and the prepared recording.
#[derive(Debug)]
struct PoolEntry {
    spec: BenchmarkSpec,
    prepared: PreparedTrace,
}

/// A capture in progress: the spec being recorded, how many
/// instructions, and for which I-cache line size.
#[derive(Debug)]
struct Capture {
    spec: BenchmarkSpec,
    need: u64,
    line_bytes: u64,
}

/// What the pool's mutex guards: the recordings, the captures in
/// flight, and how many requests are waiting for one.
#[derive(Debug, Default)]
struct PoolState {
    entries: Vec<PoolEntry>,
    capturing: Vec<Capture>,
    waiting: usize,
}

/// The LRU-bounded pool of shared benchmark recordings.
///
/// The entry list is tiny (a handful to a few dozen benchmarks), so a
/// linear scan under one mutex beats any clever indexing: the critical
/// section is a name-first struct compare per entry, and the expensive
/// part — capturing a missing trace — happens *outside* the lock.
/// Entries are kept in recency order (most recently used last); when
/// the total recorded instructions exceed the bound, the
/// least-recently-used end is evicted.
///
/// Captures are single-flight: a request that misses while a capture
/// that will cover it is in flight waits for that capture instead of
/// recording the same stream again, so each benchmark is captured once
/// however many workers ask for it at the same moment.
#[derive(Debug)]
struct TracePool {
    state: Mutex<PoolState>,
    /// Signalled whenever a capture ends, successfully or not.
    captured: Condvar,
    capacity_insts: u64,
    hits: AtomicU64,
    builds: AtomicU64,
}

/// Clears a capture's in-flight mark and wakes its waiters when
/// dropped, including when the capture panics: the waiters then find
/// no capture in flight and record the stream themselves.
struct CaptureMark<'a> {
    pool: &'a TracePool,
    spec: &'a BenchmarkSpec,
    need: u64,
    line_bytes: u64,
}

impl Drop for CaptureMark<'_> {
    fn drop(&mut self) {
        let mut state = self.pool.lock();
        if let Some(pos) = state.capturing.iter().position(|c| {
            c.need == self.need && c.line_bytes == self.line_bytes && &c.spec == self.spec
        }) {
            state.capturing.swap_remove(pos);
        }
        drop(state);
        self.pool.captured.notify_all();
    }
}

impl TracePool {
    fn new(capacity_insts: u64) -> Self {
        TracePool {
            state: Mutex::new(PoolState::default()),
            captured: Condvar::new(),
            capacity_insts,
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // A panic while holding the lock can only come from an
        // allocation failure mid-push; the lists themselves are never
        // left half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a recording of at least `need` instructions of `spec`,
    /// prepared for machines with `line_bytes` I-cache lines, capturing
    /// (or extending) it on a miss, or `None` when pooling is disabled
    /// or the request alone would overflow the pool bound.
    fn get(&self, spec: &BenchmarkSpec, need: u64, line_bytes: u64) -> Option<PreparedTrace> {
        if need == 0 || need > self.capacity_insts {
            return None;
        }
        let covers = |p: &PreparedTrace| p.len() as u64 >= need && p.line_bytes() == line_bytes;
        // Moves a covering entry to the MRU end and shares it.
        let refresh = |entries: &mut Vec<PoolEntry>| -> Option<PreparedTrace> {
            let pos = entries.iter().position(|e| &e.spec == spec)?;
            if !covers(&entries[pos].prepared) {
                entries.remove(pos);
                return None;
            }
            let e = entries.remove(pos);
            let prepared = e.prepared.clone();
            entries.push(e);
            Some(prepared)
        };
        let in_flight =
            |c: &Capture| c.need >= need && c.line_bytes == line_bytes && &c.spec == spec;
        let mut state = self.lock();
        loop {
            if let Some(hit) = refresh(&mut state.entries) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(hit);
            }
            if !state.capturing.iter().any(in_flight) {
                break;
            }
            state.waiting += 1;
            state = self
                .captured
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        // Miss (or too-short recording) with no covering capture in
        // flight: mark this one and capture outside the lock so other
        // benchmarks' workers aren't stalled behind stream generation.
        state.capturing.push(Capture {
            spec: spec.clone(),
            need,
            line_bytes,
        });
        drop(state);
        let mark = CaptureMark {
            pool: self,
            spec,
            need,
            line_bytes,
        };
        let prepared =
            PreparedTrace::new(&SharedTrace::capture(&mut spec.stream(), need), line_bytes);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let entries = &mut state.entries;
        // A longer capture of the same spec that finished meanwhile
        // covers this request too; keep the longer recording.
        if let Some(existing) = refresh(entries) {
            drop(state);
            drop(mark);
            return Some(existing);
        }
        entries.push(PoolEntry {
            spec: spec.clone(),
            prepared: prepared.clone(),
        });
        // Evict least-recently-used recordings until under the bound
        // (the just-inserted entry, at the MRU end, always survives).
        let mut total: u64 = entries.iter().map(|e| e.prepared.len() as u64).sum();
        while total > self.capacity_insts && entries.len() > 1 {
            total -= entries.remove(0).prepared.len() as u64;
        }
        drop(state);
        drop(mark);
        Some(prepared)
    }
}

/// Default bound on retained interval-memo snapshots (cloned paused
/// simulators, roughly 50–300 KB each); override with
/// `GALS_MCD_INTERVAL_MEMO_SNAPS` (`0` disables window sharing and the
/// memo).
const DEFAULT_MEMO_SNAPS: usize = 64;

/// Commit-count stride of the points where a run pauses and may leave
/// an interval-memo snapshot.
const SNAP_STRIDE: u64 = 4_096;

/// Identities whose reach the memo remembers before it starts over
/// (reach only steers which snapshots are worth keeping).
const REACH_LIMIT: usize = 4_096;

/// Window sharing's registry and the cross-request interval memo.
///
/// **Registry.** [`SweepEngine::run_jobs`] registers each missing job's
/// window under its identity before its workers start, and drops the
/// registrations when the batch resolves; admission reads the other
/// windows registered for a job's identity ([`IntervalMemo::siblings`]).
///
/// **Snapshots.** A run pauses at every multiple of [`SNAP_STRIDE`]
/// commits and offers its paused machine. Because the window only
/// clamps commit, a machine paused at commit count `c` below its own
/// window is exactly where a run of the same identity with any window
/// above `c` would be, so a later run splices the farthest such
/// snapshot instead of re-simulating the prefix. A snapshot is kept
/// only when an earlier run of the identity reached past it (`reach`):
/// an identity run once — every configuration of a one-shot sweep —
/// costs no clones. The benchmark spec is kept beside the snapshot and
/// compared in full on a probe, so identities that collide across
/// different specs never alias.
#[derive(Debug)]
struct IntervalMemo {
    inner: Mutex<MemoInner>,
    /// Maximum retained snapshots (FIFO eviction); `0` disables window
    /// sharing and snapshots alike.
    capacity: usize,
    hits: AtomicU64,
    stores: AtomicU64,
}

#[derive(Debug, Default)]
struct MemoInner {
    /// Windows registered per identity by `run_jobs` batches in
    /// progress, one entry per registered job.
    registered: FxHashMap<String, Vec<u64>>,
    /// The largest window a finished run of each identity reached.
    reach: FxHashMap<String, u64>,
    /// Retained snapshots, oldest first.
    snaps: VecDeque<Snapshot>,
}

/// A paused machine and what it may be spliced into.
#[derive(Debug)]
struct Snapshot {
    identity: String,
    spec: BenchmarkSpec,
    sim: Arc<Simulator>,
}

impl IntervalMemo {
    fn new(capacity: usize) -> Self {
        IntervalMemo {
            inner: Mutex::new(MemoInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a batch's `(identity, window)` pairs.
    fn register(&self, regs: &[(String, u64)]) {
        if self.capacity == 0 || regs.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for (identity, window) in regs {
            inner
                .registered
                .entry(identity.clone())
                .or_default()
                .push(*window);
        }
    }

    /// Drops registrations made by [`IntervalMemo::register`].
    fn unregister(&self, regs: &[(String, u64)]) {
        if self.capacity == 0 || regs.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for (identity, window) in regs {
            if let Some(windows) = inner.registered.get_mut(identity) {
                if let Some(at) = windows.iter().position(|w| w == window) {
                    windows.swap_remove(at);
                }
                if windows.is_empty() {
                    inner.registered.remove(identity);
                }
            }
        }
    }

    /// The distinct windows other than `window` registered for
    /// `identity`.
    fn siblings(&self, identity: &str, window: u64) -> Vec<u64> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let mut windows: Vec<u64> = self
            .lock()
            .registered
            .get(identity)
            .map(|ws| ws.iter().copied().filter(|&w| w != window).collect())
            .unwrap_or_default();
        windows.sort_unstable();
        windows.dedup();
        windows
    }

    /// A deep copy of the farthest retained snapshot of `identity` over
    /// `spec` that a run whose smallest window is `below` can splice.
    fn probe(&self, identity: &str, spec: &BenchmarkSpec, below: u64) -> Option<Simulator> {
        if self.capacity == 0 {
            return None;
        }
        let shared = {
            let inner = self.lock();
            inner
                .snaps
                .iter()
                .filter(|s| s.identity == identity && s.sim.committed() < below && s.spec == *spec)
                .max_by_key(|s| s.sim.committed())
                .map(|s| Arc::clone(&s.sim))?
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        // The deep copy happens outside the lock; only the Arc bump is
        // inside the critical section.
        Some((*shared).clone())
    }

    /// Offers a machine paused below its run's last window. It is kept
    /// when an earlier run of `identity` reached past its commit count
    /// and no snapshot at that count is held; the deep clone happens
    /// outside the lock, and only for snapshots that pass.
    fn store(&self, identity: &str, spec: &BenchmarkSpec, sim: &Simulator) {
        if self.capacity == 0 {
            return;
        }
        let committed = sim.committed();
        let wanted = |inner: &MemoInner| {
            inner.reach.get(identity).is_some_and(|&r| r > committed)
                && !inner
                    .snaps
                    .iter()
                    .any(|s| s.identity == identity && s.sim.committed() == committed)
        };
        if !wanted(&self.lock()) {
            return;
        }
        let sim = Arc::new(sim.clone());
        let mut inner = self.lock();
        if !wanted(&inner) {
            return;
        }
        inner.snaps.push_back(Snapshot {
            identity: identity.to_string(),
            spec: spec.clone(),
            sim,
        });
        if inner.snaps.len() > self.capacity {
            inner.snaps.pop_front();
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a run of `identity` reached `window`.
    fn reached(&self, identity: &str, window: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if let Some(reach) = inner.reach.get_mut(identity) {
            *reach = (*reach).max(window);
            return;
        }
        if inner.reach.len() >= REACH_LIMIT {
            inner.reach.clear();
        }
        inner.reach.insert(identity.to_string(), window);
    }
}

/// An admitted configuration: the keys its worker claimed and must
/// resolve.
struct Admitted<'env> {
    /// What to simulate.
    item: MeasureItem,
    /// The claimed windows, ascending.
    windows: Vec<u64>,
    /// The job that claimed, unless its own key settled at admission
    /// while reserved siblings still need the run.
    own: Option<(Job, Completion<'env>)>,
}

/// The work-stealing measurement engine over a sharded result cache.
///
/// All state is interior-mutable behind `&self`; see the `engine.rs`
/// module docs for the sharing story.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    reference_loop: bool,
    cache: ResultCache,
    /// Shared benchmark recordings (see "Sweep-wide trace sharing" in
    /// the [module docs](self)).
    traces: TracePool,
    /// Window-sharing registry and cross-request snapshots (see
    /// [`IntervalMemo`]).
    memo: IntervalMemo,
    /// Keys measured by simulation (cache misses), for observability.
    simulated: AtomicU64,
    /// Keys whose simulation yielded a runtime.
    measured: AtomicU64,
    /// Jobs answered with a runtime, fresh or cached.
    answered: AtomicU64,
    /// Cache keys whose simulation panicked. Panics are model bugs and
    /// deterministic, so re-running the key would just burn a worker to
    /// reach the same panic — later jobs for these keys resolve
    /// [`JobOutcome::Panicked`] immediately. (The result cache can't
    /// hold this: it persists finite runtimes only.)
    panicked: std::sync::Mutex<FxHashSet<String>>,
}

impl SweepEngine {
    /// Builds an engine over `cache`, sized to the available parallelism,
    /// with the trace pool at its default (env-overridable) bound.
    pub fn new(cache: ResultCache) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // A malformed override warns loudly and falls back (see
        // `gals_common::env`); silently ignoring an operator's tuning
        // knob was a bug.
        let pool_insts = parse_env_or("GALS_MCD_TRACE_POOL_INSTS", DEFAULT_POOL_INSTS);
        let memo_snaps = parse_env_or("GALS_MCD_INTERVAL_MEMO_SNAPS", DEFAULT_MEMO_SNAPS);
        SweepEngine {
            threads,
            reference_loop: false,
            cache,
            traces: TracePool::new(pool_insts),
            memo: IntervalMemo::new(memo_snaps),
            simulated: AtomicU64::new(0),
            measured: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            panicked: std::sync::Mutex::new(FxHashSet::default()),
        }
    }

    /// Caps the worker thread count (primarily for single-thread baseline
    /// measurements; defaults to the available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Makes every measurement use the simulator's straightforward
    /// reference loop instead of the event-driven fast path (results are
    /// identical; only wall clock differs).
    #[must_use]
    pub fn with_reference_simulator(mut self) -> Self {
        self.reference_loop = true;
        self
    }

    /// Disables the shared trace pool: every job regenerates its
    /// instruction stream from RNG scratch, and with no recording to
    /// pause over, each window runs on its own. Results are
    /// bit-identical either way (the pooling integration tests assert
    /// it); this exists for the throughput reporter's per-job-stream
    /// baseline and for bounding memory on hosts where even one
    /// window's trace is too large to keep.
    #[must_use]
    pub fn without_trace_pool(mut self) -> Self {
        self.traces = TracePool::new(0);
        self
    }

    /// Caps the trace pool at `insts` total recorded instructions
    /// (`0` disables pooling; the default is 2M, ≈80 MB).
    #[must_use]
    pub fn with_trace_pool_insts(mut self, insts: u64) -> Self {
        self.traces = TracePool::new(insts);
        self
    }

    /// Caps the interval memo at `snaps` retained snapshots (the default
    /// is 64, env-overridable via `GALS_MCD_INTERVAL_MEMO_SNAPS`). `0`
    /// disables window sharing and the memo: every key then simulates
    /// on its own. Neither affects results — a shared window or a
    /// spliced snapshot is bit-identical to running the key alone (the
    /// window-sharing integration tests assert it).
    #[must_use]
    pub fn with_interval_memo_snaps(mut self, snaps: usize) -> Self {
        self.memo = IntervalMemo::new(snaps);
        self
    }

    /// The worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Keys measured by simulation since construction (excludes cache
    /// hits; a shared run counts every window it answers).
    pub fn simulated_count(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Jobs answered without a simulation of their own since
    /// construction: every job answered with a runtime, less one per
    /// key measured. A duplicate answered by the run already in flight
    /// for its key counts the same as one that finds the result cached,
    /// so the count does not depend on timing — with no expired or
    /// panicked jobs it is jobs − [`SweepEngine::simulated_count`].
    pub fn cache_hit_count(&self) -> u64 {
        let measured = self.measured.load(Ordering::Relaxed);
        self.answered
            .load(Ordering::Relaxed)
            .saturating_sub(measured)
    }

    /// Recording requests the trace pool answered from an existing
    /// capture instead of regenerating the benchmark's stream.
    pub fn trace_pool_hits(&self) -> u64 {
        self.traces.hits.load(Ordering::Relaxed)
    }

    /// Stream captures performed by the trace pool (distinct benchmarks
    /// materialized, plus any extensions for longer windows).
    pub fn trace_pool_builds(&self) -> u64 {
        self.traces.builds.load(Ordering::Relaxed)
    }

    /// Keys answered without simulating their own prefix: every window
    /// a shared run answers beyond its first, plus every run that
    /// spliced a memoized snapshot.
    pub fn interval_memo_hits(&self) -> u64 {
        self.memo.hits.load(Ordering::Relaxed)
    }

    /// Snapshots retained by the interval memo.
    pub fn interval_memo_stores(&self) -> u64 {
        self.memo.stores.load(Ordering::Relaxed)
    }

    /// Parallel map over `work` at one window and normal priority (the
    /// homogeneous-batch convenience over [`SweepEngine::run_jobs`]).
    /// Returns runtimes (ns) in work order; [`f64::NAN`] marks an item
    /// whose simulation panicked (callers skip-and-report those instead
    /// of losing the batch).
    pub fn measure(&self, work: &[MeasureItem], window: u64) -> Vec<f64> {
        self.measure_with(work, window, |_, _| {})
    }

    /// [`SweepEngine::measure`] taking ownership of the items — sweep
    /// builders that construct their work list fresh use this to skip a
    /// deep clone per item (a `MeasureItem` carries the benchmark spec
    /// and machine config by value).
    pub fn measure_owned(&self, work: Vec<MeasureItem>, window: u64) -> Vec<f64> {
        self.measure_owned_with(work, window, |_, _| {})
    }

    /// [`SweepEngine::measure`] with a streaming callback: `on_result(i,
    /// ns)` fires exactly once per item, from whichever thread resolved
    /// it, as soon as its value is known — cache hits immediately at
    /// pop, fresh measurements as workers finish them, intra-batch
    /// duplicates (in-flight followers) when their claimer completes.
    pub fn measure_with(
        &self,
        work: &[MeasureItem],
        window: u64,
        on_result: impl Fn(usize, f64) + Sync,
    ) -> Vec<f64> {
        self.measure_owned_with(work.to_vec(), window, on_result)
    }

    /// The one batch-to-jobs adapter all `measure*` flavors funnel
    /// through.
    fn measure_owned_with(
        &self,
        work: Vec<MeasureItem>,
        window: u64,
        on_result: impl Fn(usize, f64) + Sync,
    ) -> Vec<f64> {
        let jobs = work
            .into_iter()
            .map(|item| Job::new(item, window))
            .collect();
        self.run_jobs(jobs, |i, outcome| {
            on_result(i, outcome.runtime_ns().unwrap_or(f64::NAN));
        })
        .into_iter()
        .map(|outcome| outcome.runtime_ns().unwrap_or(f64::NAN))
        .collect()
    }

    /// Runs a heterogeneous job batch to completion and returns the
    /// outcomes in submission order. Jobs may mix windows, machine
    /// styles, priorities, and deadlines freely: workers pull them from
    /// a private [`JobScheduler`] in priority/aging order, duplicates
    /// are simulated once (in-flight dedupe plus the shared cache), the
    /// windows of one configuration share one run (see "Window sharing"
    /// in the `engine.rs` module docs), and `on_outcome(i, &outcome)`
    /// streams each job's resolution as it happens.
    pub fn run_jobs(
        &self,
        jobs: Vec<Job>,
        on_outcome: impl Fn(usize, &JobOutcome) + Sync,
    ) -> Vec<JobOutcome> {
        let n = jobs.len();
        // Declared before the scheduler so the completion borrows it
        // holds stay valid for the scheduler's whole lifetime.
        let slots: Vec<std::sync::Mutex<Option<JobOutcome>>> =
            (0..n).map(|_| std::sync::Mutex::new(None)).collect();
        let sched = JobScheduler::new();
        let mut registered = Vec::new();
        {
            let slots = &slots;
            let on_outcome = &on_outcome;
            let mut batch = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                // Cache hits resolve inline — a warm-cache batch (table
                // regeneration) fills every slot right here and never
                // spawns a worker thread.
                if let Some(ns) = self.cache.get(&job.cache_key()) {
                    self.answered.fetch_add(1, Ordering::Relaxed);
                    let outcome = JobOutcome::Completed {
                        runtime_ns: ns,
                        cached: true,
                    };
                    on_outcome(i, &outcome);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                    continue;
                }
                registered.push((job.item.memo_identity(), job.window));
                let complete = Box::new(move |_job: Job, outcome: JobOutcome| {
                    on_outcome(i, &outcome);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                }) as crate::sched::Completion<'_>;
                batch.push((job, complete));
            }
            // Every window of the batch is registered before any worker
            // starts, so the first job of a configuration to claim
            // reserves all of them, whatever the timing.
            self.memo.register(&registered);
            if !batch.is_empty() {
                assert!(sched.submit_batch(batch), "fresh scheduler is open");
            }
        }
        sched.close();
        if !registered.is_empty() {
            let threads = self.threads.min(registered.len());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| self.serve_jobs(&sched));
                }
            });
        }
        self.memo.unregister(&registered);
        // Every completion has fired; release the scheduler's borrows
        // before consuming the slot buffer.
        drop(sched);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("a closed scheduler drains every job")
            })
            .collect()
    }

    /// A worker loop over a shared scheduler: pops jobs until the
    /// scheduler is closed and drained. This is the body both of
    /// [`SweepEngine::run_jobs`]'s scoped batch workers and of the
    /// long-lived `gals-serve` worker threads.
    ///
    /// Per popped job, in order:
    ///
    /// 1. **Cancelled** — a job whose requester is gone completes as
    ///    [`JobOutcome::Expired`]: even a cached answer would go to
    ///    nobody.
    /// 2. **Settled** — a cached runtime completes immediately (even
    ///    past the deadline: it costs nothing), as does a key already
    ///    known to panic.
    /// 3. **Deadline** — an expired job completes as
    ///    [`JobOutcome::Expired`] without simulating.
    /// 4. **Claim** — the job claims its cache key, reserving the other
    ///    registered windows of its configuration, or attaches as a
    ///    follower of the worker already measuring that key.
    /// 5. **Run** — the claimer simulates once, to its largest claimed
    ///    window; as the commit count crosses each claimed window it
    ///    records the cache (with batched persistence) and fires that
    ///    key's completions.
    pub fn serve_jobs<'env>(&self, sched: &JobScheduler<'env>) {
        while let Some((job, complete)) = sched.pop() {
            if let Some(admitted) = self.admit(job, complete, sched) {
                self.run_one(admitted, sched);
            }
        }
    }

    /// Admission steps 1–4 of [`SweepEngine::serve_jobs`] plus the
    /// post-claim re-probe, for one popped job. Returns the claimed
    /// windows still to simulate; `None` when nothing is left to run
    /// (settled, expired, or attached as an in-flight follower).
    fn admit<'env>(
        &self,
        job: Job,
        complete: Completion<'env>,
        sched: &JobScheduler<'env>,
    ) -> Option<Admitted<'env>> {
        if job
            .cancelled
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            complete(job, JobOutcome::Expired);
            return None;
        }
        let key = job.cache_key();
        if let Some(outcome) = self.settled(&key) {
            if outcome.runtime_ns().is_some() {
                self.answered.fetch_add(1, Ordering::Relaxed);
            }
            complete(job, outcome);
            return None;
        }
        if job.expired_at(Instant::now()) {
            complete(job, JobOutcome::Expired);
            return None;
        }
        let mut siblings: Vec<(u64, CacheKey)> = self
            .memo
            .siblings(&job.item.memo_identity(), job.window)
            .into_iter()
            .map(|w| (w, job.item.cache_key(w)))
            .collect();
        let keys = siblings.iter().map(|(_, k)| k.clone()).collect();
        let Claim::Run(job, complete, reserved) = sched.claim(key.as_str(), keys, job, complete)
        else {
            // A follower: the claiming worker fires its completion.
            return None;
        };
        siblings.retain(|(_, k)| reserved.contains(k));
        // Re-probe every claimed key now that the claims are ours: a
        // previous claimer may have finished one (populating the cache
        // or the panicked set) between our pop-time probes and the
        // claim — without this, that window re-simulates the key and
        // breaks the "simulated exactly once" accounting.
        let item = job.item.clone();
        let mut windows = Vec::with_capacity(siblings.len() + 1);
        let mut own = None;
        match self.settled(&key) {
            Some(outcome) => self.resolve(&key, outcome, Some((job, complete)), sched),
            None => {
                windows.push(job.window);
                own = Some((job, complete));
            }
        }
        for (w, k) in siblings {
            match self.settled(&k) {
                Some(outcome) => self.resolve(&k, outcome, None, sched),
                None => windows.push(w),
            }
        }
        if windows.is_empty() {
            return None;
        }
        windows.sort_unstable();
        Some(Admitted { item, windows, own })
    }

    /// The outcome an earlier run already settled for `key`: its cached
    /// runtime, or a recorded panic.
    fn settled(&self, key: &CacheKey) -> Option<JobOutcome> {
        if let Some(ns) = self.cache.get(key) {
            return Some(JobOutcome::Completed {
                runtime_ns: ns,
                cached: true,
            });
        }
        self.panicked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(key.as_str())
            .then_some(JobOutcome::Panicked)
    }

    /// Releases this worker's claim on `key` and fires `own` (the job
    /// that claimed it, if it is still waiting) and every follower with
    /// `outcome`.
    fn resolve<'env>(
        &self,
        key: &CacheKey,
        outcome: JobOutcome,
        own: Option<(Job, Completion<'env>)>,
        sched: &JobScheduler<'env>,
    ) {
        let followers = sched.release(key.as_str());
        if outcome.runtime_ns().is_some() {
            let n = u64::from(own.is_some()) + followers.len() as u64;
            self.answered.fetch_add(n, Ordering::Relaxed);
        }
        if let Some((job, complete)) = own {
            complete(job, outcome);
        }
        for (fjob, fcomplete) in followers {
            fcomplete(fjob, outcome);
        }
    }

    /// Records a freshly simulated `ns` (NaN = panicked) for a claimed
    /// key and resolves it, then does the store's upkeep — after the
    /// answer, so no waiting job pays for it.
    fn finalize<'env>(
        &self,
        key: &CacheKey,
        ns: f64,
        own: Option<(Job, Completion<'env>)>,
        sched: &JobScheduler<'env>,
    ) {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let outcome = if ns.is_finite() {
            self.measured.fetch_add(1, Ordering::Relaxed);
            self.cache.put(key.clone(), ns);
            JobOutcome::Completed {
                runtime_ns: ns,
                cached: false,
            }
        } else {
            self.panicked
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(key.as_str().to_string());
            JobOutcome::Panicked
        };
        self.resolve(key, outcome, own, sched);
        self.cache.maybe_save_batched(SAVE_BATCH);
    }

    /// Step 5 of [`SweepEngine::serve_jobs`]: simulates an admitted
    /// configuration once, to its largest claimed window, and finalizes
    /// each claimed key when the commit count crosses its window (the
    /// runtime so far is then exactly that window's runtime). A panic —
    /// a model bug tripped by this configuration, e.g. the deadlock
    /// detector — resolves every key not yet crossed as panicked,
    /// exactly as running each alone would, and the rest of the batch
    /// survives.
    fn run_one<'env>(&self, admitted: Admitted<'env>, sched: &JobScheduler<'env>) {
        let Admitted {
            item,
            windows,
            mut own,
        } = admitted;
        let mut answer = |window: u64, ns: f64| {
            let own = own.take_if(|(job, _)| job.window == window);
            self.finalize(&item.cache_key(window), ns, own, sched);
        };
        let machine = &item.machine;
        let last = *windows.last().expect("an admitted run claims a window");
        // A run consumes at most its window of committed instructions
        // plus the in-flight bound of fetched-but-uncommitted ones, so a
        // recording of that length fully substitutes for the live
        // stream (the prepared trace asserts this by refusing to read
        // past its end).
        let need = last + machine.params.max_in_flight() as u64;
        let Some(prep) = self.traces.get(&item.spec, need, machine.params.line_bytes) else {
            // No recording to pause over: each window runs alone on a
            // live stream.
            for &w in &windows {
                let ns = catch_unwind(AssertUnwindSafe(|| {
                    self.simulator(machine)
                        .run(&mut item.spec.stream(), w)
                        .runtime_ns()
                }));
                answer(w, ns.unwrap_or(f64::NAN));
            }
            return;
        };
        let identity = item.memo_identity();
        let sim = match self.memo.probe(&identity, &item.spec, windows[0]) {
            Some(spliced) => Ok(spliced),
            None => catch_unwind(AssertUnwindSafe(|| self.simulator(machine))),
        };
        let Ok(mut sim) = sim else {
            for &w in &windows {
                answer(w, f64::NAN);
            }
            return;
        };
        let mut pending = windows.iter().copied().peekable();
        while let Some(&next) = pending.peek() {
            let snap_at = (sim.committed() / SNAP_STRIDE + 1) * SNAP_STRIDE;
            let upto = next.min(snap_at);
            if catch_unwind(AssertUnwindSafe(|| sim.run_chunk(&prep, last, upto))).is_err() {
                for w in pending {
                    answer(w, f64::NAN);
                }
                return;
            }
            let ns = sim.runtime_ns();
            while let Some(w) = pending.next_if(|&w| sim.committed() >= w) {
                answer(w, ns);
            }
            if pending.peek().is_some() && sim.committed() >= snap_at {
                self.memo.store(&identity, &item.spec, &sim);
            }
        }
        self.memo.reached(&identity, last);
        self.memo
            .hits
            .fetch_add(windows.len() as u64 - 1, Ordering::Relaxed);
    }

    /// A fresh simulator for `machine` on the engine's chosen loop.
    fn simulator(&self, machine: &MachineConfig) -> Simulator {
        let sim = Simulator::new(machine.clone());
        if self.reference_loop {
            sim.use_reference_loop()
        } else {
            sim
        }
    }

    /// Persists the cache immediately.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_cache(&self) -> std::io::Result<()> {
        self.cache.save()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gals_core::{McdConfig, SyncConfig};
    use gals_workloads::suite;
    use std::sync::Mutex;

    fn item(bench: &str, mode: &'static str, machine: MachineConfig, key: &str) -> MeasureItem {
        MeasureItem {
            spec: suite::by_name(bench).unwrap(),
            mode,
            config_key: key.to_string(),
            machine,
        }
    }

    #[test]
    fn duplicates_simulated_once_and_streamed() {
        let engine = SweepEngine::new(ResultCache::in_memory());
        let sync = MachineConfig::synchronous(SyncConfig::paper_best());
        let work = vec![
            item("adpcm_encode", "sync", sync.clone(), "best"),
            item("adpcm_encode", "sync", sync.clone(), "best"),
            item("adpcm_encode", "sync", sync, "best"),
        ];
        let seen = Mutex::new(Vec::new());
        let results = engine.measure_with(&work, 1_000, |i, ns| {
            seen.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((i, ns));
        });
        assert_eq!(engine.simulated_count(), 1, "batch-internal dedupe");
        assert!(results.iter().all(|&r| r == results[0] && r > 0.0));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(seen.len(), 3, "callback fires once per item");
        assert!(seen.iter().all(|&(_, ns)| ns == results[0]));
    }

    #[test]
    fn cache_hits_skip_simulation() {
        let engine = SweepEngine::new(ResultCache::in_memory());
        let work = vec![item(
            "gzip",
            "prog",
            MachineConfig::program_adaptive(McdConfig::smallest()),
            "small",
        )];
        let a = engine.measure(&work, 1_000);
        let b = engine.measure(&work, 1_000);
        assert_eq!(a, b);
        assert_eq!(engine.simulated_count(), 1);
        assert_eq!(engine.cache_hit_count(), 1);
    }

    #[test]
    fn trace_pool_materializes_each_benchmark_once() {
        // Captures are single-flight, so the counts are exact at any
        // worker count: a worker that misses while a covering capture is
        // in flight waits for it.
        for threads in [1, 2, 4] {
            let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
            let sync = MachineConfig::synchronous(SyncConfig::paper_best());
            // Four distinct configs over two benchmarks: two captures,
            // the other six runs replay pooled traces.
            let mut work = Vec::new();
            for bench in ["adpcm_encode", "gzip"] {
                for key in ["a", "b", "c", "d"] {
                    work.push(item(bench, "pooltest", sync.clone(), key));
                }
            }
            let results = engine.measure(&work, 1_000);
            assert!(results.iter().all(|r| r.is_finite()));
            assert_eq!(engine.simulated_count(), 8);
            assert_eq!(
                engine.trace_pool_builds(),
                2,
                "{threads} workers: one capture per benchmark"
            );
            assert_eq!(engine.trace_pool_hits(), 6, "{threads} workers");
        }
    }

    #[test]
    fn trace_pool_extends_for_longer_windows() {
        let engine = SweepEngine::new(ResultCache::in_memory());
        let sync = MachineConfig::synchronous(SyncConfig::paper_best());
        let short = vec![item("power", "pooltest", sync.clone(), "w")];
        let long = vec![item("power", "pooltest2", sync, "w")];
        engine.measure(&short, 500);
        engine.measure(&long, 2_000);
        // The second window outgrew the first recording: re-captured.
        assert_eq!(engine.trace_pool_builds(), 2);
        // And the longer recording now serves short windows again.
        let short2 = vec![item("power", "pooltest3", sync_cfg(), "w")];
        engine.measure(&short2, 500);
        assert_eq!(engine.trace_pool_builds(), 2);
        assert!(engine.trace_pool_hits() >= 1);
    }

    fn sync_cfg() -> MachineConfig {
        MachineConfig::synchronous(SyncConfig::paper_best())
    }

    #[test]
    fn disabled_pool_regenerates_streams_and_matches() {
        let work = vec![
            item("art", "pooltest", sync_cfg(), "k1"),
            item("art", "pooltest", sync_cfg(), "k2"),
        ];
        let unpooled = SweepEngine::new(ResultCache::in_memory()).without_trace_pool();
        let b = unpooled.measure(&work, 1_500);
        assert_eq!(unpooled.trace_pool_builds(), 0);
        assert_eq!(unpooled.trace_pool_hits(), 0);
        for threads in [1, 2, 4] {
            let pooled = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
            let a = pooled.measure(&work, 1_500);
            assert_eq!(a, b, "pooled and per-job-stream runs must be bit-identical");
            assert_eq!(pooled.trace_pool_builds(), 1, "{threads} workers");
            assert_eq!(pooled.trace_pool_hits(), 1, "{threads} workers");
        }
    }

    #[test]
    fn a_failed_capture_releases_its_waiters() {
        let pool = TracePool::new(10_000);
        let spec = suite::by_name("gzip").unwrap();
        // A capture of 500 instructions is in flight, as `get` marks it.
        pool.lock().capturing.push(Capture {
            spec: spec.clone(),
            need: 500,
            line_bytes: 64,
        });
        std::thread::scope(|s| {
            // This request is covered by the one in flight, so it waits.
            let waiter = s.spawn(|| pool.get(&spec, 400, 64));
            while pool.lock().waiting == 0 {
                std::thread::yield_now();
            }
            let failed = catch_unwind(AssertUnwindSafe(|| {
                let _mark = CaptureMark {
                    pool: &pool,
                    spec: &spec,
                    need: 500,
                    line_bytes: 64,
                };
                panic!("capture failed");
            }));
            assert!(failed.is_err());
            // The mark's drop woke the waiter, which captured for itself.
            let got = waiter.join().expect("waiter returns");
            assert_eq!(got.map(|p| p.len()), Some(400));
        });
        assert_eq!(pool.builds.load(Ordering::Relaxed), 1);
        assert!(pool.lock().capturing.is_empty());
    }

    #[test]
    fn trace_pool_evicts_least_recently_used() {
        let pool = TracePool::new(1_000);
        let a = suite::by_name("gzip").unwrap();
        let b = suite::by_name("art").unwrap();
        let c = suite::by_name("power").unwrap();
        assert!(pool.get(&a, 400, 64).is_some());
        assert!(pool.get(&b, 400, 64).is_some());
        // Touch `a` so `b` is the LRU entry, then overflow with `c`.
        assert!(pool.get(&a, 400, 64).is_some());
        assert!(pool.get(&c, 400, 64).is_some());
        let state = pool.lock();
        let names: Vec<&str> = state.entries.iter().map(|e| e.spec.name()).collect();
        assert_eq!(names, ["gzip", "power"], "LRU (art) evicted, MRU kept");
        drop(state);
        assert!(
            pool.get(&a, 2_000, 64).is_none(),
            "a request beyond the pool bound is declined, not thrashed"
        );
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = std::sync::Arc::new(SweepEngine::new(ResultCache::in_memory()));
        let sync = MachineConfig::synchronous(SyncConfig::paper_best());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = engine.clone();
                let work = vec![item("adpcm_encode", "sync", sync.clone(), "best")];
                std::thread::spawn(move || engine.measure(&work, 1_000)[0])
            })
            .collect();
        let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        // Concurrent batches may race the first measurement, but a
        // re-measured key is bit-identical (determinism), so every
        // caller still observes the same value.
        assert!(engine.simulated_count() >= 1);
    }
}
