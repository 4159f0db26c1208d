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

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

    /// The window-independent identity the interval memo keys on:
    /// everything that determines the machine and its input except the
    /// window (mirrors the [`CacheKey`] component contract).
    fn memo_identity(&self) -> String {
        format!("{}|{}|{}", self.spec.name(), self.mode, self.config_key)
    }
}

/// How many freshly measured results accumulate before a worker flushes
/// the cache file (batched persistence: an interrupted sweep loses at
/// most one batch).
const SAVE_BATCH: usize = 256;

/// Default bound on the total instructions the trace pool may hold
/// (~40 bytes each ⇒ roughly 80 MB); override with
/// `GALS_MCD_TRACE_POOL_INSTS` (`0` disables pooling entirely).
const DEFAULT_POOL_INSTS: u64 = 2_000_000;

/// Default lockstep cohort width (simulators advancing over one shared
/// prepared trace); override with `GALS_MCD_COHORT_WIDTH` (`0` or `1`
/// selects the legacy one-job-at-a-time path).
const DEFAULT_COHORT_WIDTH: usize = 8;

/// Default trace-chunk size (instructions) each cohort member advances
/// per turn — the best-measured balance between keeping a chunk's
/// prepared-fact columns cache-resident across the cohort's pass and
/// not thrashing each member's own microarchitectural state on the
/// turn switches; override with `GALS_MCD_COHORT_CHUNK`.
const DEFAULT_COHORT_CHUNK: u64 = 4_096;

/// One pooled recording: the spec it was captured from (the identity
/// key — full structural equality, so distinct specs that happen to
/// share a name can never alias), the shared instruction storage, and
/// (once some cohort needed it) the structure-of-arrays densification.
#[derive(Debug)]
struct PoolEntry {
    spec: BenchmarkSpec,
    trace: SharedTrace,
    /// Lazily built by the first cohort run over this recording; the
    /// LRU instruction bound covers the raw recording only (the
    /// densification is a constant factor on top).
    prepared: Option<PreparedTrace>,
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
#[derive(Debug)]
struct TracePool {
    entries: Mutex<Vec<PoolEntry>>,
    capacity_insts: u64,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl TracePool {
    fn new(capacity_insts: u64) -> Self {
        TracePool {
            entries: Mutex::new(Vec::new()),
            capacity_insts,
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<PoolEntry>> {
        // A panic while holding the lock can only come from an
        // allocation failure mid-push; the entry list itself is never
        // left half-written.
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns a recording of at least `need` instructions of `spec`,
    /// capturing (or extending) it on a miss, or `None` when pooling is
    /// disabled or the request alone would overflow the pool bound.
    fn get(&self, spec: &BenchmarkSpec, need: u64) -> Option<SharedTrace> {
        if need == 0 || need > self.capacity_insts {
            return None;
        }
        {
            let mut entries = self.lock();
            if let Some(pos) = entries.iter().position(|e| &e.spec == spec) {
                if entries[pos].trace.len() as u64 >= need {
                    // Hit: refresh recency and share the storage.
                    let e = entries.remove(pos);
                    let trace = e.trace.clone();
                    entries.push(e);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(trace);
                }
            }
        }
        // Miss (or too-short recording): capture outside the lock so
        // other benchmarks' workers aren't stalled behind stream
        // generation. Concurrent builders of the same spec may race;
        // the determinism contract makes their recordings prefixes of
        // one another, so whichever is longest wins below.
        let trace = SharedTrace::capture(&mut spec.stream(), need);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|e| &e.spec == spec) {
            if entries[pos].trace.len() as u64 >= need {
                let e = entries.remove(pos);
                let existing = e.trace.clone();
                entries.push(e);
                return Some(existing);
            }
            entries.remove(pos);
        }
        entries.push(PoolEntry {
            spec: spec.clone(),
            trace: trace.clone(),
            prepared: None,
        });
        // Evict least-recently-used recordings until under the bound
        // (the just-inserted entry, at the MRU end, always survives).
        let mut total: u64 = entries.iter().map(|e| e.trace.len() as u64).sum();
        while total > self.capacity_insts && entries.len() > 1 {
            total -= entries.remove(0).trace.len() as u64;
        }
        Some(trace)
    }

    /// Like [`TracePool::get`], but returns the recording's
    /// structure-of-arrays densification for machines with `line_bytes`
    /// I-cache lines, building and caching it beside the raw trace on
    /// first use. `None` under exactly the same conditions as `get`
    /// (pooling disabled or the request exceeds the pool bound) —
    /// cohort callers fall back to the per-job stream path then.
    fn get_prepared(
        &self,
        spec: &BenchmarkSpec,
        need: u64,
        line_bytes: u64,
    ) -> Option<PreparedTrace> {
        if need == 0 || need > self.capacity_insts {
            return None;
        }
        {
            let mut entries = self.lock();
            if let Some(pos) = entries.iter().position(|e| &e.spec == spec) {
                let usable = entries[pos]
                    .prepared
                    .as_ref()
                    .is_some_and(|p| p.line_bytes() == line_bytes && p.len() as u64 >= need);
                if usable {
                    // Hit: refresh recency and share the columns.
                    let e = entries.remove(pos);
                    let prep = e.prepared.clone().expect("probed above");
                    entries.push(e);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(prep);
                }
            }
        }
        // No usable densification yet: obtain the raw recording through
        // the normal pooling path (which counts the hit/build), then
        // densify outside the lock and publish the result. A concurrent
        // densifier of the same spec may race; keep whichever covers
        // the other (same line size and at least as long).
        let trace = self.get(spec, need)?;
        let prep = PreparedTrace::new(&trace, line_bytes);
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|e| &e.spec == spec) {
            let keep = entries[pos]
                .prepared
                .as_ref()
                .is_some_and(|p| p.line_bytes() == line_bytes && p.len() >= prep.len());
            if !keep {
                entries[pos].prepared = Some(prep.clone());
            }
        }
        Some(prep)
    }
}

/// Default bound on retained interval-memo snapshots (cloned paused
/// simulators, roughly 50–300 KB each); override with
/// `GALS_MCD_INTERVAL_MEMO_SNAPS` (`0` disables memoization).
const DEFAULT_MEMO_SNAPS: usize = 64;

/// Cross-cohort interval memoization (see
/// [`SweepEngine::run_cohort`]).
///
/// Jobs that share a `(benchmark, mode, config_key)` identity but
/// differ in window simulate the **same machine over the same trace
/// prefix** — determinism makes the paused state at a chunk boundary a
/// pure function of that identity and the boundary, and the pacing
/// pause mutates nothing, so the state is also independent of the
/// chunking schedule that reached it. The memo therefore snapshots
/// (clones) a paused member at each chunk boundary and lets any other
/// member with the same identity — in this cohort, another worker's
/// cohort, or a later batch — splice the snapshot instead of
/// re-stepping the interval.
///
/// Two guards keep a splice sound:
///
/// * the prepared trace's rolling [`PreparedTrace::prefix_digest`] at
///   the boundary is part of the snapshot key, so identities that
///   collide across different recordings (or line sizes) can never
///   alias;
/// * a snapshot is spliced only into a job whose window strictly
///   exceeds the snapshot's committed count — commit clamps exactly at
///   the window, so below it the evolution is window-independent.
///
/// Snapshots are only taken for identities registered at two or more
/// distinct windows (`windows`): a sweep of all-distinct configurations
/// pays one map probe per member turn and zero clones.
#[derive(Debug)]
struct IntervalMemo {
    inner: Mutex<MemoInner>,
    /// Maximum retained snapshots (FIFO eviction); `0` disables.
    capacity: usize,
    hits: AtomicU64,
    stores: AtomicU64,
}

#[derive(Debug, Default)]
struct MemoInner {
    /// Distinct windows enrolled per identity; ≥ 2 marks the identity
    /// as shareable (an identical window re-run is the result cache's
    /// job, not ours).
    windows: FxHashMap<String, Vec<u64>>,
    /// `(identity, chunk boundary, prefix digest)` → paused machine.
    snaps: FxHashMap<(String, u64, u64), Arc<Simulator>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<(String, u64, u64)>,
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

    /// Records that `identity` is being simulated at `window`.
    fn register(&self, identity: &str, window: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        let windows = inner.windows.entry(identity.to_string()).or_default();
        if !windows.contains(&window) {
            windows.push(window);
        }
    }

    /// Returns a deep copy of the memoized paused machine for
    /// `identity` at trace boundary `chunk_end`, if one exists, its
    /// trace prefix digest matches, and it is spliceable into a run
    /// committing up to `window`.
    fn probe(&self, identity: &str, chunk_end: u64, digest: u64, window: u64) -> Option<Simulator> {
        if self.capacity == 0 {
            return None;
        }
        let shared = {
            let inner = self.lock();
            inner
                .snaps
                .get(&(identity.to_string(), chunk_end, digest))?
                .clone()
        };
        if shared.committed() >= window {
            // The shorter-window run would have finished before this
            // pause; it must simulate its own ending.
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        // The deep copy happens outside the lock; only the Arc bump is
        // inside the critical section.
        Some((*shared).clone())
    }

    /// Offers a paused machine for retention. No-op unless some *other*
    /// registered window of `identity` strictly exceeds the paused
    /// commit count — only such a job can ever splice the snapshot (a
    /// same-window re-run is the result cache's business, and a shorter
    /// window must simulate its own ending) — and the boundary is not
    /// already held. The deep clone happens outside the lock, and only
    /// for snapshots that passed the usefulness gate.
    fn store(&self, identity: &str, chunk_end: u64, digest: u64, sim: &Simulator, window: u64) {
        if self.capacity == 0 {
            return;
        }
        let committed = sim.committed();
        {
            let inner = self.lock();
            let useful = inner
                .windows
                .get(identity)
                .is_some_and(|ws| ws.iter().any(|&w| w != window && w > committed));
            if !useful
                || inner
                    .snaps
                    .contains_key(&(identity.to_string(), chunk_end, digest))
            {
                return;
            }
        }
        let snap = Arc::new(sim.clone());
        let mut inner = self.lock();
        let key = (identity.to_string(), chunk_end, digest);
        if inner.snaps.contains_key(&key) {
            return;
        }
        inner.snaps.insert(key.clone(), snap);
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            let evicted = inner.order.pop_front().expect("len checked");
            inner.snaps.remove(&evicted);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
    }
}

/// One member of a lockstep cohort: an admitted (claimed) job, its
/// live simulator, the shared prepared trace, and the member's current
/// pacing bound.
struct CohortMember<'env> {
    job: Job,
    complete: Completion<'env>,
    prep: PreparedTrace,
    sim: Simulator,
    /// Trace position this member's next turn advances to.
    chunk_end: u64,
    /// Interval-memo identity: `benchmark|mode|config_key` (everything
    /// that determines the machine and its input except the window).
    identity: String,
}

/// The work-stealing measurement engine over a sharded result cache.
///
/// All state is interior-mutable behind `&self`; see the
/// [module docs](self) for the sharing story.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    reference_loop: bool,
    /// Lockstep cohort width: how many same-benchmark simulators one
    /// worker advances over a shared prepared trace (`<2` = legacy
    /// one-job-at-a-time execution).
    cohort_width: usize,
    /// Trace-chunk size (instructions) per cohort member turn.
    chunk_insts: u64,
    cache: ResultCache,
    /// Shared benchmark recordings (see "Sweep-wide trace sharing" in
    /// the [module docs](self)).
    traces: TracePool,
    /// Cross-cohort interval memoization (see [`IntervalMemo`]).
    memo: IntervalMemo,
    /// Simulations actually executed (cache misses), for observability.
    simulated: AtomicU64,
    /// Requests served straight from the cache.
    cache_hits: AtomicU64,
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
        let cohort_width = parse_env_or("GALS_MCD_COHORT_WIDTH", DEFAULT_COHORT_WIDTH);
        let chunk_insts = match parse_env_or("GALS_MCD_COHORT_CHUNK", DEFAULT_COHORT_CHUNK) {
            0 => DEFAULT_COHORT_CHUNK,
            c => c,
        };
        let memo_snaps = parse_env_or("GALS_MCD_INTERVAL_MEMO_SNAPS", DEFAULT_MEMO_SNAPS);
        SweepEngine {
            threads,
            reference_loop: false,
            cohort_width,
            chunk_insts,
            cache,
            traces: TracePool::new(pool_insts),
            memo: IntervalMemo::new(memo_snaps),
            simulated: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
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
    /// instruction stream from RNG scratch. Results are bit-identical
    /// either way (the pooling integration tests assert it); this exists
    /// for the throughput reporter's per-job-stream baseline and for
    /// bounding memory on hosts where even one window's trace is too
    /// large to keep.
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

    /// Sets the lockstep cohort width: up to `width` same-benchmark
    /// jobs advance over one shared prepared trace per worker. `0` or
    /// `1` selects the legacy one-job-at-a-time path (results are
    /// bit-identical either way — the cohort integration tests assert
    /// it); the default is 8, env-overridable via
    /// `GALS_MCD_COHORT_WIDTH`.
    #[must_use]
    pub fn with_cohort_width(mut self, width: usize) -> Self {
        self.cohort_width = width;
        self
    }

    /// Sets the per-turn trace-chunk size in instructions (minimum 1;
    /// default 4096, env-overridable via `GALS_MCD_COHORT_CHUNK`).
    /// Chunking affects only cache residency, never results.
    #[must_use]
    pub fn with_cohort_chunk(mut self, insts: u64) -> Self {
        self.chunk_insts = insts.max(1);
        self
    }

    /// Caps the interval memo at `snaps` retained snapshots (`0`
    /// disables memoization; the default is 64, env-overridable via
    /// `GALS_MCD_INTERVAL_MEMO_SNAPS`). Memoization affects wall clock
    /// only, never results — a spliced snapshot is bit-identical to
    /// re-stepping the interval (the cohort integration tests assert
    /// it).
    #[must_use]
    pub fn with_interval_memo_snaps(mut self, snaps: usize) -> Self {
        self.memo = IntervalMemo::new(snaps);
        self
    }

    /// The lockstep cohort width (`<2` = legacy path).
    pub fn cohort_width(&self) -> usize {
        self.cohort_width
    }

    /// The per-turn trace-chunk size in instructions.
    pub fn cohort_chunk(&self) -> u64 {
        self.chunk_insts
    }

    /// The worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Simulations executed since construction (excludes cache hits).
    pub fn simulated_count(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Measurements served from the cache since construction.
    pub fn cache_hit_count(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Simulations that replayed a pooled trace instead of regenerating
    /// their benchmark's stream.
    pub fn trace_pool_hits(&self) -> u64 {
        self.traces.hits.load(Ordering::Relaxed)
    }

    /// Stream captures performed by the trace pool (distinct benchmarks
    /// materialized, plus any extensions for longer windows).
    pub fn trace_pool_builds(&self) -> u64 {
        self.traces.builds.load(Ordering::Relaxed)
    }

    /// Names of the benchmarks currently resident in the trace pool,
    /// least-recently-used first. Residency introspection for the
    /// serve fleet's shard-disjointness assertions and observability;
    /// the entry list is tiny (see [`TracePool`]), so snapshotting it
    /// under the lock is cheap.
    pub fn trace_pool_benchmarks(&self) -> Vec<String> {
        self.traces
            .lock()
            .iter()
            .map(|e| e.spec.name().to_string())
            .collect()
    }

    /// Chunk turns answered by splicing a memoized interval snapshot
    /// instead of re-stepping the interval.
    pub fn interval_memo_hits(&self) -> u64 {
        self.memo.hits.load(Ordering::Relaxed)
    }

    /// Interval snapshots retained by the memo.
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
    /// are simulated once (in-flight dedupe plus the shared cache), and
    /// `on_outcome(i, &outcome)` streams each job's resolution as it
    /// happens.
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
        let misses;
        {
            let slots = &slots;
            let on_outcome = &on_outcome;
            let mut batch = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                // Cache hits resolve inline — a warm-cache batch (table
                // regeneration) fills every slot right here and never
                // spawns a worker thread.
                if let Some(ns) = self.cache.get(&job.cache_key()) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
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
                // Register the job's memo identity before any worker
                // starts: a batch mixing windows of one configuration
                // must mark the identity shareable *before* the first
                // window's cohort runs (and discards) the shared
                // prefix, or sequentially formed cohorts never hit.
                if self.cohort_width >= 2 {
                    self.memo.register(&job.item.memo_identity(), job.window);
                }
                let complete = Box::new(move |_job: Job, outcome: JobOutcome| {
                    on_outcome(i, &outcome);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                }) as crate::sched::Completion<'_>;
                batch.push((job, complete));
            }
            misses = batch.len();
            if misses > 0 {
                assert!(sched.submit_batch(batch), "fresh scheduler is open");
            }
        }
        sched.close();
        if misses > 0 {
            let threads = self.threads.min(misses);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| self.serve_jobs(&sched));
                }
            });
        }
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
    /// 1. **Cache** — a hit completes immediately (even past the
    ///    deadline: it costs nothing).
    /// 2. **Deadline** — an expired job completes as
    ///    [`JobOutcome::Expired`] without simulating.
    /// 3. **Claim** — the job claims its cache key or attaches as a
    ///    follower of the worker already measuring that key.
    /// 4. **Run** — a claimer simulates (a panic is caught and becomes
    ///    [`JobOutcome::Panicked`]), records the cache with batched
    ///    persistence, then fires its own completion and every
    ///    follower's. With `cohort_width ≥ 2` the claimed job anchors a
    ///    lockstep **cohort**: affine jobs are pulled from the queue
    ///    ([`JobScheduler::pop_affine`]), admitted through the same
    ///    steps 1–3, and advanced together over one shared prepared
    ///    trace, each harvesting — and its slot backfilling — as it
    ///    finishes. Cohort execution is bit-identical to one-at-a-time
    ///    (asserted by the cohort integration tests).
    pub fn serve_jobs<'env>(&self, sched: &JobScheduler<'env>) {
        while let Some((job, complete)) = sched.pop() {
            let Some((job, complete)) = self.admit(job, complete, sched) else {
                continue;
            };
            if self.cohort_width >= 2 {
                self.run_cohort(job, complete, sched);
            } else {
                let ns = self.run_one(&job.item, job.window);
                self.finalize(job.cache_key(), ns, job, complete, sched);
            }
        }
    }

    /// Admission steps 1–3 of [`SweepEngine::serve_jobs`] plus the
    /// post-claim re-probe, for one popped job. Returns the job back
    /// when the caller owns its cache key and must simulate; `None`
    /// when the job already resolved (cache hit, expiry, known-panic
    /// key, or attached as an in-flight follower).
    fn admit<'env>(
        &self,
        job: Job,
        complete: Completion<'env>,
        sched: &JobScheduler<'env>,
    ) -> Option<(Job, Completion<'env>)> {
        let key = job.cache_key();
        if let Some(ns) = self.cache.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            complete(
                job,
                JobOutcome::Completed {
                    runtime_ns: ns,
                    cached: true,
                },
            );
            return None;
        }
        if job.expired_at(Instant::now()) {
            complete(job, JobOutcome::Expired);
            return None;
        }
        if self
            .panicked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(key.as_str())
        {
            complete(job, JobOutcome::Panicked);
            return None;
        }
        let Claim::Run(job, complete) = sched.claim(key.as_str(), job, complete) else {
            // A follower: the claiming worker fires its completion.
            return None;
        };
        // Re-probe the cache and the panicked set now that the
        // claim is ours: a previous claimer of this key may have
        // finished (populating one of them) between our pop-time
        // probes and the claim — without this, that window
        // re-simulates the key and breaks the "simulated exactly
        // once" accounting.
        if let Some(ns) = self.cache.get(&key) {
            let outcome = JobOutcome::Completed {
                runtime_ns: ns,
                cached: true,
            };
            let followers = sched.release(key.as_str());
            self.cache_hits
                .fetch_add(1 + followers.len() as u64, Ordering::Relaxed);
            complete(job, outcome);
            for (fjob, fcomplete) in followers {
                fcomplete(fjob, outcome);
            }
            return None;
        }
        if self
            .panicked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(key.as_str())
        {
            let followers = sched.release(key.as_str());
            complete(job, JobOutcome::Panicked);
            for (fjob, fcomplete) in followers {
                fcomplete(fjob, JobOutcome::Panicked);
            }
            return None;
        }
        Some((job, complete))
    }

    /// Step 4's resolution tail: records `ns` (NaN = panicked) for an
    /// admitted job, releases its claim, and fires its completion and
    /// every follower's.
    fn finalize<'env>(
        &self,
        key: CacheKey,
        ns: f64,
        job: Job,
        complete: Completion<'env>,
        sched: &JobScheduler<'env>,
    ) {
        let outcome = if ns.is_finite() {
            self.cache.put(key.clone(), ns);
            self.cache.maybe_save_batched(SAVE_BATCH);
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
        let followers = sched.release(key.as_str());
        complete(job, outcome);
        for (fjob, fcomplete) in followers {
            fcomplete(fjob, outcome);
        }
    }

    /// Runs an admitted job as the anchor of a lockstep cohort: same-
    /// benchmark jobs pulled from the queue advance round-robin over
    /// one shared [`PreparedTrace`] in chunks of `chunk_insts`, so the
    /// chunk's fact columns stay cache-resident while every member
    /// crosses them. A member that commits its window (or panics) is
    /// harvested immediately and its slot backfilled from the queue.
    ///
    /// Chunking and cohort composition affect wall clock only: each
    /// member's architectural outcome is bit-identical to a solo
    /// [`SweepEngine::run_one`] (the pacing pause in
    /// [`Simulator::run_chunk`] is stateless), which the determinism
    /// and cohort integration suites assert.
    fn run_cohort<'env>(&self, job: Job, complete: Completion<'env>, sched: &JobScheduler<'env>) {
        let spec = job.item.spec.clone();
        let mut members = Vec::with_capacity(self.cohort_width);
        self.enroll(job, complete, sched, &mut members);
        if members.is_empty() {
            // Pooling unavailable for this job: it already ran solo.
            return;
        }
        self.backfill(&spec, sched, &mut members);

        let chunk = self.chunk_insts.max(1);
        let mut i = 0;
        while !members.is_empty() {
            if i >= members.len() {
                i = 0;
            }
            // A member of a higher class than the round-robin pick (a
            // high-priority job backfilled into a low-priority cohort)
            // takes every turn until it finishes, so joining a cohort
            // never queues it behind lower-priority members.
            let top = (0..members.len())
                .max_by_key(|&k| members[k].job.priority)
                .expect("non-empty cohort");
            if members[top].job.priority > members[i].job.priority {
                i = top;
            }
            let m = &mut members[i];
            let next_end = m.chunk_end.saturating_add(chunk);
            // Interval memoization: if another member (any cohort, any
            // worker, any batch) already simulated this identity up to
            // the next chunk boundary, splice its paused state instead
            // of re-stepping the interval. See [`IntervalMemo`] for the
            // soundness argument.
            if next_end < m.prep.len() as u64 {
                let digest = m.prep.prefix_digest(next_end as usize);
                if let Some(sim) = self.memo.probe(&m.identity, next_end, digest, m.job.window) {
                    m.sim = sim;
                    m.chunk_end = next_end;
                    i += 1;
                    continue;
                }
            }
            m.chunk_end = next_end;
            // Once the pacing bound passes the recording's end the
            // capture contract (window + max_in_flight) guarantees the
            // run finishes without it: disable the gate and let the
            // member run to its window.
            let upto = if m.chunk_end >= m.prep.len() as u64 {
                u64::MAX
            } else {
                m.chunk_end
            };
            let window = m.job.window;
            let stepped = {
                let sim = &mut m.sim;
                let prep = &m.prep;
                catch_unwind(AssertUnwindSafe(|| sim.run_chunk(prep, window, upto)))
            };
            match stepped {
                Ok(false) => {
                    // Paused exactly at `chunk_end`: offer the state to
                    // the memo (cheap no-op unless another window of
                    // this identity, enrolled somewhere, can still
                    // splice it).
                    let digest = m.prep.prefix_digest(m.chunk_end as usize);
                    self.memo
                        .store(&m.identity, m.chunk_end, digest, &m.sim, window);
                    i += 1;
                }
                Ok(true) => {
                    let m = members.swap_remove(i);
                    self.simulated.fetch_add(1, Ordering::Relaxed);
                    let key = m.job.cache_key();
                    let (sim, prep) = (m.sim, m.prep);
                    let ns = catch_unwind(AssertUnwindSafe(move || {
                        sim.finish(prep.name()).runtime_ns()
                    }))
                    .unwrap_or(f64::NAN);
                    self.finalize(key, ns, m.job, m.complete, sched);
                    self.backfill(&spec, sched, &mut members);
                }
                Err(_) => {
                    // A model bug tripped by this member's config; the
                    // rest of the cohort is unaffected.
                    let m = members.swap_remove(i);
                    self.simulated.fetch_add(1, Ordering::Relaxed);
                    self.finalize(m.job.cache_key(), f64::NAN, m.job, m.complete, sched);
                    self.backfill(&spec, sched, &mut members);
                }
            }
        }
    }

    /// Builds an admitted job's cohort membership (prepared trace +
    /// fresh simulator). When the pool can't serve a prepared trace
    /// (pooling disabled, or the recording would exceed the bound) the
    /// job runs solo right here instead — the legacy path, identical
    /// results.
    fn enroll<'env>(
        &self,
        job: Job,
        complete: Completion<'env>,
        sched: &JobScheduler<'env>,
        members: &mut Vec<CohortMember<'env>>,
    ) {
        let machine = job.item.machine.clone();
        let need = job.window + machine.params.max_in_flight() as u64;
        let Some(prep) = self
            .traces
            .get_prepared(&job.item.spec, need, machine.params.line_bytes)
        else {
            let ns = self.run_one(&job.item, job.window);
            self.finalize(job.cache_key(), ns, job, complete, sched);
            return;
        };
        let reference_loop = self.reference_loop;
        match catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulator::new(machine);
            if reference_loop {
                sim = sim.use_reference_loop();
            }
            sim
        })) {
            Ok(sim) => {
                let identity = job.item.memo_identity();
                self.memo.register(&identity, job.window);
                members.push(CohortMember {
                    job,
                    complete,
                    prep,
                    sim,
                    chunk_end: 0,
                    identity,
                });
            }
            Err(_) => {
                // Construction panicked (a custom-machine model bug):
                // resolve exactly as a panicking solo run would.
                self.simulated.fetch_add(1, Ordering::Relaxed);
                self.finalize(job.cache_key(), f64::NAN, job, complete, sched);
            }
        }
    }

    /// Refills a cohort to `cohort_width` with benchmark-affine jobs
    /// from the queue, admitting each through the standard steps. A
    /// late joiner starts from trace position zero and catches up in
    /// chunk-sized turns — identical state evolution, it just trails
    /// the others through the (still warm) early columns.
    fn backfill<'env>(
        &self,
        spec: &BenchmarkSpec,
        sched: &JobScheduler<'env>,
        members: &mut Vec<CohortMember<'env>>,
    ) {
        while members.len() < self.cohort_width {
            let want = self.cohort_width - members.len();
            let batch = sched.pop_affine(spec, want);
            if batch.is_empty() {
                break;
            }
            for (job, complete) in batch {
                if let Some((job, complete)) = self.admit(job, complete, sched) {
                    self.enroll(job, complete, sched, members);
                }
            }
        }
    }

    /// Runs one simulation, converting a panic (a model bug tripped by
    /// this particular configuration, e.g. the deadlock detector) into
    /// NaN so the rest of the batch survives.
    fn run_one(&self, item: &MeasureItem, window: u64) -> f64 {
        let machine = item.machine.clone();
        let reference_loop = self.reference_loop;
        // A run consumes at most `window` committed instructions plus
        // the in-flight bound of fetched-but-uncommitted ones, so a
        // recording of that length fully substitutes for the live
        // stream (the replay asserts this by refusing to loop).
        let need = window + machine.params.max_in_flight() as u64;
        let trace = self.traces.get(&item.spec, need);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulator::new(machine);
            if reference_loop {
                sim = sim.use_reference_loop();
            }
            match &trace {
                Some(t) => sim.run(&mut t.replay(), window).runtime_ns(),
                None => sim.run(&mut item.spec.stream(), window).runtime_ns(),
            }
        }));
        self.simulated.fetch_add(1, Ordering::Relaxed);
        outcome.unwrap_or(f64::NAN)
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
        // One worker: concurrent workers may race a benchmark's first
        // capture (by design — capture happens outside the pool lock),
        // which makes exact build/hit counts nondeterministic.
        let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(1);
        let sync = MachineConfig::synchronous(SyncConfig::paper_best());
        // Four distinct configs over two benchmarks: two captures, the
        // other six runs replay pooled traces.
        let mut work = Vec::new();
        for bench in ["adpcm_encode", "gzip"] {
            for key in ["a", "b", "c", "d"] {
                work.push(item(bench, "pooltest", sync.clone(), key));
            }
        }
        let results = engine.measure(&work, 1_000);
        assert!(results.iter().all(|r| r.is_finite()));
        assert_eq!(engine.simulated_count(), 8);
        assert_eq!(engine.trace_pool_builds(), 2, "one capture per benchmark");
        assert_eq!(engine.trace_pool_hits(), 6);
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
        // One worker on the pooled side: exact build counts (asserted
        // below) are only deterministic without capture races.
        let pooled = SweepEngine::new(ResultCache::in_memory()).with_threads(1);
        let unpooled = SweepEngine::new(ResultCache::in_memory()).without_trace_pool();
        let work = vec![
            item("art", "pooltest", sync_cfg(), "k1"),
            item("art", "pooltest", sync_cfg(), "k2"),
        ];
        let a = pooled.measure(&work, 1_500);
        let b = unpooled.measure(&work, 1_500);
        assert_eq!(a, b, "pooled and per-job-stream runs must be bit-identical");
        assert_eq!(unpooled.trace_pool_builds(), 0);
        assert_eq!(unpooled.trace_pool_hits(), 0);
        assert_eq!(pooled.trace_pool_builds(), 1);
    }

    #[test]
    fn trace_pool_evicts_least_recently_used() {
        let pool = TracePool::new(1_000);
        let a = suite::by_name("gzip").unwrap();
        let b = suite::by_name("art").unwrap();
        let c = suite::by_name("power").unwrap();
        assert!(pool.get(&a, 400).is_some());
        assert!(pool.get(&b, 400).is_some());
        // Touch `a` so `b` is the LRU entry, then overflow with `c`.
        assert!(pool.get(&a, 400).is_some());
        assert!(pool.get(&c, 400).is_some());
        let entries = pool.lock();
        let names: Vec<&str> = entries.iter().map(|e| e.spec.name()).collect();
        assert_eq!(names, ["gzip", "power"], "LRU (art) evicted, MRU kept");
        drop(entries);
        assert!(
            pool.get(&a, 2_000).is_none(),
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
