//! The job scheduler: priority-ordered, deadline-aware, starvation-free.
//!
//! A [`Job`] is the unit of work everywhere in the execution path — one
//! `{machine config, window, priority, deadline, tag}` tuple. The
//! batch-oriented [`Explorer`](crate::Explorer) submits homogeneous
//! job batches; the `gals-serve` process admits heterogeneous jobs from
//! every connection into one long-lived [`JobScheduler`] and lets a
//! worker pool drain it. Nothing in the scheduler assumes jobs share a
//! window, a machine style, or a priority.
//!
//! Scheduling discipline:
//!
//! * **Priority classes** ([`Priority::High`] / [`Priority::Normal`] /
//!   [`Priority::Low`]) order the queue; within a class, admission
//!   order (FIFO).
//! * **Aging** prevents starvation deterministically, without wall
//!   clocks: each job's heap rank is its admission sequence number
//!   minus `priority_level × aging_step`, so a low-priority job can be
//!   bypassed by at most `level_difference × aging_step` later
//!   admissions before it reaches the front.
//! * **Deadlines** are checked lazily at pop time: a job whose deadline
//!   has passed is not executed — its completion fires with the typed
//!   [`JobOutcome::Expired`]. (A result-cache hit is served even past
//!   the deadline, because it costs nothing; `deadline_ms = 0` on the
//!   wire therefore doubles as a cache-only probe.)
//! * **In-flight dedupe**: when several queued jobs name the same cache
//!   key, the first popped claims the key and simulates; the others
//!   attach as followers and complete — with the identical,
//!   deterministic result — the moment the claimer finishes. A claimer
//!   may reserve sibling keys in the same step (the other windows of its
//!   configuration, which its one run also answers); jobs of a reserved
//!   key follow the claimer just the same.
//!
//! The scheduler holds completion callbacks, not result slots: every
//! submitted job's completion fires exactly once (measured, cache hit,
//! follower, or expired), from whichever worker resolved it. That is
//! what lets the server stream `Partial` frame responses per job
//! while the rest of a request is still queued.

use std::collections::BinaryHeap;

use gals_common::fxmap::FxHashMap;
use std::str::FromStr;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::cache::CacheKey;
use crate::engine::MeasureItem;

/// Scheduling class of a job. Ordering is by urgency: `Low < Normal <
/// High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Bulk / background work (sweep backfills).
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work; jumps every queued `Normal`/`Low` job
    /// younger than the aging bound.
    High,
}

impl Priority {
    /// Numeric level used by the aging rank (0, 1, 2).
    pub fn level(self) -> i64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Stable wire/CLI key: `"low"`, `"normal"`, `"high"`.
    pub fn key(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!("unknown priority {other:?} (low|normal|high)")),
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// One schedulable unit of work: a measurement plus its scheduling
/// attributes.
#[derive(Debug, Clone)]
pub struct Job {
    /// What to measure (benchmark, machine, cache namespace).
    pub item: MeasureItem,
    /// Instruction window for this job (jobs in one queue may differ).
    pub window: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Absolute expiry instant; a job popped after this completes as
    /// [`JobOutcome::Expired`] instead of executing. `None` = run
    /// whenever reached.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag (e.g. a server connection's dead
    /// marker): a job popped after the flag is raised completes as
    /// [`JobOutcome::Expired`] without simulating, so a requester that
    /// went away doesn't keep burning workers on unwanted work.
    pub cancelled: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Opaque requester tag (the server puts the request id here); the
    /// scheduler never interprets it.
    pub tag: String,
}

impl Job {
    /// A normal-priority, deadline-free job.
    pub fn new(item: MeasureItem, window: u64) -> Self {
        Job {
            item,
            window,
            priority: Priority::Normal,
            deadline: None,
            cancelled: None,
            tag: String::new(),
        }
    }

    /// Sets the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `after` from now.
    #[must_use]
    pub fn with_deadline_in(self, after: Duration) -> Self {
        self.with_deadline(Instant::now() + after)
    }

    /// Attaches a shared cancellation flag.
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancelled = Some(flag);
        self
    }

    /// Sets the requester tag.
    #[must_use]
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// The result-cache key this job resolves through.
    pub fn cache_key(&self) -> CacheKey {
        self.item.cache_key(self.window)
    }

    /// True when the deadline (if any) has passed at `now`, or the
    /// cancellation flag (if any) has been raised — either way the job
    /// should resolve as [`JobOutcome::Expired`] instead of running.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
            || self
                .cancelled
                .as_ref()
                .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// How a job resolved. Exactly one outcome fires per submitted job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// The measurement completed (fresh simulation, in-flight follower,
    /// or cache hit).
    Completed {
        /// Deterministic runtime in nanoseconds.
        runtime_ns: f64,
        /// Served from the result cache without simulating.
        cached: bool,
    },
    /// The deadline passed before a worker reached the job.
    Expired,
    /// The simulation panicked (a model bug tripped by this particular
    /// configuration); the rest of the queue is unaffected.
    Panicked,
}

impl JobOutcome {
    /// The measured runtime, when one exists.
    pub fn runtime_ns(&self) -> Option<f64> {
        match self {
            JobOutcome::Completed { runtime_ns, .. } => Some(*runtime_ns),
            JobOutcome::Expired | JobOutcome::Panicked => None,
        }
    }
}

/// A job's completion callback. Fires exactly once, from whichever
/// worker thread resolved the job.
pub type Completion<'env> = Box<dyn FnOnce(Job, JobOutcome) + Send + 'env>;

struct Queued<'env> {
    /// Aging rank: `seq - level × aging_step`. Lower pops first.
    rank: i64,
    /// Admission sequence number (FIFO tie-break).
    seq: i64,
    job: Job,
    complete: Completion<'env>,
}

impl PartialEq for Queued<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.rank, self.seq) == (other.rank, other.seq)
    }
}

impl Eq for Queued<'_> {}

impl PartialOrd for Queued<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum; reverse so the smallest
        // (rank, seq) — highest effective priority, oldest first — wins.
        (other.rank, other.seq).cmp(&(self.rank, self.seq))
    }
}

struct SchedState<'env> {
    heap: BinaryHeap<Queued<'env>>,
    /// Cache-key string → followers waiting on the in-flight claimer
    /// (Fx-hashed: keys are trusted, internally generated strings probed
    /// on every pop).
    inflight: FxHashMap<String, Vec<(Job, Completion<'env>)>>,
    /// Next admission sequence number. Lives under the state mutex on
    /// purpose: the FIFO tie-break is only correct because sequence
    /// assignment and heap insertion are one critical section.
    seq: i64,
    closed: bool,
}

/// What [`JobScheduler::claim`] decided for a popped job.
// A `Claim` lives only for the popped job's resolution, one at a time
// per worker; boxing the `Run` payload would cost an allocation per
// executed job for no aliveness win.
#[allow(clippy::large_enum_variant)]
pub enum Claim<'env> {
    /// The caller owns the key and the reserved sibling keys listed:
    /// execute, then [`JobScheduler::release`] each of them.
    Run(Job, Completion<'env>, Vec<CacheKey>),
    /// Another worker is already measuring this key; the job was
    /// attached as a follower and will complete when the claimer
    /// releases. The caller moves on.
    Follower,
}

impl std::fmt::Debug for Claim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Claim::Run(job, _, reserved) => f
                .debug_tuple("Run")
                .field(&job.tag)
                .field(reserved)
                .finish(),
            Claim::Follower => f.write_str("Follower"),
        }
    }
}

/// The shared priority/deadline job queue (see [module docs](self)).
///
/// All methods take `&self`; one scheduler is shared by every admitting
/// connection and every worker. The lifetime parameter bounds the
/// completion callbacks: a long-lived server uses
/// `JobScheduler<'static>`, a batch run borrows its result buffers.
pub struct JobScheduler<'env> {
    state: Mutex<SchedState<'env>>,
    cv: Condvar,
    aging_step: i64,
}

impl std::fmt::Debug for JobScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler")
            .field("aging_step", &self.aging_step)
            .field("queued", &self.len())
            .finish_non_exhaustive()
    }
}

impl Default for JobScheduler<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'env> JobScheduler<'env> {
    /// Default aging step: a queued job is bypassed by at most
    /// `level_difference × 1024` later admissions before it runs.
    pub const DEFAULT_AGING_STEP: u64 = 1024;

    /// A scheduler with the default aging step.
    pub fn new() -> Self {
        Self::with_aging_step(Self::DEFAULT_AGING_STEP)
    }

    /// A scheduler whose aging step is `step` admissions per priority
    /// level (0 would make priorities pure FIFO; small values age
    /// aggressively — tests use them to exercise the crossover).
    pub fn with_aging_step(step: u64) -> Self {
        // Clamped so `level × step` (level ≤ 2) can never overflow the
        // i64 rank arithmetic, even for an absurd operator-supplied
        // step — past this bound aging is unreachable anyway.
        let step = step.min(i64::MAX as u64 / 4);
        JobScheduler {
            state: Mutex::new(SchedState {
                heap: BinaryHeap::new(),
                inflight: FxHashMap::default(),
                seq: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            aging_step: step as i64,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState<'env>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queued (not yet popped) job count.
    pub fn len(&self) -> usize {
        self.lock().heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits one job. Returns `false` (dropping the completion) when
    /// the scheduler is closed.
    pub fn submit(&self, job: Job, complete: impl FnOnce(Job, JobOutcome) + Send + 'env) -> bool {
        self.submit_batch(vec![(job, Box::new(complete) as Completion<'env>)])
    }

    /// Admits a batch of jobs atomically: either every job is queued
    /// (returns `true`) or the scheduler was already closed and none
    /// are (returns `false`). A request's jobs are admitted through
    /// this so shutdown can never strand a half-admitted request.
    pub fn submit_batch(&self, jobs: Vec<(Job, Completion<'env>)>) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        for (job, complete) in jobs {
            let seq = st.seq;
            st.seq += 1;
            let rank = seq - job.priority.level() * self.aging_step;
            st.heap.push(Queued {
                rank,
                seq,
                job,
                complete,
            });
        }
        drop(st);
        self.cv.notify_all();
        true
    }

    /// Pops the highest-ranked job, blocking while the queue is empty
    /// and the scheduler is open. Returns `None` once the scheduler is
    /// closed *and* drained — the worker-loop exit condition.
    pub fn pop(&self) -> Option<(Job, Completion<'env>)> {
        let mut st = self.lock();
        loop {
            if let Some(q) = st.heap.pop() {
                return Some((q.job, q.complete));
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Claims `key` for execution, or attaches the job as a follower of
    /// the worker already measuring it. A claimer also reserves, in the
    /// same critical section, every key of `siblings` that no worker
    /// holds: later jobs of a reserved key attach as its followers, and
    /// the claimer releases it like its own. Because the claim and the
    /// reservations are one step, the first job of a sibling group to
    /// claim takes every free key of the group, whatever the timing.
    pub fn claim(
        &self,
        key: &str,
        mut siblings: Vec<CacheKey>,
        job: Job,
        complete: Completion<'env>,
    ) -> Claim<'env> {
        let mut st = self.lock();
        if let Some(followers) = st.inflight.get_mut(key) {
            followers.push((job, complete));
            return Claim::Follower;
        }
        st.inflight.insert(key.to_string(), Vec::new());
        siblings.retain(|k| {
            k.as_str() != key && {
                let free = !st.inflight.contains_key(k.as_str());
                if free {
                    st.inflight.insert(k.as_str().to_string(), Vec::new());
                }
                free
            }
        });
        Claim::Run(job, complete, siblings)
    }

    /// Releases a claimed key, returning every follower that attached
    /// while the claimer was measuring (the claimer fires their
    /// completions with its result).
    pub fn release(&self, key: &str) -> Vec<(Job, Completion<'env>)> {
        self.lock().inflight.remove(key).unwrap_or_default()
    }

    /// Closes the queue: no further admissions; blocked
    /// [`pop`](Self::pop)s return once the heap drains. Already-queued
    /// jobs still execute (or expire at their deadlines) — graceful
    /// shutdown drains-or-expires, it never silently drops.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gals_core::SyncConfig;
    use gals_workloads::suite;

    fn job(tag: &str, priority: Priority) -> Job {
        job_on("adpcm_encode", tag, priority)
    }

    fn job_on(bench: &str, tag: &str, priority: Priority) -> Job {
        let item = MeasureItem::sync(suite::by_name(bench).unwrap(), SyncConfig::paper_best());
        Job::new(item, 1_000).with_priority(priority).with_tag(tag)
    }

    fn pop_tags(sched: &JobScheduler<'_>) -> Vec<String> {
        let mut tags = Vec::new();
        while let Some((job, _)) = {
            sched.close();
            sched.pop()
        } {
            tags.push(job.tag);
        }
        tags
    }

    #[test]
    fn priority_classes_order_the_queue() {
        let sched = JobScheduler::new();
        for (tag, p) in [
            ("n1", Priority::Normal),
            ("h1", Priority::High),
            ("l1", Priority::Low),
            ("n2", Priority::Normal),
            ("h2", Priority::High),
        ] {
            assert!(sched.submit(job(tag, p), |_, _| {}));
        }
        // High first, then Normal, then Low; FIFO inside each class.
        assert_eq!(pop_tags(&sched), ["h1", "h2", "n1", "n2", "l1"]);
    }

    #[test]
    fn aging_bounds_how_long_a_low_job_waits() {
        // With step 4, a Low job (level 0) is bypassed by at most
        // 2 × 4 = 8 later High admissions (level 2) before its rank
        // wins the tie and seniority breaks it.
        let sched = JobScheduler::with_aging_step(4);
        assert!(sched.submit(job("low", Priority::Low), |_, _| {}));
        for i in 0..12 {
            assert!(sched.submit(job(&format!("h{i}"), Priority::High), |_, _| {}));
        }
        let tags = pop_tags(&sched);
        let low_pos = tags.iter().position(|t| t == "low").unwrap();
        assert_eq!(
            low_pos, 7,
            "low job admitted first runs after exactly 2×step highs: {tags:?}"
        );
    }

    #[test]
    fn zero_aging_step_is_pure_fifo() {
        let sched = JobScheduler::with_aging_step(0);
        assert!(sched.submit(job("l", Priority::Low), |_, _| {}));
        assert!(sched.submit(job("h", Priority::High), |_, _| {}));
        assert_eq!(pop_tags(&sched), ["l", "h"]);
    }

    #[test]
    fn closed_scheduler_rejects_admissions_atomically() {
        let sched = JobScheduler::new();
        assert!(sched.submit(job("a", Priority::Normal), |_, _| {}));
        sched.close();
        assert!(!sched.submit(job("b", Priority::Normal), |_, _| {}));
        assert!(!sched.submit_batch(vec![(
            job("c", Priority::Normal),
            Box::new(|_, _| {}) as Completion<'_>,
        )]));
        // The pre-close job still drains.
        assert_eq!(pop_tags(&sched), ["a"]);
    }

    #[test]
    fn claim_and_release_dedupe_in_flight_keys() {
        let sched = JobScheduler::new();
        let a = job("a", Priority::Normal);
        let b = job("b", Priority::Normal);
        let key = a.cache_key();
        let first = sched.claim(key.as_str(), Vec::new(), a, Box::new(|_, _| {}));
        assert!(matches!(first, Claim::Run(..)));
        let second = sched.claim(key.as_str(), Vec::new(), b, Box::new(|_, _| {}));
        assert!(matches!(second, Claim::Follower));
        let followers = sched.release(key.as_str());
        assert_eq!(followers.len(), 1);
        assert_eq!(followers[0].0.tag, "b");
        // Key is free again.
        assert!(matches!(
            sched.claim(
                key.as_str(),
                Vec::new(),
                job("c", Priority::Normal),
                Box::new(|_, _| {})
            ),
            Claim::Run(..)
        ));
    }

    #[test]
    fn claim_reserves_free_siblings_in_one_step() {
        let sched = JobScheduler::new();
        let short = job("short", Priority::Normal);
        let item = short.item.clone();
        let (k1, k2, k3) = (
            item.cache_key(1_000),
            item.cache_key(2_000),
            item.cache_key(3_000),
        );
        // Another worker already measures the 3,000 window.
        let other = sched.claim(
            k3.as_str(),
            Vec::new(),
            Job::new(item.clone(), 3_000),
            Box::new(|_, _| {}),
        );
        assert!(matches!(other, Claim::Run(..)));
        let siblings = vec![k1.clone(), k2.clone(), k3.clone()];
        let Claim::Run(_, _, reserved) =
            sched.claim(k1.as_str(), siblings, short, Box::new(|_, _| {}))
        else {
            panic!("a free key must be claimed");
        };
        assert_eq!(
            reserved,
            std::slice::from_ref(&k2),
            "own and held keys are not reserved"
        );
        // A job of the reserved key follows the reserving claimer.
        let long = Job::new(item, 2_000).with_tag("long");
        assert!(matches!(
            sched.claim(k2.as_str(), vec![k1], long, Box::new(|_, _| {})),
            Claim::Follower
        ));
        let followers = sched.release(k2.as_str());
        assert_eq!(followers.len(), 1);
        assert_eq!(followers[0].0.tag, "long");
    }

    #[test]
    fn deadlines_are_detected_lazily() {
        let past = Instant::now() - Duration::from_millis(1);
        let expired = job("e", Priority::Normal).with_deadline(past);
        assert!(expired.expired_at(Instant::now()));
        let fresh = job("f", Priority::Normal).with_deadline_in(Duration::from_secs(3600));
        assert!(!fresh.expired_at(Instant::now()));
        let none = job("n", Priority::Normal);
        assert!(!none.expired_at(Instant::now()));
    }

    #[test]
    fn blocked_pop_wakes_on_submit() {
        let sched = std::sync::Arc::new(JobScheduler::with_aging_step(4));
        let popper = {
            let sched = std::sync::Arc::clone(&sched);
            std::thread::spawn(move || sched.pop().map(|(j, _)| j.tag))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(sched.submit(job("wake", Priority::Low), |_, _| {}));
        assert_eq!(popper.join().unwrap().as_deref(), Some("wake"));
    }
}
