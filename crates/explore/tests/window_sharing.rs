//! Integration tests for window sharing: a batch that measures one
//! configuration at several windows simulates it once, to the largest
//! window, and answers every shorter window from the same run. The
//! shared answers must be **bit-identical** to running each key alone
//! (`with_interval_memo_snaps(0)`), on both simulator loops, and the
//! work done must not depend on the worker count or timing — a
//! (benchmark, config, window) runtime is a pure function of its
//! inputs, and the engine's counters are how a benchmark tells two
//! runs of the same code apart.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gals_explore::{ControlPolicy, McdConfig, SyncConfig};
use gals_explore::{Job, JobOutcome, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::suite;

/// Configurations over three benchmarks — sync, program-adaptive and
/// phase-adaptive — each at three windows, in an order that interleaves
/// configurations and puts a long window first for some of them. The
/// 4,500 window crosses the memo's first snapshot point.
fn mixed_window_jobs() -> Vec<Job> {
    let mut items = Vec::new();
    for bench in ["adpcm_encode", "gzip", "art"] {
        let spec = suite::by_name(bench).expect("benchmark in suite");
        for cfg in SyncConfig::enumerate().into_iter().step_by(401) {
            items.push(MeasureItem::sync(spec.clone(), cfg));
        }
        items.push(MeasureItem::program(spec.clone(), McdConfig::smallest()));
        items.push(MeasureItem::phase(spec.clone(), ControlPolicy::PaperArgmin));
    }
    let mut jobs = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let mut windows = [900u64, 2_500, 4_500];
        windows.rotate_left(i % 3);
        for w in windows {
            jobs.push(Job::new(item.clone(), w));
        }
    }
    let n = jobs.len();
    jobs.rotate_left(n / 3);
    jobs
}

/// Runtimes of `jobs` on `engine`, in submission order.
fn run(engine: &SweepEngine, jobs: Vec<Job>) -> Vec<Option<f64>> {
    engine
        .run_jobs(jobs, |_, _| {})
        .into_iter()
        .map(|o| o.runtime_ns())
        .collect()
}

fn unshared() -> SweepEngine {
    SweepEngine::new(ResultCache::in_memory()).with_interval_memo_snaps(0)
}

#[test]
fn sharing_is_bit_identical_to_unshared_runs() {
    let baseline = run(&unshared().with_threads(1), mixed_window_jobs());
    assert!(baseline.iter().all(|ns| ns.is_some_and(|ns| ns > 0.0)));
    for threads in [1, 2] {
        let shared = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
        let got = run(&shared, mixed_window_jobs());
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|ns| ns.map(f64::to_bits)).collect()
        };
        assert_eq!(
            bits(&baseline),
            bits(&got),
            "{threads} workers: a shared window diverged from its unshared run"
        );
        assert!(shared.interval_memo_hits() > 0, "no window was shared");
    }
}

#[test]
fn sharing_matches_unshared_under_the_reference_loop() {
    // Fewer jobs: the reference loop is an order of magnitude slower
    // and the property is per configuration, not per batch size.
    let jobs: Vec<Job> = mixed_window_jobs().into_iter().step_by(2).collect();
    let a = run(
        &unshared().with_threads(1).with_reference_simulator(),
        jobs.clone(),
    );
    let shared = SweepEngine::new(ResultCache::in_memory())
        .with_threads(2)
        .with_reference_simulator();
    let b = run(&shared, jobs);
    assert_eq!(a, b, "reference-loop sharing diverged from unshared runs");
    assert!(shared.interval_memo_hits() > 0);
}

/// Distinct cache keys and distinct configurations among `jobs`.
fn distinct(jobs: &[Job]) -> (u64, u64) {
    let keys: BTreeMap<String, ()> = jobs
        .iter()
        .map(|j| (j.cache_key().as_str().to_string(), ()))
        .collect();
    let configs: BTreeMap<String, ()> = jobs
        .iter()
        .map(|j| (j.item.cache_key(0).as_str().to_string(), ()))
        .collect();
    (keys.len() as u64, configs.len() as u64)
}

#[test]
fn simulated_count_equals_distinct_keys() {
    let mut jobs = mixed_window_jobs();
    // Duplicates of a few keys, late in the batch: in-flight followers
    // or cache hits, never a second simulation.
    let dups: Vec<Job> = jobs.iter().step_by(7).cloned().collect();
    jobs.extend(dups);
    let (keys, configs) = distinct(&jobs);
    let shared = SweepEngine::new(ResultCache::in_memory()).with_threads(2);
    let unshared = unshared().with_threads(2);
    assert_eq!(run(&shared, jobs.clone()), run(&unshared, jobs.clone()));
    assert_eq!(shared.simulated_count(), keys);
    assert_eq!(unshared.simulated_count(), keys);
    // One run per configuration answered every other window.
    assert_eq!(shared.interval_memo_hits(), keys - configs);
    assert_eq!(unshared.interval_memo_hits(), 0);
    // The warm pass is all cache hits.
    let warm = run(&shared, jobs.clone());
    assert!(warm.iter().all(Option::is_some));
    assert_eq!(shared.simulated_count(), keys);
}

#[test]
fn memo_hits_repeat_across_thread_counts_and_runs() {
    let jobs = mixed_window_jobs();
    let (keys, configs) = distinct(&jobs);
    for threads in [1, 2, 4] {
        for repeat in 0..5 {
            let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
            run(&engine, jobs.clone());
            assert_eq!(
                (engine.interval_memo_hits(), engine.simulated_count()),
                (keys - configs, keys),
                "{threads} workers, repeat {repeat}: sharing depended on timing"
            );
        }
    }
}

#[test]
fn cache_hits_repeat_across_thread_counts_and_runs() {
    // Every third job twice more, right behind it: with several workers
    // a duplicate may wait on the run in flight for its key or find the
    // result already cached, and the two must count alike.
    let mut jobs = Vec::new();
    for (i, job) in mixed_window_jobs().into_iter().enumerate() {
        let copies = if i % 3 == 0 { 3 } else { 1 };
        jobs.extend(std::iter::repeat_n(job, copies));
    }
    let (keys, _) = distinct(&jobs);
    let n = jobs.len() as u64;
    for threads in [1, 2, 4] {
        for repeat in 0..5 {
            let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
            run(&engine, jobs.clone());
            assert_eq!(
                (engine.cache_hit_count(), engine.simulated_count()),
                (n - keys, keys),
                "{threads} workers, repeat {repeat}: hits depended on timing"
            );
        }
    }
}

#[test]
fn reserved_key_followers_resolve_exactly_once() {
    // One configuration at two windows: whichever job claims first
    // reserves the other key, so the duplicates, the expired and the
    // cancelled jobs of either key meet a reserved claim, a cache hit or
    // their own expiry. Each must resolve exactly once.
    let spec = suite::by_name("power").expect("benchmark in suite");
    let item = MeasureItem::sync(spec, SyncConfig::paper_best());
    let (short, long) = (1_000u64, 12_000u64);
    let cancelled = Arc::new(AtomicBool::new(true));
    let jobs = vec![
        Job::new(item.clone(), short).with_tag("short"),
        Job::new(item.clone(), long).with_tag("dup-long"),
        Job::new(item.clone(), short).with_tag("dup-short"),
        Job::new(item.clone(), long)
            .with_deadline(Instant::now())
            .with_tag("expired"),
        Job::new(item.clone(), long)
            .with_cancel_flag(cancelled)
            .with_tag("cancelled"),
        Job::new(item.clone(), long)
            .with_deadline_in(Duration::from_millis(5))
            .with_tag("expiring"),
        Job::new(item.clone(), long).with_tag("long"),
    ];
    let tags: Vec<String> = jobs.iter().map(|j| j.tag.clone()).collect();
    let expect = |w: u64| {
        unshared()
            .run_jobs(vec![Job::new(item.clone(), w)], |_, _| {})
            .remove(0)
    };
    let (want_short, want_long) = (expect(short), expect(long));

    let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(2);
    let fired = Mutex::new(vec![0u32; jobs.len()]);
    let outcomes = engine.run_jobs(jobs, |i, _| {
        fired.lock().unwrap_or_else(|e| e.into_inner())[i] += 1;
    });
    assert_eq!(fired.into_inner().unwrap(), vec![1; tags.len()]);
    let value = |o: &JobOutcome| o.runtime_ns().map(f64::to_bits);
    for (tag, outcome) in tags.iter().zip(&outcomes) {
        match tag.as_str() {
            "expired" | "cancelled" => assert_eq!(*outcome, JobOutcome::Expired, "{tag}"),
            "expiring" => assert!(
                *outcome == JobOutcome::Expired || value(outcome) == value(&want_long),
                "{tag}: {outcome:?}"
            ),
            "short" | "dup-short" => assert_eq!(value(outcome), value(&want_short), "{tag}"),
            _ => assert_eq!(value(outcome), value(&want_long), "{tag}"),
        }
    }
    assert_eq!(engine.simulated_count(), 2);
    assert_eq!(engine.interval_memo_hits(), 1);
}

#[test]
fn sharing_survives_disabled_trace_pool() {
    // With no recording to pause over, each window runs alone on a live
    // stream: results unchanged, no pool traffic, nothing shared.
    let jobs: Vec<Job> = mixed_window_jobs().into_iter().take(9).collect();
    let (keys, _) = distinct(&jobs);
    let engine = SweepEngine::new(ResultCache::in_memory())
        .with_threads(2)
        .without_trace_pool();
    let a = run(&engine, jobs.clone());
    let b = run(&unshared().with_threads(1), jobs);
    assert_eq!(a, b);
    assert_eq!(engine.trace_pool_builds(), 0);
    assert_eq!(engine.trace_pool_hits(), 0);
    assert_eq!(engine.simulated_count(), keys);
    assert_eq!(engine.interval_memo_hits(), 0);
}

#[test]
fn later_requests_splice_memoized_snapshots() {
    // Sharing cannot reach across batches; the memo does. After one run
    // of a configuration has reached past a snapshot point, the next
    // run leaves a snapshot there and a later, shorter-but-longer-than-
    // the-point run splices it instead of re-simulating the prefix.
    let spec = suite::by_name("gzip").expect("benchmark in suite");
    let item = MeasureItem::phase(spec, ControlPolicy::PaperArgmin);
    let engine = SweepEngine::new(ResultCache::in_memory());
    let mut got = Vec::new();
    for (i, w) in [5_000u64, 9_000, 7_000].into_iter().enumerate() {
        got.push(run(&engine, vec![Job::new(item.clone(), w)])[0]);
        let stores = engine.interval_memo_stores();
        match i {
            0 => assert_eq!(stores, 0, "a first run has no reach to justify a snapshot"),
            1 => assert!(stores >= 1, "the second run past 4,096 commits keeps one"),
            _ => assert_eq!(engine.interval_memo_hits(), 1, "the third run splices it"),
        }
    }
    let want = run(
        &unshared(),
        [5_000u64, 9_000, 7_000]
            .into_iter()
            .map(|w| Job::new(item.clone(), w))
            .collect(),
    );
    assert_eq!(got, want, "a spliced run diverged from running alone");
}
