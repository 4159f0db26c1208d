//! Integration tests for sweep-wide trace sharing: a trace-pooled sweep
//! must be **bit-identical** to a per-job-stream sweep, under both
//! simulator loops, across heterogeneous job batches — because the
//! paper's methodology (and the result cache) assume a (benchmark,
//! config, window) runtime is a pure function of its inputs, however
//! the instruction stream happened to be supplied.

use gals_core::MachineConfig;
use gals_explore::{Job, MeasureItem, Priority, ResultCache, SweepEngine};
use gals_explore::{McdConfig, SyncConfig};
use gals_workloads::suite;

/// A small mixed work list: several sync configs and one program-mode
/// config over a few benchmarks (enough duplicates of each benchmark
/// for pooling to actually be exercised).
fn work_list() -> Vec<MeasureItem> {
    let benches = ["adpcm_encode", "gzip", "art"];
    let configs: Vec<SyncConfig> = SyncConfig::enumerate().into_iter().step_by(97).collect();
    let mut work = Vec::new();
    for bench in benches {
        let spec = suite::by_name(bench).expect("benchmark in suite");
        for cfg in &configs {
            work.push(MeasureItem::sync(spec.clone(), *cfg));
        }
        work.push(MeasureItem::program(spec.clone(), McdConfig::smallest()));
    }
    work
}

#[test]
fn pooled_sweep_is_bit_identical_to_per_job_streams_fast_loop() {
    let work = work_list();
    let unpooled = SweepEngine::new(ResultCache::in_memory()).without_trace_pool();
    let b = unpooled.measure(&work, 1_200);
    assert_eq!(unpooled.trace_pool_builds(), 0);
    // Captures are single-flight, so the exact build/hit counts hold
    // with concurrent workers too.
    for threads in [1, 2] {
        let pooled = SweepEngine::new(ResultCache::in_memory()).with_threads(threads);
        let a = pooled.measure(&work, 1_200);
        assert_eq!(a, b, "trace pooling changed a measured runtime");
        assert!(a.iter().all(|ns| ns.is_finite() && *ns > 0.0));

        // Pooling actually happened: one capture per distinct benchmark,
        // every remaining simulation replayed shared storage.
        assert_eq!(pooled.trace_pool_builds(), 3, "{threads} workers");
        assert_eq!(
            pooled.trace_pool_hits(),
            pooled.simulated_count() - 3,
            "{threads} workers: every non-capturing run must hit the pool"
        );
    }
}

#[test]
fn pooled_sweep_is_bit_identical_to_per_job_streams_reference_loop() {
    // Smaller work list: the reference loop is an order of magnitude
    // slower and the property is per-run, not per-batch-size.
    let work: Vec<MeasureItem> = work_list().into_iter().step_by(3).collect();
    let pooled = SweepEngine::new(ResultCache::in_memory()).with_reference_simulator();
    let unpooled = SweepEngine::new(ResultCache::in_memory())
        .with_reference_simulator()
        .without_trace_pool();
    let a = pooled.measure(&work, 800);
    let b = unpooled.measure(&work, 800);
    assert_eq!(a, b, "reference-loop pooling changed a measured runtime");
    assert!(pooled.trace_pool_hits() > 0);
}

#[test]
fn pooling_is_invisible_to_heterogeneous_job_batches() {
    // Mixed windows and priorities through the scheduler path
    // (run_jobs), not just the homogeneous measure() wrapper: the pool
    // must serve each window length its required recording.
    let spec = suite::by_name("power").expect("benchmark in suite");
    let jobs = |engine: &SweepEngine| {
        let mk = |key: &str, window: u64, prio: Priority| {
            Job::new(
                MeasureItem::custom(
                    spec.clone(),
                    "pool-itest",
                    key.to_string(),
                    MachineConfig::best_synchronous(),
                ),
                window,
            )
            .with_priority(prio)
        };
        engine.run_jobs(
            vec![
                mk("w-small", 500, Priority::Low),
                mk("w-large", 3_000, Priority::High),
                mk("w-mid", 1_500, Priority::Normal),
            ],
            |_, _| {},
        )
    };
    let pooled = SweepEngine::new(ResultCache::in_memory());
    let unpooled = SweepEngine::new(ResultCache::in_memory()).without_trace_pool();
    let a: Vec<f64> = jobs(&pooled)
        .into_iter()
        .map(|o| o.runtime_ns().unwrap())
        .collect();
    let b: Vec<f64> = jobs(&unpooled)
        .into_iter()
        .map(|o| o.runtime_ns().unwrap())
        .collect();
    assert_eq!(a, b);
}
