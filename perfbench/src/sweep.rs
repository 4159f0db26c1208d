//! `sweep-sync`: a synchronous design-space campaign.
//!
//! The 128-configuration `in_sync_winner_subset` runs on four
//! benchmarks, compute-bound to memory-bound, at two windows, the
//! longer twice the shorter so that the interval memo splices the
//! shared prefix. Each benchmark's jobs form one batch, with seeded
//! duplicates of some jobs inserted later in it (in-flight dedupe or
//! cache hits). A round submits one benchmark's batch cold to a fresh
//! engine over a fresh in-memory cache, then submits the identical
//! batch again warm; rounds cycle through the benchmarks, and a run
//! ends on a whole cycle.

use std::time::Instant;

use gals_common::fxmap::FxHashSet;
use gals_common::SplitMix64;
use gals_core::{CoreParams, SyncConfig};
use gals_explore::{in_sync_winner_subset, Job, JobOutcome, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::{suite, BenchmarkSpec};

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::{checks, probe, sample_indices, stats, write_trace, Params, Size, WORKERS};

/// Engine workers: [`WORKERS`]. With two, the interval memo's splices
/// depend on which jobs happen to run at the same time (180 to 239 of
/// 256 per batch on the reference host), so the simulated work changes
/// from round to round; the timed phase's total over some twenty rounds
/// is steady all the same. With one worker every round splices 256,
/// but its time depends on the one vCPU it runs on: the rate of five
/// one-worker runs spread 15.8 % (interquartile, of the median) against
/// 3.0 % for five two-worker runs.
pub const ENGINE_WORKERS: usize = WORKERS;

/// The workload's make-up at one size.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Benchmarks, compute-bound to memory-bound: one batch each.
    pub benches: &'static [&'static str],
    /// Configurations of the winner subset used (128 = all).
    pub configs: usize,
    /// The two windows (short, long).
    pub windows: [u64; 2],
    /// Duplicate jobs inserted per batch.
    pub dups: usize,
    /// Jobs per batch checked against a direct `Simulator::run`.
    pub sample: usize,
}

impl Shape {
    /// The shape at `size`.
    pub fn of(size: Size) -> Shape {
        match size {
            Size::Full => Shape {
                benches: &["adpcm_encode", "gzip", "art", "mst"],
                configs: 128,
                windows: [8_192, 16_384],
                dups: 16,
                sample: 96,
            },
            Size::Tiny => Shape {
                benches: &["adpcm_encode", "art"],
                configs: 4,
                windows: [4_096, 8_192],
                dups: 2,
                sample: 2,
            },
        }
    }
}

/// One benchmark's seeded batch: its distinct jobs, every
/// (configuration, window) in campaign order, and the submission
/// order, which adds `dups` seeded duplicates each at a seeded
/// position after its original.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The distinct jobs: (item, window).
    pub jobs: Vec<(MeasureItem, u64)>,
    /// Submission order, as indices into `jobs`.
    pub order: Vec<usize>,
}

impl Batch {
    /// Benchmark `spec`'s batch at `shape`, with duplicates drawn from
    /// `rng`.
    pub fn new(shape: &Shape, spec: &BenchmarkSpec, rng: &mut SplitMix64) -> Batch {
        let mut jobs = Vec::new();
        for cfg in SyncConfig::enumerate()
            .into_iter()
            .filter(in_sync_winner_subset)
            .take(shape.configs)
        {
            for w in shape.windows {
                jobs.push((MeasureItem::sync(spec.clone(), cfg), w));
            }
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        for _ in 0..shape.dups {
            let i = rng.next_below(jobs.len() as u64) as usize;
            let pos = order
                .iter()
                .position(|&j| j == i)
                .expect("original present");
            let at = rng.next_range(pos as u64 + 1, order.len() as u64) as usize;
            order.insert(at, i);
        }
        Batch { jobs, order }
    }

    /// The jobs to submit, in submission order.
    pub fn submit(&self) -> Vec<Job> {
        self.order
            .iter()
            .map(|&i| Job::new(self.jobs[i].0.clone(), self.jobs[i].1))
            .collect()
    }

    /// Instructions the batch's distinct jobs simulate.
    pub fn insts(&self) -> u64 {
        self.jobs.iter().map(|(_, w)| *w).sum()
    }

    /// Each distinct job's value from one submission's outcomes (NaN
    /// where it failed); a duplicate must return its original's value.
    fn values(&self, outcomes: &[JobOutcome], out: &mut Outcome) -> Vec<f64> {
        let mut v = vec![f64::NAN; self.jobs.len()];
        for (&i, o) in self.order.iter().zip(outcomes) {
            match (completed(o), v[i].is_nan()) {
                (Some((ns, _)), true) => v[i] = ns,
                (Some((ns, _)), false) => out.check(checks::bit_equal(
                    &format!("duplicate of job {i}"),
                    ns,
                    v[i],
                )),
                (None, _) => out.failed += 1,
            }
        }
        v
    }
}

fn completed(outcome: &JobOutcome) -> Option<(f64, bool)> {
    match outcome {
        JobOutcome::Completed { runtime_ns, cached } => Some((*runtime_ns, *cached)),
        JobOutcome::Expired | JobOutcome::Panicked => None,
    }
}

/// The sum over batches of each batch's mean time: the time of one
/// whole four-benchmark campaign, the timed phase's total over its
/// cycles.
fn campaign_s(per_batch: &[Vec<f64>]) -> f64 {
    per_batch.iter().map(|t| stats::mean(t)).sum()
}

/// Runs `sweep-sync`.
pub fn run(p: &Params) -> Outcome {
    let shape = Shape::of(p.size);
    let tracer = Tracer::new(p.trace);
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(p.seed ^ 0x5EE9_5C0F);
    let specs: Vec<BenchmarkSpec> = shape
        .benches
        .iter()
        .map(|b| suite::by_name(b).expect("suite benchmark"))
        .collect();
    let batches: Vec<Batch> = specs
        .iter()
        .map(|spec| Batch::new(&shape, spec, &mut rng))
        .collect();
    let decode = CoreParams::default().decode_width;

    // Set-up: the expected values of a seeded sample of every batch,
    // from a direct `Simulator::run` on the benchmark's live stream.
    let sample: Vec<(usize, usize)> = batches
        .iter()
        .enumerate()
        .flat_map(|(b, batch)| {
            sample_indices(&mut rng, batch.jobs.len(), shape.sample)
                .into_iter()
                .map(move |i| (b, i))
        })
        .collect();
    let direct: Vec<probe::DirectRun> = probe::par_map(&sample, WORKERS, |&(b, i)| {
        let (item, w) = &batches[b].jobs[i];
        tracer.span("core.run", None, i as u64, |_| probe::direct(item, *w))
    });
    for (&(b, i), run) in sample.iter().zip(&direct) {
        let (item, w) = &batches[b].jobs[i];
        out.check(checks::sim_result(
            item.cache_key(*w).as_str(),
            &run.result,
            *w,
            decode,
            true,
        ));
    }
    let setup_s = p.started.elapsed().as_secs_f64();

    let unique: Vec<usize> = batches
        .iter()
        .map(|batch| {
            batch
                .submit()
                .iter()
                .map(|job| job.cache_key().as_str().to_string())
                .collect::<FxHashSet<String>>()
                .len()
        })
        .collect();
    let n = batches.len();
    let mut first: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut untraced_cold = vec![Vec::new(); n];
    let mut traced_cold = vec![Vec::new(); n];
    let mut warm_ms = vec![Vec::new(); n];
    let mut engines: Vec<Option<SweepEngine>> = (0..n).map(|_| None).collect();
    let mut rounds = 0usize;
    let untraced = Tracer::new(false);
    let t0 = Instant::now();
    loop {
        let b = rounds % n;
        let batch = &batches[b];
        // The traced run alternates untraced and traced cycles, so the
        // two can be compared for tracing overhead within one process.
        let traced = p.trace && (rounds / n) % 2 == 1;
        let tr = if traced { &tracer } else { &untraced };
        let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(ENGINE_WORKERS);
        let (cold, warm, c_s, w_s) = tr.span("round", None, rounds as u64, |root| {
            let t = Instant::now();
            let cold = tr.span("engine.run_jobs", root, 0, |_| {
                engine.run_jobs(batch.submit(), |_, _| {})
            });
            let c_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let warm = tr.span("engine.run_jobs", root, 1, |_| {
                engine.run_jobs(batch.submit(), |_, _| {})
            });
            (cold, warm, c_s, t.elapsed().as_secs_f64())
        });
        rounds += 1;
        eprintln!(
            "perfbench: round {rounds} ({}): cold {c_s:.3} s, warm {:.2} ms, memo hits {}",
            shape.benches[b],
            w_s * 1e3,
            engine.interval_memo_hits()
        );
        if traced {
            traced_cold[b].push(c_s);
        } else {
            untraced_cold[b].push(c_s);
        }
        warm_ms[b].push(w_s * 1e3);

        let values = batch.values(&cold, &mut out);
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            match (completed(c), completed(w)) {
                (Some((cv, _)), Some((wv, true))) => {
                    out.check(checks::bit_equal(&format!("warm job {i}"), wv, cv))
                }
                (Some(_), Some((_, false))) => {
                    out.check(Err(format!("warm job {i} was simulated again")))
                }
                (_, None) => out.failed += 1,
                (None, Some(_)) => {}
            }
        }
        if engine.simulated_count() != unique[b] as u64 {
            out.check(Err(format!(
                "{}: engine simulated {} jobs for {} distinct (configuration, window) keys",
                shape.benches[b],
                engine.simulated_count(),
                unique[b]
            )));
        }
        match &first[b] {
            None => {
                for (&(_, i), run) in sample.iter().zip(&direct).filter(|((sb, _), _)| *sb == b) {
                    out.check(checks::bit_equal(
                        &format!("{} sweep job {i} vs direct", shape.benches[b]),
                        values[i],
                        run.result.runtime_ns(),
                    ));
                }
                first[b] = Some(values);
            }
            Some(f) => {
                if f.iter()
                    .zip(&values)
                    .any(|(a, v)| a.to_bits() != v.to_bits())
                {
                    out.check(Err(format!(
                        "round {rounds}: {} returned other values than its first round",
                        shape.benches[b]
                    )));
                }
            }
        }
        if p.trace {
            engines[b] = Some(engine);
        }
        let whole_cycle = rounds.is_multiple_of(n);
        if whole_cycle && t0.elapsed().as_secs_f64() >= p.seconds && (!p.trace || rounds >= 2 * n) {
            break;
        }
    }
    let submitted: usize = batches.iter().map(|b| b.order.len()).sum();
    out.attempted = (rounds / n * 2 * submitted) as u64;
    let insts: u64 = batches.iter().map(Batch::insts).sum();

    if !p.trace {
        out.set("setup_s", setup_s);
        out.set(
            "sim_minst_per_s",
            insts as f64 / campaign_s(&untraced_cold) / 1e6,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // Per-layer metrics of the traced run; engine counts are those of
    // the last cycle's engines, one whole campaign.
    let engines: Vec<SweepEngine> = engines.into_iter().flatten().collect();
    let count = |f: fn(&SweepEngine) -> u64| engines.iter().map(f).sum::<u64>() as f64;
    out.set("engine.simulated", count(SweepEngine::simulated_count));
    out.set("engine.cache_hits", count(SweepEngine::cache_hit_count));
    out.set("engine.pool_hits", count(SweepEngine::trace_pool_hits));
    out.set("engine.pool_builds", count(SweepEngine::trace_pool_builds));
    out.set("engine.memo_hits", count(SweepEngine::interval_memo_hits));
    out.set(
        "engine.memo_stores",
        count(SweepEngine::interval_memo_stores),
    );
    out.set(
        "engine.memo_hit_ratio",
        count(SweepEngine::interval_memo_hits) / submitted as f64,
    );
    out.set("engine.warm_pass_ms", campaign_s(&warm_ms));
    out.set(
        "trace.sim_minst_per_s",
        insts as f64 / campaign_s(&traced_cold) / 1e6,
    );
    out.set(
        "trace.overhead_pct",
        (campaign_s(&traced_cold) / campaign_s(&untraced_cold) - 1.0) * 100.0,
    );

    tracer.span("probe", None, 0, |root| {
        // The same distinct jobs one by one through `Simulator::run`.
        let mut totals = probe::LayerTotals::default();
        let t = Instant::now();
        for (b, batch) in batches.iter().enumerate() {
            let first = first[b].as_ref().expect("a first round per batch");
            for (i, (item, w)) in batch.jobs.iter().enumerate() {
                let run = tracer.span("core.run", root, i as u64, |_| probe::direct(item, *w));
                out.check(checks::bit_equal(
                    &format!("{} direct job {i}", shape.benches[b]),
                    first[i],
                    run.result.runtime_ns(),
                ));
                out.check(checks::sim_result(
                    item.cache_key(*w).as_str(),
                    &run.result,
                    *w,
                    decode,
                    true,
                ));
                totals.add(&run);
            }
        }
        let direct_s = t.elapsed().as_secs_f64();
        out.set(
            "engine.speedup_vs_direct",
            direct_s / campaign_s(&untraced_cold),
        );

        let params = CoreParams::default();
        let long = shape.windows[1] + params.max_in_flight() as u64;
        probe::workloads_layer(&specs, long, params.line_bytes, &tracer, root, &mut out);

        let mut bytes = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let i = batch
                .jobs
                .iter()
                .position(|(_, w)| *w == shape.windows[1])
                .expect("a long job per batch");
            let (item, w) = &batch.jobs[i];
            let (bytes_used, r) = tracer.span("core.run_chunk", root, i as u64, |_| {
                probe::resident_bytes(item, *w)
            });
            out.check(checks::bit_equal(
                &format!("{} prepared-trace job {i}", shape.benches[b]),
                r.runtime_ns(),
                first[b].as_ref().expect("a first round per batch")[i],
            ));
            bytes.push(bytes_used as f64);
        }
        out.set("core.resident_cache_bytes", stats::median(&bytes));
        totals.report(&mut out, &tracer);

        // The store under this workload: the engines' in-memory caches.
        let mut get_us = Vec::new();
        let mut put_us = Vec::new();
        let fresh = ResultCache::in_memory();
        tracer.span("store.probe", root, 0, |_| {
            for (batch, engine) in batches.iter().zip(&engines) {
                for (item, w) in &batch.jobs {
                    let k = item.cache_key(*w);
                    let t = Instant::now();
                    let v = engine.cache().get(&k);
                    get_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    fresh.put(k, v.unwrap_or(f64::NAN));
                    put_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        });
        out.set("store.get_us", stats::median(&get_us));
        out.set("store.put_us", stats::median(&put_us));
    });
    write_trace(p, "sweep-sync", &tracer);
    out
}
