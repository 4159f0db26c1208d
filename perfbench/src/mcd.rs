//! `mcd-long`: long, all-distinct phase-adaptive MCD runs.
//!
//! Each benchmark runs twice from the smallest MCD configuration: under
//! the paper's adaptive controllers (default argmin policy) and frozen
//! under `ControlPolicy::Static`, at a seeded window, all through
//! `SweepEngine::run_jobs` as the Figure 6 reproduction does. Each
//! round submits the batch to a fresh engine, so every run simulates.

use std::time::Instant;

use gals_common::SplitMix64;
use gals_core::{ControlPolicy, CoreParams};
use gals_explore::{Job, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::{suite, BenchmarkSpec};

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::{checks, probe, stats, write_trace, Params, Size, WORKERS};

/// The workload's make-up at one size.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Phased and memory-bound benchmarks.
    pub benches: &'static [&'static str],
    /// Shortest window; each benchmark adds a seeded offset below `jitter`.
    pub window: u64,
    /// Range of the seeded window offset.
    pub jitter: u64,
}

impl Shape {
    /// The shape at `size`.
    pub fn of(size: Size) -> Shape {
        match size {
            Size::Full => Shape {
                benches: &["gzip", "art", "equake", "gcc"],
                window: 200_000,
                jitter: 20_000,
            },
            Size::Tiny => Shape {
                benches: &["gzip", "art"],
                window: 120_000,
                jitter: 1_000,
            },
        }
    }
}

/// The two policies each benchmark runs under: adaptive first.
pub const POLICIES: [ControlPolicy; 2] = [ControlPolicy::PaperArgmin, ControlPolicy::Static];

/// The seeded batch: for each benchmark, its adaptive and its Static
/// run at the benchmark's window.
pub fn batch(shape: &Shape, rng: &mut SplitMix64) -> Vec<(MeasureItem, u64)> {
    let mut jobs = Vec::new();
    for b in shape.benches {
        let spec = suite::by_name(b).expect("suite benchmark");
        let w = shape.window + rng.next_below(shape.jitter);
        for policy in POLICIES {
            jobs.push((MeasureItem::phase(spec.clone(), policy), w));
        }
    }
    jobs
}

/// Runs `mcd-long`.
pub fn run(p: &Params) -> Outcome {
    let shape = Shape::of(p.size);
    let tracer = Tracer::new(p.trace);
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(p.seed ^ 0x0C0D_1046);
    let batch = batch(&shape, &mut rng);
    let decode = CoreParams::default().decode_width;

    // Set-up: every run's expected result from a direct `Simulator::run`,
    // and every run again on the simulator's reference loop, which must
    // match the fast loop exactly. Checking all of them, rather than a
    // seeded one, also makes the set-up the same work at every seed.
    let direct: Vec<probe::DirectRun> = probe::par_map(&batch, WORKERS, |(item, w)| {
        tracer.span("core.run", None, 0, |_| probe::direct(item, *w))
    });
    for ((item, w), run) in batch.iter().zip(&direct) {
        out.check(checks::sim_result(
            item.cache_key(*w).as_str(),
            &run.result,
            *w,
            decode,
            false,
        ));
    }
    for pair in direct
        .chunks(2)
        .filter(|pair| ["gzip", "art"].contains(&pair[0].result.benchmark.as_str()))
    {
        let (adaptive, fixed) = (&pair[0].result, &pair[1].result);
        if adaptive.runtime > fixed.runtime {
            out.check(Err(format!(
                "{}: phase-adaptive {} ns is slower than Static {} ns",
                adaptive.benchmark,
                adaptive.runtime_ns(),
                fixed.runtime_ns()
            )));
        }
    }
    let ratios: Vec<(String, f64)> = direct
        .chunks(2)
        .map(|pair| {
            (
                pair[0].result.benchmark.clone(),
                pair[0].result.runtime_ns() / pair[1].result.runtime_ns(),
            )
        })
        .collect();
    let geomean = (ratios.iter().map(|(_, r)| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    eprintln!("perfbench: mcd-long simulated runtime, phase-adaptive / Static: {ratios:?}, geomean {geomean:.4}");
    let reference = probe::par_map(&batch, WORKERS, |(item, w)| {
        tracer.span("core.run_reference", None, 0, |_| {
            probe::reference(item, *w)
        })
    });
    for (i, (r, run)) in reference.iter().zip(&direct).enumerate() {
        if *r != run.result {
            out.check(Err(format!(
                "mcd job {i}: fast loop and reference loop differ"
            )));
        }
    }
    let setup_s = p.started.elapsed().as_secs_f64();

    let untraced = Tracer::new(false);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rounds = 0u64;
    let t0 = Instant::now();
    let engine = loop {
        let traced = p.trace && rounds % 2 == 1;
        let tr = if traced { &tracer } else { &untraced };
        let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(WORKERS);
        let jobs = batch
            .iter()
            .map(|(item, w)| Job::new(item.clone(), *w))
            .collect();
        let t = Instant::now();
        let outcomes = tr.span("round", None, rounds, |root| {
            tr.span("engine.run_jobs", root, 0, |_| {
                engine.run_jobs(jobs, |_, _| {})
            })
        });
        let secs = t.elapsed().as_secs_f64();
        if traced {
            traced_s.push(secs)
        } else {
            untraced_s.push(secs)
        }
        rounds += 1;
        eprintln!("perfbench: round {rounds}: {secs:.3} s");
        for (i, (o, run)) in outcomes.iter().zip(&direct).enumerate() {
            match o.runtime_ns() {
                Some(ns) => out.check(checks::bit_equal(
                    &format!("mcd job {i} vs direct"),
                    ns,
                    run.result.runtime_ns(),
                )),
                None => out.failed += 1,
            }
        }
        if t0.elapsed().as_secs_f64() >= p.seconds && (!p.trace || rounds >= 2) {
            break engine;
        }
    };
    out.attempted = rounds * batch.len() as u64;

    let insts: u64 = batch.iter().map(|(_, w)| *w).sum();
    if !p.trace {
        // The rate is the timed phase's instructions over its time.
        out.set("setup_s", setup_s);
        out.set(
            "sim_minst_per_s",
            insts as f64 / stats::mean(&untraced_s) / 1e6,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    let jobs = batch.len() as f64;
    out.set("engine.simulated", engine.simulated_count() as f64);
    out.set("engine.cache_hits", engine.cache_hit_count() as f64);
    out.set("engine.pool_hits", engine.trace_pool_hits() as f64);
    out.set("engine.pool_builds", engine.trace_pool_builds() as f64);
    out.set("engine.memo_hits", engine.interval_memo_hits() as f64);
    out.set("engine.memo_stores", engine.interval_memo_stores() as f64);
    out.set(
        "engine.memo_hit_ratio",
        engine.interval_memo_hits() as f64 / jobs,
    );
    let direct_s: f64 = direct.iter().map(|r| r.secs).sum();
    out.set(
        "engine.speedup_vs_direct",
        direct_s / stats::mean(&untraced_s),
    );
    out.set(
        "trace.sim_minst_per_s",
        insts as f64 / stats::mean(&traced_s) / 1e6,
    );
    out.set(
        "trace.overhead_pct",
        (stats::mean(&traced_s) / stats::mean(&untraced_s) - 1.0) * 100.0,
    );

    tracer.span("probe", None, 0, |root| {
        let mut totals = probe::LayerTotals::default();
        for run in &direct {
            totals.add(run);
        }
        let specs: Vec<BenchmarkSpec> = shape
            .benches
            .iter()
            .map(|b| suite::by_name(b).expect("suite benchmark"))
            .collect();
        let params = CoreParams::default();
        let longest =
            batch.iter().map(|(_, w)| *w).max().unwrap_or(0) + params.max_in_flight() as u64;
        probe::workloads_layer(&specs, longest, params.line_bytes, &tracer, root, &mut out);
        let mut bytes = Vec::new();
        for (i, (item, w)) in batch.iter().enumerate().step_by(2) {
            let (b, r) = tracer.span("core.run_chunk", root, i as u64, |_| {
                probe::resident_bytes(item, *w)
            });
            out.check(checks::bit_equal(
                &format!("prepared-trace mcd job {i}"),
                r.runtime_ns(),
                direct[i].result.runtime_ns(),
            ));
            bytes.push(b as f64);
        }
        out.set("core.resident_cache_bytes", stats::median(&bytes));
        totals.report(&mut out, &tracer);
        let (mut get_us, mut put_us) = (Vec::new(), Vec::new());
        let fresh = ResultCache::in_memory();
        tracer.span("store.probe", root, 0, |_| {
            for (item, w) in &batch {
                let k = item.cache_key(*w);
                let t = Instant::now();
                let v = engine.cache().get(&k);
                get_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                fresh.put(k, v.unwrap_or(f64::NAN));
                put_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        out.set("store.get_us", stats::median(&get_us));
        out.set("store.put_us", stats::median(&put_us));
    });
    write_trace(p, "mcd-long", &tracer);
    out
}
