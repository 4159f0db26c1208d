//! Throughput reporter: measures simulated-instructions/sec for the
//! three machine styles and sweep configurations/sec for the synchronous
//! design-space sweep, for both the event-driven fast loop and the
//! straightforward reference loop, plus the sweep-wide trace-sharing
//! speedup (pooled traces vs per-job stream regeneration), the
//! window-sharing speedup (every configuration measured at two windows —
//! the convergence-study shape — through the default engine, which runs
//! each configuration once for both, vs an engine with sharing and the
//! interval memo off running the identical jobs one by one), and the
//! cache-model residency (bytes the packed lazy tag arrays actually
//! allocate after a real run vs the old eager per-geometry layout), and
//! emits the numbers as JSON.
//!
//! This feeds the checked-in `BENCH_sim.json` trajectory (schema v4):
//!
//! ```text
//! cargo run --release -p gals-bench --bin throughput -- --out BENCH_sim.json
//! ```
//!
//! CI runs it as a perf-smoke gate:
//!
//! ```text
//! cargo run --release -p gals-bench --bin throughput -- --check BENCH_sim.json
//! ```
//!
//! which exits non-zero when the measured `simulator_geomean_speedup`,
//! `simulator_min_speedup` (the per-benchmark floor — this is what
//! pins the adpcm_encode synchronous corner, the one workload where the
//! event-driven loop has nothing to skip; each benchmark's speedup is
//! the median over five alternating fast/reference run pairs),
//! `sweep_trace_shared.speedup`,
//! or `sweep_batched.speedup` falls more than the tolerance (default
//! 15%, `--tolerance 0.25` to widen) below the committed artifact, or
//! when `cache_model_bytes_per_sim` (lower is better — resident bytes
//! are deterministic for a fixed trace) grows more than the tolerance
//! above it.
//!
//! `--mem` prints only the per-style cache-model residency table (old
//! eager layout vs packed lazy layout) and exits.
//!
//! Knobs: `GALS_BENCH_SIM_WINDOW` (default 60,000 instructions per
//! simulator measurement), `GALS_BENCH_SWEEP_WINDOW` (default 4,000
//! instructions per sweep run), plus the engine's
//! `GALS_MCD_INTERVAL_MEMO_SNAPS` (`0` turns window sharing off on the
//! default side of the batched section too).

use std::fmt::Write as _;
use std::time::Instant;

use gals_bench::extract_number;
use gals_common::env::parse_env_or;
use gals_core::{MachineConfig, McdConfig, Simulator, SyncConfig};
use gals_explore::{in_sync_winner_subset, Explorer, Job, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::{suite, PreparedTrace, SharedTrace};

/// PR 1's committed `sweep_sync.fast_configs_per_sec` (window 4,000,
/// one thread, the standard CI container class): the fixed baseline the
/// `speedup_vs_v1_sweep` trajectory metric is quoted against. Absolute
/// configs/sec only transfer between hosts of the same class — the
/// perf-smoke gate therefore checks the same-host ratios, and this
/// number exists to track the sweep-throughput trajectory across PRs.
const V1_SWEEP_CONFIGS_PER_SEC: f64 = 580.664;

const STYLES: [&str; 3] = ["synchronous", "program_adaptive", "phase_adaptive"];
const BENCHES: [&str; 3] = ["adpcm_encode", "gcc", "equake"];
/// Benchmarks for the sweep throughput measurements (a slice of the suite
/// keeps the reporter under a couple of minutes end to end).
const SWEEP_BENCHES: [&str; 4] = ["adpcm_encode", "gcc", "power", "art"];

fn machine_for(style: &str) -> MachineConfig {
    match style {
        "synchronous" => MachineConfig::best_synchronous(),
        "program_adaptive" => MachineConfig::program_adaptive(McdConfig::smallest()),
        "phase_adaptive" => MachineConfig::phase_adaptive(McdConfig::smallest()),
        _ => unreachable!(),
    }
}

/// Fast-loop/reference-loop run pairs per simulator cell.
const SPEEDUP_PAIRS: usize = 5;

/// Times one full simulation run on each loop, alternating the two pair
/// by pair, and returns the median fast and reference wall times and
/// the median of the per-pair speedups. A busy moment on the host then
/// spoils one pair, not the cell's speedup.
fn time_pairs(machine: &MachineConfig, bench: &str, window: u64) -> (f64, f64, f64) {
    let spec = suite::by_name(bench).expect("benchmark in suite");
    let time = |reference: bool| {
        let mut sim = Simulator::new(machine.clone());
        if reference {
            sim = sim.use_reference_loop();
        }
        let mut stream = spec.stream();
        let t0 = Instant::now();
        let r = sim.run(&mut stream, window);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(r.committed, window);
        dt
    };
    let (mut fast, mut reference, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PAIRS {
        let (f, r) = (time(false), time(true));
        fast.push(f);
        reference.push(r);
        ratios.push(r / f);
    }
    (
        median(&mut fast),
        median(&mut reference),
        median(&mut ratios),
    )
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Post-run cache-model footprint for one style: the bytes the packed
/// lazy tag arrays actually hold after a real `window`-instruction run
/// of gcc (the most set-hungry sweep benchmark), next to the bytes the
/// old eager layout allocated up front for the same geometry. Both are
/// deterministic: same trace, same machine, same touched sets.
fn cache_model_bytes(style: &str, window: u64) -> (usize, usize) {
    let machine = machine_for(style);
    let spec = suite::by_name("gcc").expect("benchmark in suite");
    let slack = machine.params.max_in_flight() as u64 + 64;
    let trace = SharedTrace::capture(&mut spec.stream(), window + slack);
    let prep = PreparedTrace::new(&trace, machine.params.line_bytes);
    let mut sim = Simulator::new(machine);
    assert!(
        sim.run_chunk(&prep, window, u64::MAX),
        "residency run did not complete its window"
    );
    (
        sim.cache_model_resident_bytes(),
        sim.cache_model_eager_bytes(),
    )
}

/// One timed synchronous-subset sweep; returns (runs, seconds).
fn time_sweep(window: u64, reference: bool) -> (usize, f64) {
    let suite: Vec<_> = SWEEP_BENCHES
        .iter()
        .map(|n| suite::by_name(n).expect("benchmark in suite"))
        .collect();
    let mut ex = Explorer::with_cache(window, window, ResultCache::in_memory());
    if reference {
        ex = ex.with_reference_simulator();
    }
    let t0 = Instant::now();
    let out = ex.sync_sweep(&suite).expect("sweep");
    let dt = t0.elapsed().as_secs_f64();
    (out.geomeans_ns.len() * suite.len(), dt)
}

/// The 512-run work list for the trace-sharing measurement: the same
/// 128-configuration synchronous subset `sync_sweep` uses, crossed with
/// the four sweep benchmarks — exactly the shape where N configurations
/// share one benchmark stream.
fn trace_sweep_work() -> Vec<MeasureItem> {
    let specs: Vec<_> = SWEEP_BENCHES
        .iter()
        .map(|n| suite::by_name(n).expect("benchmark in suite"))
        .collect();
    let configs: Vec<SyncConfig> = SyncConfig::enumerate()
        .into_iter()
        .filter(in_sync_winner_subset)
        .collect();
    let mut work = Vec::with_capacity(configs.len() * specs.len());
    for cfg in &configs {
        for spec in &specs {
            work.push(MeasureItem::sync(spec.clone(), *cfg));
        }
    }
    work
}

/// One timed trace-shared (or per-job-stream) sweep over a fresh
/// in-memory cache; returns (runs, seconds, pool hits). Every job has
/// one window, so nothing is shared between runs but the recordings.
fn time_trace_sweep(window: u64, pooled: bool) -> (usize, f64, u64) {
    let work = trace_sweep_work();
    let mut engine = SweepEngine::new(ResultCache::in_memory());
    if !pooled {
        engine = engine.without_trace_pool();
    }
    let t0 = Instant::now();
    let out = engine.measure_owned(work, window);
    let dt = t0.elapsed().as_secs_f64();
    assert!(
        out.iter().all(|ns| ns.is_finite() && *ns > 0.0),
        "trace sweep produced an unusable runtime"
    );
    (out.len(), dt, engine.trace_pool_hits())
}

/// The window-sharing shape for the batched section: every trace-sweep
/// configuration measured at two windows (W/2 and W) — the convergence
/// study every real sweep campaign runs — so one run of each
/// configuration can answer both.
fn batched_sweep_jobs(window: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for item in trace_sweep_work() {
        jobs.push(Job::new(item.clone(), window / 2));
        jobs.push(Job::new(item, window));
    }
    jobs
}

struct BatchedSweep {
    runs: usize,
    solo_s: f64,
    batched_s: f64,
    memo_hits: u64,
    memo_stores: u64,
}

/// Times the mixed-window job list through the default engine (window
/// sharing: one run per configuration answers both windows) against an
/// engine with sharing and the interval memo off
/// (`with_interval_memo_snaps(0)`) over the identical jobs — and asserts
/// the outcomes are bit-identical.
fn time_batched_sweep(window: u64) -> BatchedSweep {
    let run = |engine: &SweepEngine| -> (Vec<Option<f64>>, f64) {
        let jobs = batched_sweep_jobs(window);
        let t0 = Instant::now();
        let out = engine.run_jobs(jobs, |_, _| {});
        let dt = t0.elapsed().as_secs_f64();
        (out.into_iter().map(|o| o.runtime_ns()).collect(), dt)
    };
    let solo = SweepEngine::new(ResultCache::in_memory()).with_interval_memo_snaps(0);
    let batched = SweepEngine::new(ResultCache::in_memory());
    let (solo_out, solo_s) = run(&solo);
    let (batched_out, batched_s) = run(&batched);
    assert!(
        solo_out.iter().all(|ns| ns.is_some()),
        "batched sweep produced an unusable runtime"
    );
    assert_eq!(
        solo_out, batched_out,
        "window-shared outcomes diverged from solo outcomes"
    );
    BatchedSweep {
        runs: solo_out.len(),
        solo_s,
        batched_s,
        memo_hits: batched.interval_memo_hits(),
        memo_stores: batched.interval_memo_stores(),
    }
}

struct Args {
    out: Option<String>,
    check: Option<String>,
    mem: bool,
    tolerance: f64,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().collect();
    let grab = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    Args {
        out: grab("--out"),
        check: grab("--check"),
        mem: args.iter().any(|a| a == "--mem"),
        tolerance: grab("--tolerance")
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.15),
    }
}

/// Measures and prints the per-style cache-model residency table;
/// returns (mean resident bytes, mean eager-layout bytes) per sim.
fn report_cache_model(window: u64) -> (usize, usize, String) {
    eprintln!("cache model residency ({window} instructions of gcc per style):");
    let mut resident_sum = 0usize;
    let mut eager_sum = 0usize;
    let mut rows = String::new();
    for (i, style) in STYLES.iter().enumerate() {
        let (resident, eager) = cache_model_bytes(style, window);
        resident_sum += resident;
        eager_sum += eager;
        let reduction = eager as f64 / resident as f64;
        eprintln!(
            "  {style:>16} packed lazy {resident:>9} B   eager layout {eager:>9} B   \
             {reduction:5.1}x smaller"
        );
        let _ = write!(
            rows,
            "    {{\"style\": \"{style}\", \"resident_bytes\": {resident}, \
             \"eager_layout_bytes\": {eager}, \"reduction\": {reduction:.2}}}"
        );
        rows.push_str(if i == STYLES.len() - 1 { "\n" } else { ",\n" });
    }
    (resident_sum / STYLES.len(), eager_sum / STYLES.len(), rows)
}

fn main() {
    let args = parse_args();
    let sim_window: u64 = parse_env_or("GALS_BENCH_SIM_WINDOW", 60_000u64);
    let sweep_window: u64 = parse_env_or("GALS_BENCH_SWEEP_WINDOW", 4_000u64);
    // Restrict the sweep to the 128-configuration subset so the reporter
    // stays fast; throughput per configuration is what matters here.
    // Set on the main thread before the sweep pool exists (the soundness
    // condition gals_common::env::set_var documents).
    gals_common::env::set_var("GALS_MCD_SYNC_SUBSET", "1");

    if args.mem {
        let (bytes_per_sim, eager_per_sim, _) = report_cache_model(sweep_window);
        let reduction = eager_per_sim as f64 / bytes_per_sim as f64;
        eprintln!(
            "  mean per sim: {bytes_per_sim} B resident vs {eager_per_sim} B eager \
             ({reduction:.1}x smaller)"
        );
        return;
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"gals-mcd-throughput-v4\",\n");
    let _ = writeln!(json, "  \"sim_window\": {sim_window},");

    // Simulator throughput matrix.
    eprintln!("simulator throughput ({sim_window} instructions per run, median of {SPEEDUP_PAIRS} alternating pairs):");
    let mut speedups: Vec<f64> = Vec::new();
    json.push_str("  \"simulator\": [\n");
    for (si, style) in STYLES.iter().enumerate() {
        let machine = machine_for(style);
        for (bi, bench) in BENCHES.iter().enumerate() {
            let (fast_s, ref_s, speedup) = time_pairs(&machine, bench, sim_window);
            let fast_mips = sim_window as f64 / fast_s / 1e6;
            let ref_mips = sim_window as f64 / ref_s / 1e6;
            speedups.push(speedup);
            eprintln!(
                "  {style:>16} {bench:<14} fast {fast_mips:7.2} Minst/s   \
                 reference {ref_mips:7.2} Minst/s   speedup {speedup:.2}x"
            );
            let _ = write!(
                json,
                "    {{\"style\": \"{style}\", \"benchmark\": \"{bench}\", \
                 \"fast_minst_per_sec\": {fast_mips:.3}, \
                 \"reference_minst_per_sec\": {ref_mips:.3}, \
                 \"speedup\": {speedup:.3}}}"
            );
            let last = si == STYLES.len() - 1 && bi == BENCHES.len() - 1;
            json.push_str(if last { "\n" } else { ",\n" });
        }
    }
    json.push_str("  ],\n");
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let _ = writeln!(json, "  \"simulator_geomean_speedup\": {geomean:.3},");
    let _ = writeln!(json, "  \"simulator_min_speedup\": {min_speedup:.3},");
    eprintln!("  geomean simulator speedup: {geomean:.2}x (min {min_speedup:.2}x)");

    // Cache-model residency: what a sweep pays per live simulator in tag
    // metadata, packed lazy layout vs the old eager one. Resident bytes
    // after a fixed trace are deterministic, so the gate can pin them.
    let (bytes_per_sim, eager_per_sim, cm_rows) = report_cache_model(sweep_window);
    let cm_reduction = eager_per_sim as f64 / bytes_per_sim as f64;
    eprintln!(
        "  mean per sim: {bytes_per_sim} B resident vs {eager_per_sim} B eager \
         ({cm_reduction:.1}x smaller)"
    );
    let _ = writeln!(
        json,
        "  \"cache_model\": {{\"window\": {sweep_window}, \"benchmark\": \"gcc\", \
         \"styles\": [\n{cm_rows}  ], \
         \"cache_model_bytes_per_sim\": {bytes_per_sim}, \
         \"eager_layout_bytes_per_sim\": {eager_per_sim}, \
         \"reduction\": {cm_reduction:.2}}},"
    );

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Sweep throughput (the sweep_sync hot path end to end: work
    // stealing, sharded result cache, and the simulator itself).
    eprintln!("sweep_sync throughput ({sweep_window} instructions per configuration):");
    let (runs, fast_s) = time_sweep(sweep_window, false);
    let (runs_ref, ref_s) = time_sweep(sweep_window, true);
    assert_eq!(runs, runs_ref);
    let fast_cps = runs as f64 / fast_s;
    let ref_cps = runs as f64 / ref_s;
    let sweep_speedup = ref_s / fast_s;
    eprintln!(
        "  {runs} runs: fast {fast_cps:.1} configs/s   reference {ref_cps:.1} configs/s   \
         speedup {sweep_speedup:.2}x ({threads} threads)"
    );
    let _ = writeln!(
        json,
        "  \"sweep_sync\": {{\"runs\": {runs}, \"window\": {sweep_window}, \
         \"threads\": {threads}, \"fast_configs_per_sec\": {fast_cps:.3}, \
         \"reference_configs_per_sec\": {ref_cps:.3}, \"speedup\": {sweep_speedup:.3}}},"
    );

    // Trace-sharing speedup: the identical 512-run sweep with the trace
    // pool on (one stream materialization per benchmark, shared by all
    // 128 of its configurations) versus off (every job regenerates its
    // stream from RNG scratch — the pre-pool behaviour).
    eprintln!("sweep_trace_shared ({sweep_window} instructions per configuration):");
    let (truns, pooled_s, pool_hits) = time_trace_sweep(sweep_window, true);
    let (truns_b, perjob_s, _) = time_trace_sweep(sweep_window, false);
    assert_eq!(truns, truns_b);
    let pooled_cps = truns as f64 / pooled_s;
    let perjob_cps = truns as f64 / perjob_s;
    let trace_speedup = perjob_s / pooled_s;
    let vs_v1 = pooled_cps / V1_SWEEP_CONFIGS_PER_SEC;
    eprintln!(
        "  {truns} runs: pooled {pooled_cps:.1} configs/s   per-job streams {perjob_cps:.1} \
         configs/s   speedup {trace_speedup:.2}x   vs PR 1 sweep {vs_v1:.2}x \
         ({pool_hits} pool hits, {threads} threads)"
    );
    let _ = writeln!(
        json,
        "  \"sweep_trace_shared\": {{\"runs\": {truns}, \"window\": {sweep_window}, \
         \"threads\": {threads}, \"pool_hits\": {pool_hits}, \
         \"pooled_configs_per_sec\": {pooled_cps:.3}, \
         \"per_job_configs_per_sec\": {perjob_cps:.3}, \"speedup\": {trace_speedup:.3}, \
         \"v1_fast_configs_per_sec\": {V1_SWEEP_CONFIGS_PER_SEC}, \
         \"speedup_vs_v1_sweep\": {vs_v1:.3}}},"
    );

    // Window sharing: every sweep configuration at two windows (W/2 and
    // W), one run per configuration answering both, versus an engine
    // with sharing off resolving the identical job list one by one.
    eprintln!(
        "sweep_batched ({} + {sweep_window} instructions per configuration):",
        sweep_window / 2
    );
    let b = time_batched_sweep(sweep_window);
    let batched_cps = b.runs as f64 / b.batched_s;
    let solo_cps = b.runs as f64 / b.solo_s;
    let batched_speedup = b.solo_s / b.batched_s;
    eprintln!(
        "  {} runs: batched {batched_cps:.1} configs/s ({} memo hits / {} stores)   \
         vs solo {solo_cps:.1} configs/s   speedup {batched_speedup:.2}x ({threads} threads)",
        b.runs, b.memo_hits, b.memo_stores
    );
    let _ = writeln!(
        json,
        "  \"sweep_batched\": {{\"runs\": {}, \"window_full\": {sweep_window}, \
         \"window_half\": {}, \"threads\": {threads}, \
         \"memo_hits\": {}, \"memo_stores\": {}, \
         \"batched_configs_per_sec\": {batched_cps:.3}, \
         \"solo_configs_per_sec\": {solo_cps:.3}, \"speedup\": {batched_speedup:.3}}}",
        b.runs,
        sweep_window / 2,
        b.memo_hits,
        b.memo_stores
    );
    json.push_str("}\n");

    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, &json).expect("write report");
        eprintln!("wrote {path}");
    }

    // Perf-smoke gate: compare the headline ratios against the committed
    // artifact. Speedups are ratios of two measurements taken on the
    // same host seconds apart, so they transfer across machines far
    // better than absolute configs/sec; resident bytes are deterministic
    // outright. `lower_is_better` flips the gate for byte counts.
    if let Some(path) = &args.check {
        let committed = std::fs::read_to_string(path).expect("read committed artifact");
        let mut failed = false;
        let checks = [
            (
                "simulator_geomean_speedup",
                geomean,
                extract_number(&committed, "", "\"simulator_geomean_speedup\""),
                false,
            ),
            (
                "simulator_min_speedup",
                min_speedup,
                extract_number(&committed, "", "\"simulator_min_speedup\""),
                false,
            ),
            (
                "sweep_trace_shared.speedup",
                trace_speedup,
                extract_number(&committed, "\"sweep_trace_shared\"", "\"speedup\""),
                false,
            ),
            (
                "sweep_batched.speedup",
                batched_speedup,
                extract_number(&committed, "\"sweep_batched\"", "\"speedup\""),
                false,
            ),
            (
                "cache_model_bytes_per_sim",
                bytes_per_sim as f64,
                extract_number(&committed, "", "\"cache_model_bytes_per_sim\""),
                true,
            ),
        ];
        for (name, measured, committed_val, lower_is_better) in checks {
            let Some(want) = committed_val else {
                eprintln!("perf-smoke: {name} missing from {path} (schema v4 required)");
                failed = true;
                continue;
            };
            if lower_is_better {
                let ceiling = want * (1.0 + args.tolerance);
                if measured > ceiling {
                    eprintln!(
                        "perf-smoke FAIL: {name} measured {measured:.0} > ceiling {ceiling:.0} \
                         (committed {want:.0}, tolerance {:.0}%)",
                        args.tolerance * 100.0
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "perf-smoke ok: {name} measured {measured:.0} <= ceiling {ceiling:.0} \
                         (committed {want:.0})"
                    );
                }
                continue;
            }
            let floor = want * (1.0 - args.tolerance);
            if measured < floor {
                eprintln!(
                    "perf-smoke FAIL: {name} measured {measured:.3} < floor {floor:.3} \
                     (committed {want:.3}, tolerance {:.0}%)",
                    args.tolerance * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "perf-smoke ok: {name} measured {measured:.3} >= floor {floor:.3} \
                     (committed {want:.3})"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
