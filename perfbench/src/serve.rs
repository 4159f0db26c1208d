//! `serve-mixed`: a closed loop of clients against an in-process server.
//!
//! Set-up preloads a file-backed result cache with ~10^5 results of
//! earlier campaigns (synthetic filler at windows no request uses, plus
//! the hot keys' real results from a direct `Simulator::run`), starts a
//! `Server` over it (WAL on, default sync policy) and waits for its
//! first answer. The timed phase runs whole rounds of one seeded mix on
//! [`WORKERS`] connections, each sending its next request only after the
//! previous one's terminal frame, in the proportions of the versioned
//! traffic definition [`MIX`]:
//!
//! * Zipf-hot `run_config` repeats of the preloaded hot keys (reads);
//! * fresh small-window `sync`/`prog`/`phase` `run_config`s, never sent
//!   before (simulate, WAL append, whole-map checkpoints);
//! * a few `status` requests (transport and reactor only).
//!
//! The run ends with a graceful shutdown and a restart that must answer
//! its first request, then reopens the store to check that every result
//! survived.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gals_common::fxmap::{FxHashMap, FxHashSet};
use gals_common::SplitMix64;
use gals_core::{ControlPolicy, CoreParams, McdConfig, SyncConfig};
use gals_explore::json::parse_flat_object;
use gals_explore::wal::SyncPolicy;
use gals_explore::{wal_path_of, CacheKey, MeasureItem, ResultCache};
use gals_serve::{Client, Request, RequestKind, Response, ServeConfig, Server};
use gals_workloads::{suite, BenchmarkSpec};

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::{checks, probe, sample_indices, stats, write_trace, Params, Size, WORKERS};

/// The versioned traffic definition of the full workload. Its
/// make-up, and where each figure comes from, is in `README.md`.
pub const MIX: &str = include_str!("../workloads/serve-mixed.json");

/// The workload's make-up at one size.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Benchmarks the requests name.
    pub benches: Vec<String>,
    /// Synthetic results preloaded per suite benchmark, per sync
    /// configuration and per prog configuration (one per window).
    pub filler_windows: Vec<u64>,
    /// Suite benchmarks the filler covers (40 = the whole suite).
    pub filler_benches: usize,
    /// Hot keys, preloaded with their real results.
    pub hot: usize,
    /// Zipf exponent of the hot keys' popularity.
    pub zipf: f64,
    /// Requests per round: hot repeats, fresh keys, status.
    pub per_round: [usize; 3],
    /// Request modes in the order they repeat (0 `sync`, 1 `prog`,
    /// 2 `phase`), one entry per share.
    pub modes: Vec<usize>,
    /// Window range `[lo, hi)` of hot and fresh requests.
    pub windows: (u64, u64),
    /// Fresh results checked against a direct `Simulator::run`.
    pub sample: usize,
}

impl Shape {
    /// The shape at `size`: the full one from [`MIX`].
    ///
    /// # Panics
    ///
    /// If [`MIX`] is malformed or of another schema.
    pub fn of(size: Size) -> Shape {
        let full = Shape::parse(MIX).expect("perfbench/workloads/serve-mixed.json");
        match size {
            Size::Full => full,
            Size::Tiny => Shape {
                benches: vec!["gzip".into(), "art".into()],
                filler_windows: vec![500_000],
                filler_benches: 2,
                hot: 4,
                per_round: [8, 3, 1],
                windows: (1_000, 1_500),
                sample: 3,
                ..full
            },
        }
    }

    /// Parses a `perfbench-serve-mix-v1` definition. The hot requests
    /// per round follow from the fresh ones and the hot fraction.
    ///
    /// # Errors
    ///
    /// A missing or malformed field, or another schema.
    pub fn parse(text: &str) -> Result<Shape, String> {
        let fields = parse_flat_object(text).ok_or("not a flat JSON object")?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("missing field {key:?}"))
        };
        let num = |key: &str| {
            get(key)?
                .as_num()
                .ok_or(format!("field {key:?} is not a number"))
        };
        let list = |key: &str| -> Result<Vec<String>, String> {
            let text = get(key)?
                .as_str()
                .ok_or(format!("field {key:?} is not a string"))?;
            Ok(text.split(',').map(|s| s.trim().to_string()).collect())
        };
        let schema = get("schema")?.as_str().unwrap_or_default();
        if schema != "perfbench-serve-mix-v1" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let fresh = num("fresh_per_round")? as usize;
        let hot_fraction = num("hot_fraction")?;
        let hot_per_round = (fresh as f64 * hot_fraction / (1.0 - hot_fraction)).round() as usize;
        let mut modes = Vec::new();
        for (mode, key) in ["sync_share", "prog_share", "phase_share"]
            .into_iter()
            .enumerate()
        {
            modes.extend(std::iter::repeat_n(mode, num(key)? as usize));
        }
        let filler_windows = list("filler_windows")?
            .iter()
            .map(|w| w.parse().map_err(|_| format!("bad filler window {w:?}")))
            .collect::<Result<_, _>>()?;
        Ok(Shape {
            benches: list("benches")?,
            filler_windows,
            filler_benches: num("filler_benches")? as usize,
            hot: num("hot_keys")? as usize,
            zipf: num("zipf_exponent")?,
            per_round: [hot_per_round, fresh, num("status_per_round")? as usize],
            modes,
            windows: (num("window_lo")? as u64, num("window_hi")? as u64),
            sample: num("sample")? as usize,
        })
    }
}

/// One `run_config` the workload can send: its request, the work item
/// the server expands it to, and its window.
#[derive(Debug, Clone)]
pub struct Keyed {
    /// The request operation.
    pub kind: RequestKind,
    /// The job it expands to.
    pub item: MeasureItem,
    /// The job's window.
    pub window: u64,
}

impl Keyed {
    /// The job's result-cache key.
    pub fn key(&self) -> CacheKey {
        self.item.cache_key(self.window)
    }
}

/// Draws a seeded `run_config` of mode `sync`, `prog` or `phase`
/// (`mode` 0, 1, 2) on one of `benches`.
pub fn draw(
    rng: &mut SplitMix64,
    benches: &[BenchmarkSpec],
    mode: usize,
    windows: (u64, u64),
) -> Keyed {
    let spec = benches[rng.next_below(benches.len() as u64) as usize].clone();
    let window = rng.next_range(windows.0, windows.1 - 1);
    let bench = spec.name().to_string();
    let (mode_name, cfg, policy, item) = match mode {
        0 => {
            let configs = SyncConfig::enumerate();
            let i = rng.next_below(configs.len() as u64) as usize;
            ("sync", Some(i), None, MeasureItem::sync(spec, configs[i]))
        }
        1 => {
            let configs = McdConfig::enumerate();
            let i = rng.next_below(configs.len() as u64) as usize;
            (
                "prog",
                Some(i),
                None,
                MeasureItem::program(spec, configs[i]),
            )
        }
        _ => {
            let policy = ControlPolicy::BUILTIN
                [rng.next_below(ControlPolicy::BUILTIN.len() as u64) as usize];
            (
                "phase",
                None,
                Some(policy),
                MeasureItem::phase(spec, policy),
            )
        }
    };
    Keyed {
        kind: RequestKind::RunConfig {
            bench,
            mode: mode_name.to_string(),
            cfg,
            policy,
            window,
        },
        item,
        window,
    }
}

/// What a planned request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot(usize),
    Fresh(usize),
    Status,
}

/// One answered request.
#[derive(Debug)]
struct Answer {
    id: String,
    class: Class,
    secs: f64,
    frames: Vec<Response>,
    line: String,
}

/// The seeded filler results of earlier campaigns: every sync and prog
/// configuration of the first `filler_benches` suite benchmarks at each
/// filler window, with a synthetic runtime.
fn filler(shape: &Shape, rng: &mut SplitMix64) -> Vec<(CacheKey, f64)> {
    let sync: Vec<String> = SyncConfig::enumerate()
        .iter()
        .map(SyncConfig::key)
        .collect();
    let prog: Vec<String> = McdConfig::enumerate().iter().map(McdConfig::key).collect();
    let mut out = Vec::new();
    for name in suite::names().iter().take(shape.filler_benches) {
        for (mode, keys) in [("sync", &sync), ("prog", &prog)] {
            for k in keys {
                for &w in &shape.filler_windows {
                    let ns = w as f64 * (0.25 + rng.next_f64());
                    out.push((CacheKey::new(name, mode, k, w), ns));
                }
            }
        }
    }
    out
}

/// Sends `req` on `client` and reads frames through its terminal one.
fn round_trip(client: &mut Client, line: &str) -> std::io::Result<Vec<Response>> {
    client.send_raw(line)?;
    let mut frames = Vec::new();
    loop {
        let f = client.read_response()?;
        let terminal = f.is_terminal();
        frames.push(f);
        if terminal {
            return Ok(frames);
        }
    }
}

/// The value of a `run_config`'s single `partial` frame, and whether it
/// was served from the cache.
fn partial(frames: &[Response]) -> Option<(f64, bool)> {
    frames.iter().find_map(|f| match f {
        Response::Partial {
            runtime_ns, cached, ..
        } => Some((*runtime_ns, *cached)),
        _ => None,
    })
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// A directory removed (with everything in it) when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Remove the work directory too when this run left it empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn serve_config(path: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        cache_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    }
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// I/O errors setting up the cache directory or starting the server.
pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let shape = Shape::of(p.size);
    let tracer = Tracer::new(p.trace);
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(p.seed ^ 0x5E21_E000);
    let specs: Vec<BenchmarkSpec> = shape
        .benches
        .iter()
        .map(|b| suite::by_name(b).expect("suite benchmark"))
        .collect();
    let decode = CoreParams::default().decode_width;

    let dir = TempDir(p.work_dir.join(format!("serve-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0)?;
    let path = dir.0.join("cache.json");

    // Set-up: the hot keys' real results and the filler, written by an
    // earlier campaign's writer and checkpointed.
    let mut used: FxHashSet<CacheKey> = FxHashSet::default();
    let mut hot = Vec::new();
    while hot.len() < shape.hot {
        let mode = shape.modes[hot.len() % shape.modes.len()];
        let k = draw(&mut rng, &specs, mode, shape.windows);
        if used.insert(k.key()) {
            hot.push(k);
        }
    }
    let hot_runs: Vec<probe::DirectRun> =
        probe::par_map(&hot, WORKERS, |k| probe::direct(&k.item, k.window));
    let mut preloaded = filler(&shape, &mut rng);
    for (k, run) in hot.iter().zip(&hot_runs) {
        out.check(checks::sim_result(
            k.key().as_str(),
            &run.result,
            k.window,
            decode,
            !k.item.machine.is_mcd(),
        ));
        preloaded.push((k.key(), run.result.runtime_ns()));
    }
    {
        let writer = ResultCache::open_with_policy(&path, SyncPolicy::None)?;
        for (k, v) in &preloaded {
            writer.put(k.clone(), *v);
        }
        writer.save()?;
    }
    let server = Server::start(serve_config(&path))?;
    let mut clients = Vec::new();
    for _ in 0..WORKERS {
        clients.push(Client::connect(server.local_addr())?);
    }
    let status = Request::new("setup", RequestKind::Status);
    out.check(checks::frames(
        "setup",
        0,
        &round_trip(&mut clients[0], &status.to_line())?,
    ));
    let setup_s = p.started.elapsed().as_secs_f64();

    // Zipf over the hot keys.
    let weights: Vec<f64> = (0..hot.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(shape.zipf))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let mut fresh: Vec<Keyed> = Vec::new();
    let mut returned: FxHashMap<CacheKey, f64> = FxHashMap::default();
    let (mut hit_s, mut miss_s, mut status_s, mut all_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut fresh_rtt: FxHashMap<usize, f64> = FxHashMap::default();
    let untraced = Tracer::new(false);
    let mut rounds = 0u64;
    let t0 = Instant::now();
    let last_round = loop {
        // Plan the round: the same mix every round, fresh keys new.
        let mut plan: Vec<Class> = Vec::new();
        for _ in 0..shape.per_round[0] {
            let u = rng.next_f64();
            plan.push(Class::Hot(
                cdf.iter().position(|&c| u < c).unwrap_or(hot.len() - 1),
            ));
        }
        for m in 0..shape.per_round[1] {
            let k = loop {
                let k = draw(
                    &mut rng,
                    &specs,
                    shape.modes[m % shape.modes.len()],
                    shape.windows,
                );
                if used.insert(k.key()) {
                    break k;
                }
            };
            plan.push(Class::Fresh(fresh.len()));
            fresh.push(k);
        }
        plan.extend(std::iter::repeat_n(Class::Status, shape.per_round[2]));
        for i in (1..plan.len()).rev() {
            plan.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let requests: Vec<(Class, Request)> = plan
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let id = format!("r{rounds}-{i}");
                let kind = match c {
                    Class::Hot(h) => hot[h].kind.clone(),
                    Class::Fresh(f) => fresh[f].kind.clone(),
                    Class::Status => RequestKind::Status,
                };
                (c, Request::new(id, kind))
            })
            .collect();

        let traced = p.trace && rounds % 2 == 1;
        let tr = if traced { &tracer } else { &untraced };
        let t = Instant::now();
        let answers: Vec<std::io::Result<Vec<Answer>>> = tr.span("round", None, rounds, |root| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let requests = &requests;
                        s.spawn(move || {
                            let mut answers = Vec::new();
                            for (n, (class, req)) in
                                requests.iter().enumerate().skip(c).step_by(WORKERS)
                            {
                                let answer = tr.span("serve.request", root, n as u64, |sp| {
                                    let line =
                                        tr.span("protocol.encode", sp, n as u64, |_| req.to_line());
                                    let t = Instant::now();
                                    let frames = round_trip(client, &line)?;
                                    Ok::<_, std::io::Error>(Answer {
                                        id: req.id.clone(),
                                        class: *class,
                                        secs: t.elapsed().as_secs_f64(),
                                        frames,
                                        line,
                                    })
                                })?;
                                answers.push(answer);
                            }
                            Ok(answers)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            })
        });
        let secs = t.elapsed().as_secs_f64();
        if traced {
            traced_s.push(secs)
        } else {
            untraced_s.push(secs)
        }
        rounds += 1;
        out.attempted += requests.len() as u64;

        let mut answered = Vec::new();
        for a in answers {
            match a {
                Ok(a) => answered.extend(a),
                Err(e) => out.check(Err(format!("round {rounds}: connection failed: {e}"))),
            }
        }
        out.failed += (requests.len() - answered.len()) as u64;
        for a in &answered {
            let jobs = u64::from(a.class != Class::Status);
            out.check(checks::frames(&a.id, jobs, &a.frames));
            all_s.push(a.secs);
            match a.class {
                Class::Status => status_s.push(a.secs),
                Class::Hot(h) => {
                    hit_s.push(a.secs);
                    match partial(&a.frames) {
                        Some((v, true)) => out.check(checks::bit_equal(
                            &format!("hot key {}", hot[h].key().as_str()),
                            v,
                            hot_runs[h].result.runtime_ns(),
                        )),
                        Some((_, false)) => out.check(Err(format!(
                            "hot key {} was simulated again",
                            hot[h].key().as_str()
                        ))),
                        None => {}
                    }
                }
                Class::Fresh(f) => {
                    miss_s.push(a.secs);
                    fresh_rtt.insert(f, a.secs);
                    match partial(&a.frames) {
                        Some((v, false)) => {
                            returned.insert(fresh[f].key(), v);
                        }
                        Some((_, true)) => out.check(Err(format!(
                            "fresh key {} was answered from the cache",
                            fresh[f].key().as_str()
                        ))),
                        None => {}
                    }
                }
            }
        }
        if t0.elapsed().as_secs_f64() >= p.seconds && (!p.trace || rounds >= 2) {
            break answered;
        }
    };

    // Counters, then graceful shutdown and a restart that must answer.
    // A failure from here on is a failed output check: the run still
    // ends and prints its result.
    let final_status = Request::new("final", RequestKind::Status).to_line();
    let counters = match round_trip(&mut clients[0], &final_status).map(|mut f| f.pop()) {
        Ok(Some(Response::Status { counters, .. })) => counters,
        other => {
            out.check(Err(format!("final status answered {other:?}")));
            Vec::new()
        }
    };
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let simulated = server.simulated_count();
    if simulated != fresh.len() as u64 {
        out.check(Err(format!(
            "server simulated {simulated} jobs for {} distinct uncached keys",
            fresh.len()
        )));
    }
    drop(clients);
    let t = Instant::now();
    tracer.span("serve.shutdown", None, 0, |_| server.shutdown());
    let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    let again = Request::new("restart", hot[0].kind.clone()).to_line();
    let restarted = Server::start(serve_config(&path)).and_then(|server| {
        let frames = Client::connect(server.local_addr())
            .and_then(|mut client| round_trip(&mut client, &again));
        server.shutdown();
        frames
    });
    let restart_s = t.elapsed().as_secs_f64();
    match restarted {
        Ok(frames) => {
            out.check(checks::frames("restart", 1, &frames));
            if let Some((v, _)) = partial(&frames) {
                out.check(checks::bit_equal(
                    "restarted server's first answer",
                    v,
                    hot_runs[0].result.runtime_ns(),
                ));
            }
        }
        Err(e) => out.check(Err(format!("restarted server did not answer: {e}"))),
    }

    // Every preloaded and every returned result must survive, bit-exact.
    let t = Instant::now();
    let store = tracer.span("store.open", None, 0, |_| ResultCache::open(&path));
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut expected = preloaded;
    expected.extend(returned.iter().map(|(k, v)| (k.clone(), *v)));
    let store = match store {
        Ok(store) => {
            out.check(checks::recovered(
                store.recovery(),
                |k| store.get(k),
                &expected,
            ));
            Some(store)
        }
        Err(e) => {
            out.check(Err(format!("reopening the store failed: {e}")));
            None
        }
    };
    if returned.len() != fresh.len() {
        out.check(Err(format!(
            "{} of {} fresh keys returned a result",
            returned.len(),
            fresh.len()
        )));
    }

    // A seeded sample of returned runtimes against a direct run.
    let picks = sample_indices(&mut rng, fresh.len(), shape.sample);
    let sampled: Vec<probe::DirectRun> = probe::par_map(&picks, WORKERS, |&f| {
        tracer.span("core.run", None, f as u64, |_| {
            probe::direct(&fresh[f].item, fresh[f].window)
        })
    });
    for (&f, run) in picks.iter().zip(&sampled) {
        let k = &fresh[f];
        out.check(checks::sim_result(
            k.key().as_str(),
            &run.result,
            k.window,
            decode,
            !k.item.machine.is_mcd(),
        ));
        if let Some(v) = returned.get(&k.key()) {
            out.check(checks::bit_equal(
                &format!("served {}", k.key().as_str()),
                *v,
                run.result.runtime_ns(),
            ));
        }
    }

    let fresh_insts: u64 = fresh.iter().map(|k| k.window).sum();
    // Rates are totals over the timed phase; every round sends the same mix.
    let per_round_insts = fresh_insts as f64 / rounds as f64;
    if !p.trace {
        out.set("setup_s", setup_s);
        out.set(
            "sim_minst_per_s",
            per_round_insts / stats::mean(&untraced_s) / 1e6,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    out.set(
        "serve.req_per_s",
        plan_len(&shape) as f64 / stats::mean(&untraced_s),
    );
    out.set(
        "trace.sim_minst_per_s",
        per_round_insts / stats::mean(&traced_s) / 1e6,
    );
    out.set(
        "trace.overhead_pct",
        (stats::mean(&traced_s) / stats::mean(&untraced_s) - 1.0) * 100.0,
    );
    out.set("serve.hit_p50_us", stats::median(&hit_s) * 1e6);
    out.set("serve.miss_p50_ms", stats::median(&miss_s) * 1e3);
    if stats::has_tail(all_s.len(), 99.0) {
        out.set("serve.p99_ms", stats::percentile(&all_s, 99.0) * 1e3);
    }
    out.set("serve.status_rtt_us", stats::median(&status_s) * 1e6);
    out.set("serve.simulated", simulated as f64);
    out.set("serve.shutdown_ms", shutdown_ms);
    out.set("serve.restart_s", restart_s);
    out.set("engine.simulated", counter("simulated"));
    out.set("engine.cache_hits", counter("cache_hits"));
    let sim_secs: f64 = sampled.iter().map(|r| r.secs).sum();
    let rtt_secs: f64 = picks.iter().map(|f| fresh_rtt[f]).sum();
    out.set("serve.miss_sim_share", sim_secs / rtt_secs);
    out.set("store.open_ms", open_ms);

    tracer.span("probe", None, 0, |root| {
        let mut totals = probe::LayerTotals::default();
        for run in &sampled {
            totals.add(run);
        }
        let params = CoreParams::default();
        probe::workloads_layer(
            &specs,
            shape.windows.1 + params.max_in_flight() as u64,
            params.line_bytes,
            &tracer,
            root,
            &mut out,
        );
        let sync_pick = picks
            .iter()
            .copied()
            .find(|&f| !fresh[f].item.machine.is_mcd())
            .unwrap_or(picks[0]);
        let (bytes, r) = tracer.span("core.run_chunk", root, 0, |_| {
            probe::resident_bytes(&fresh[sync_pick].item, fresh[sync_pick].window)
        });
        if let Some(&v) = returned.get(&fresh[sync_pick].key()) {
            out.check(checks::bit_equal(
                "prepared-trace serve job",
                r.runtime_ns(),
                v,
            ));
        }
        out.set("core.resident_cache_bytes", bytes as f64);
        totals.report(&mut out, &tracer);

        // The store: timed gets of preloaded keys and puts of new ones
        // on the reopened cache, then a checkpoint.
        if let Some(store) = &store {
            let (mut get_us, mut put_us) = (Vec::new(), Vec::new());
            tracer.span("store.probe", root, 0, |_| {
                for i in sample_indices(&mut rng, expected.len(), 2_000) {
                    let t = Instant::now();
                    std::hint::black_box(store.get(&expected[i].0));
                    get_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                for i in 0..256u64 {
                    let key = CacheKey::new("probe", "sync", "put", i + 1);
                    let t = Instant::now();
                    store.put(key, i as f64);
                    put_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            });
            out.set("store.get_us", stats::median(&get_us));
            out.set("store.put_us", stats::median(&put_us));
            out.set("store.wal_bytes", file_len(&wal_path_of(&path)));
            let t = Instant::now();
            if let Err(e) = tracer.span("store.checkpoint", root, 0, |_| store.save()) {
                out.check(Err(format!("checkpoint failed: {e}")));
            }
            out.set("store.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
            out.set("store.checkpoint_bytes", file_len(&path));
        }

        // The protocol: the last round's own request and response lines.
        let (mut parse_us, mut encode_us) = (Vec::new(), Vec::new());
        tracer.span("protocol.probe", root, 0, |_| {
            for a in &last_round {
                let t = Instant::now();
                let req = Request::parse(&a.line);
                parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let Ok(req) = req {
                    let t = Instant::now();
                    std::hint::black_box(req.to_line());
                    encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                for f in &a.frames {
                    let t = Instant::now();
                    let line = f.to_line();
                    encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let t = Instant::now();
                    let back = Response::parse(&line);
                    parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if back.as_ref() != Ok(f) {
                        out.check(Err(format!("response line {line:?} does not parse back")));
                    }
                }
            }
        });
        out.set("protocol.parse_us", stats::median(&parse_us));
        out.set("protocol.encode_us", stats::median(&encode_us));
    });
    drop(store);
    write_trace(p, "serve-mixed", &tracer);
    Ok(out)
}

/// Requests per round.
pub fn plan_len(shape: &Shape) -> usize {
    shape.per_round.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_versioned_mix_gives_the_documented_rounds() {
        let s = Shape::of(Size::Full);
        assert_eq!(s.hot, 64);
        assert_eq!(s.zipf, 1.1);
        // 1,024 hot : 256 fresh is the hot fraction 0.8.
        assert_eq!(s.per_round, [1_024, 256, 32]);
        assert_eq!(s.modes, [0, 1, 2, 2]);
        assert_eq!(s.benches.len(), 5);
        assert_eq!(s.windows, (1_500, 6_000));
        assert_eq!(
            Shape::parse(&MIX.replace("-v1", "-v2")).unwrap_err(),
            "unsupported schema \"perfbench-serve-mix-v2\""
        );
        assert!(Shape::parse(&MIX.replace("\"sample\"", "\"samples\"")).is_err());
    }
}
