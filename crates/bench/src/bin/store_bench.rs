//! Durability benchmark for the WAL-backed result store.
//!
//! Replays a checked-in, versioned workload definition (flat JSON under
//! `workloads/store/`, parsed with `gals_explore::json` — a Zipf-hot
//! config mix over a small hot set, a long tail of cold configs,
//! concurrent writer threads, and a catch-up reader probing the hot set
//! while the writers run) against each WAL sync mode (`always`,
//! `batch:N`, `none`), then simulates a crash (the final compaction is
//! skipped, exactly what `kill -9` leaves behind) and recovers.
//!
//! Reported per mode: put latency p50/p95/p99/p99.9 (µs), put
//! throughput, WAL bytes at crash, acknowledged (synced) record count,
//! replayed record count, WAL replay time — and the number of
//! acknowledged records lost in recovery, which must be **zero** in
//! every mode; the process exits nonzero otherwise. The run both
//! *measures* the latency cost of each durability level and *audits*
//! the durability claim itself, percentile-first, from a reproducible
//! seeded workload.
//!
//! Writes `BENCH_store.json` (schema `gals-mcd-store-bench-v1`).
//! Flags: `--workload <path>` (default `workloads/store/default.json`),
//! `--out <path>` (default `BENCH_store.json`), `--check <committed>`
//! gates the committed artifact (`recovery_lost_acknowledged == 0`,
//! p99.9 present per mode) in addition to this run's own zero-loss
//! assertion.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use gals_bench::extract_number;
use gals_bench::loadgen::percentile;
use gals_common::fxmap::{FxHashMap, FxHashSet};
use gals_common::SplitMix64;
use gals_explore::json::parse_flat_object;
use gals_explore::wal::SyncPolicy;
use gals_explore::{wal_path_of, CacheKey, ResultCache};

/// A parsed workload definition (see `workloads/store/*.json`).
#[derive(Debug, Clone)]
struct Workload {
    name: String,
    writers: usize,
    puts_per_writer: usize,
    hot_keys: usize,
    hot_fraction: f64,
    zipf_exponent: f64,
    checkpoint_batch: usize,
    batch_n: u64,
    catchup_reader: bool,
    seed: u64,
}

impl Workload {
    fn load(path: &str) -> Workload {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read workload definition {path}: {e}"));
        let fields = parse_flat_object(&text)
            .unwrap_or_else(|| panic!("workload {path} is not a flat JSON object"));
        let get_str = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_str().map(str::to_string))
                .unwrap_or_else(|| panic!("workload {path}: missing string field {key:?}"))
        };
        let get_num = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_num())
                .unwrap_or_else(|| panic!("workload {path}: missing numeric field {key:?}"))
        };
        let schema = get_str("schema");
        assert_eq!(
            schema, "gals-mcd-store-workload-v1",
            "workload {path}: unsupported schema {schema:?}"
        );
        Workload {
            name: get_str("name"),
            writers: get_num("writers") as usize,
            puts_per_writer: get_num("puts_per_writer") as usize,
            hot_keys: (get_num("hot_keys") as usize).max(1),
            hot_fraction: get_num("hot_fraction"),
            zipf_exponent: get_num("zipf_exponent"),
            checkpoint_batch: get_num("checkpoint_batch") as usize,
            batch_n: (get_num("batch_n") as u64).max(1),
            catchup_reader: get_num("catchup_reader") != 0.0,
            seed: get_num("seed") as u64,
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank r drawn with probability
/// proportional to `1/(r+1)^s`, via a precomputed cumulative table.
#[derive(Debug, Clone)]
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative.partition_point(|&c| c < u)
    }
}

fn hot_key(rank: usize) -> CacheKey {
    CacheKey::new("hot", "store", &format!("h{rank:04}"), 10_000)
}

/// Outcome of one sync mode's run.
struct ModeOutcome {
    policy: String,
    puts: usize,
    wall_s: f64,
    /// Sorted per-put latencies, µs.
    latencies_us: Vec<f64>,
    acknowledged: usize,
    wal_bytes_at_crash: u64,
    /// Records replayed from the compacted base (the artifact keeps
    /// its schema-v1 name, `checkpoint_entries`).
    checkpoint_entries: usize,
    /// Records replayed from the sealed segment and the active log.
    replayed_records: usize,
    replay_ms: f64,
    lost_acknowledged: usize,
    reader_probes: usize,
    reader_hits: usize,
}

/// Runs the workload under one sync policy, crashes, recovers, audits.
fn run_mode(w: &Workload, policy: SyncPolicy, dir: &PathBuf) -> ModeOutcome {
    let _ = fs::remove_dir_all(dir);
    let path = dir.join("cache.json");
    let cache = ResultCache::open_with_policy(&path, policy).expect("open store");
    let zipf = Zipf::new(w.hot_keys, w.zipf_exponent);
    let stop = AtomicBool::new(false);
    let probes = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);

    let (logs, latencies, wall_s) = std::thread::scope(|scope| {
        let cache = &cache;
        let zipf = &zipf;
        let (stop, probes, hits) = (&stop, &probes, &hits);
        // The catch-up reader starts against an empty (or cold) store
        // and converges on the writers' hot set while they are still
        // appending — the read path must stay correct mid-compaction.
        let reader = w.catchup_reader.then(|| {
            scope.spawn(move || {
                let mut rng = SplitMix64::new(w.seed ^ 0x5EED_4EAD);
                while !stop.load(Ordering::Relaxed) {
                    let key = hot_key(zipf.sample(&mut rng));
                    probes.fetch_add(1, Ordering::Relaxed);
                    if cache.get(&key).is_some() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            })
        });
        let t0 = Instant::now();
        let handles: Vec<_> = (0..w.writers)
            .map(|wr| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(w.seed.wrapping_add(wr as u64 * 0x9E37));
                    let mut log = Vec::with_capacity(w.puts_per_writer);
                    let mut lat = Vec::with_capacity(w.puts_per_writer);
                    for i in 0..w.puts_per_writer {
                        let key = if rng.chance(w.hot_fraction) {
                            hot_key(zipf.sample(&mut rng))
                        } else {
                            // Long tail: a fresh cold config per miss.
                            CacheKey::new("cold", "store", &format!("w{wr}-c{i:06}"), 10_000)
                        };
                        let value = (wr * w.puts_per_writer + i) as f64 * 1.000_001 + 0.333;
                        let t = Instant::now();
                        let seq = cache.put(key.clone(), value);
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        log.push((seq, key, value));
                        cache.maybe_save_batched(w.checkpoint_batch);
                    }
                    (log, lat)
                })
            })
            .collect();
        let mut logs = Vec::new();
        let mut latencies = Vec::new();
        for h in handles {
            let (log, lat) = h.join().expect("writer thread");
            logs.push(log);
            latencies.extend(lat);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(r) = reader {
            r.join().expect("reader thread");
        }
        (logs, latencies, wall_s)
    });

    // What did the store acknowledge as durable before the "crash"?
    let durable = cache.durable_seq();
    let acked: Vec<(CacheKey, f64)> = logs
        .iter()
        .flatten()
        .filter(|(seq, ..)| *seq <= durable)
        .map(|(_, k, v)| (k.clone(), *v))
        .collect();
    let wal_bytes_at_crash = fs::metadata(wal_path_of(&path))
        .map(|m| m.len())
        .unwrap_or(0);
    // Crash: leak the cache so the Drop compaction never runs — on-disk
    // state is exactly what SIGKILL would leave.
    std::mem::forget(cache);

    let t0 = Instant::now();
    let recovered = ResultCache::open_with_policy(&path, policy).expect("recover store");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = recovered.recovery().clone();
    // The durability audit. Hot keys are overwritten by racing writers,
    // so the recovered value of such a key is whichever racing put
    // replay lands on — any of them is correct. What must hold: a key
    // with at least one acknowledged write is present after recovery,
    // and its value is bit-exactly one that was actually put to it
    // (never a torn/garbage value, never silently dropped).
    let mut written: FxHashMap<&CacheKey, Vec<u64>> = FxHashMap::default();
    for (_, key, value) in logs.iter().flatten() {
        written.entry(key).or_default().push(value.to_bits());
    }
    let acked_keys: FxHashSet<&CacheKey> = acked.iter().map(|(k, _)| k).collect();
    let mut lost = 0usize;
    for key in acked_keys {
        match recovered.get(key).map(f64::to_bits) {
            Some(bits) if written[key].contains(&bits) => {}
            _ => lost += 1,
        }
    }
    drop(recovered);

    let mut latencies_us = latencies;
    latencies_us.sort_by(f64::total_cmp);
    ModeOutcome {
        policy: policy.to_string(),
        puts: w.writers * w.puts_per_writer,
        wall_s,
        latencies_us,
        acknowledged: acked.len(),
        wal_bytes_at_crash,
        checkpoint_entries: report.base.records,
        replayed_records: report.sealed.records + report.log.records,
        replay_ms,
        lost_acknowledged: lost,
        reader_probes: probes.load(Ordering::Relaxed),
        reader_hits: hits.load(Ordering::Relaxed),
    }
}

struct Args {
    workload: String,
    out: String,
    check: Option<String>,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().collect();
    let grab = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    Args {
        workload: grab("--workload").unwrap_or_else(|| "workloads/store/default.json".to_string()),
        out: grab("--out").unwrap_or_else(|| "BENCH_store.json".to_string()),
        check: grab("--check"),
    }
}

fn main() {
    let args = parse_args();
    // Snapshot the committed artifact *before* writing ours: the output
    // path and the checked path may be the same file.
    let committed = args.check.as_ref().map(|path| {
        fs::read_to_string(path).unwrap_or_else(|e| panic!("read committed artifact {path}: {e}"))
    });
    let w = Workload::load(&args.workload);
    let modes = [
        SyncPolicy::Always,
        SyncPolicy::Batch(w.batch_n),
        SyncPolicy::None,
    ];

    println!("gals-mcd durable store benchmark");
    println!(
        "  workload           {} ({} writers x {} puts, {} hot keys, zipf s={}, \
         hot fraction {:.0}%)",
        w.name,
        w.writers,
        w.puts_per_writer,
        w.hot_keys,
        w.zipf_exponent,
        w.hot_fraction * 100.0
    );
    let mut outcomes = Vec::new();
    for policy in modes {
        let dir = std::env::temp_dir().join(format!(
            "gals-store-bench-{}",
            policy.to_string().replace(':', "-")
        ));
        let o = run_mode(&w, policy, &dir);
        let _ = fs::remove_dir_all(&dir);
        println!(
            "  {:<9} {:9.0} puts/s   put µs p50 {:7.2} / p95 {:7.2} / p99 {:7.2} / \
             p99.9 {:8.2}   acked {:>6}   replay {:6.1} ms ({} base + {} log)   lost {}",
            o.policy,
            o.puts as f64 / o.wall_s,
            percentile(&o.latencies_us, 50.0),
            percentile(&o.latencies_us, 95.0),
            percentile(&o.latencies_us, 99.0),
            percentile(&o.latencies_us, 99.9),
            o.acknowledged,
            o.replay_ms,
            o.checkpoint_entries,
            o.replayed_records,
            o.lost_acknowledged,
        );
        outcomes.push(o);
    }

    let total_lost: usize = outcomes.iter().map(|o| o.lost_acknowledged).sum();
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"gals-mcd-store-bench-v1\",\n");
    let _ = writeln!(json, "  \"workload\": \"{}\",", w.name);
    let _ = writeln!(
        json,
        "  \"workload_schema\": \"gals-mcd-store-workload-v1\","
    );
    let _ = writeln!(json, "  \"writers\": {},", w.writers);
    let _ = writeln!(json, "  \"puts_per_writer\": {},", w.puts_per_writer);
    let _ = writeln!(json, "  \"hot_keys\": {},", w.hot_keys);
    let _ = writeln!(json, "  \"zipf_exponent\": {},", w.zipf_exponent);
    let _ = writeln!(json, "  \"checkpoint_batch\": {},", w.checkpoint_batch);
    json.push_str("  \"modes\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"sync\": \"{}\", \"puts\": {}, \"throughput_puts_per_s\": {:.0}, \
             \"put_us\": {{\"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2}, \"p999\": {:.2}}}, \
             \"acknowledged\": {}, \"wal_bytes_at_crash\": {}, \"checkpoint_entries\": {}, \
             \"replayed_records\": {}, \"replay_ms\": {:.2}, \"reader_probes\": {}, \
             \"reader_hits\": {}, \"recovery_lost_acknowledged\": {}}}{}",
            o.policy,
            o.puts,
            o.puts as f64 / o.wall_s,
            percentile(&o.latencies_us, 50.0),
            percentile(&o.latencies_us, 95.0),
            percentile(&o.latencies_us, 99.0),
            percentile(&o.latencies_us, 99.9),
            o.acknowledged,
            o.wal_bytes_at_crash,
            o.checkpoint_entries,
            o.replayed_records,
            o.replay_ms,
            o.reader_probes,
            o.reader_hits,
            o.lost_acknowledged,
            if i + 1 == outcomes.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"recovery_lost_acknowledged\": {total_lost}");
    json.push_str("}\n");
    fs::write(&args.out, &json).expect("write artifact");
    println!("  wrote {}", args.out);

    // This run's own durability audit is unconditional.
    assert_eq!(
        total_lost, 0,
        "acknowledged records were lost in recovery — the durability contract is broken"
    );

    // --check gates the *committed* artifact: zero loss on record, and
    // tail-first reporting (p99.9) present for every sync mode.
    if let Some(path) = &args.check {
        let committed = committed.expect("snapshot taken before the run");
        let mut failed = false;
        if extract_number(&committed, "", "\"recovery_lost_acknowledged\"") != Some(0.0) {
            eprintln!(
                "store-smoke FAIL: committed artifact {path} records lost acknowledged writes"
            );
            failed = true;
        }
        for mode in ["always", "batch:", "none"] {
            let anchor = format!("\"sync\": \"{mode}");
            match extract_number(&committed, &anchor, "\"p999\"") {
                Some(v) if v >= 0.0 => eprintln!(
                    "store-smoke ok: committed {mode}* put p99.9 = {v:.2} µs, \
                     lost_acknowledged = 0"
                ),
                _ => {
                    eprintln!(
                        "store-smoke FAIL: committed artifact {path} lacks p99.9 for \
                         sync mode {mode}*"
                    );
                    failed = true;
                }
            }
        }
        assert!(!failed, "store-smoke gate failed against {path}");
        eprintln!("store-smoke: all gates passed against {path}");
    }
}
