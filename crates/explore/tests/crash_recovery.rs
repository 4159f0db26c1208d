//! Crash-fault-injection suite for the durable result store.
//!
//! Four layers of attack, all deterministic:
//!
//! 1. **Framing codec properties** — proptest over record boundaries:
//!    random record batches, random truncation points, random byte
//!    flips, in memory and as a real base or active log next to an
//!    intact other file. Replay must always yield an exact prefix of
//!    what each file holds, never an invented or altered record.
//! 2. **Seeded fault injection** — a `FaultySink` wrapping the real
//!    file sink tears a write, rejects a write, or fails a sync at a
//!    seeded byte offset while a `Wal` writer runs; then the *actual*
//!    `ResultCache::open` recovery path replays the damaged file and
//!    must keep every record the watermark acknowledged.
//! 3. **Compaction crash points** — a compaction stopped after sealing
//!    the log, mid-way through writing the base, and after publishing
//!    the base but before deleting the sealed segment, plus a torn
//!    sealed segment: every acknowledged record survives bit-exact,
//!    and recovery finishes the compaction.
//! 4. **Concurrent-writer durability** — N threads hammering `put` +
//!    `maybe_save_batched` + `save` while compactions seal and replace
//!    the log under them: no lost record, no interleaved/corrupt frames.
//!
//! The companion `kill9` test does the same audit with a real SIGKILL.

use std::fs;
use std::path::{Path, PathBuf};

use gals_explore::wal::{
    encode_record, scan_wal, FaultKind, FaultPlan, FaultySink, FileSink, SyncPolicy, Wal,
};
use gals_explore::{
    sealed_path_of, tmp_path_of, wal_path_of, CacheKey, CrashPoint, RecoveryReport, ResultCache,
};
use proptest::prelude::*;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gals-crash-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn key_pool() -> Vec<String> {
    vec![
        String::new(),
        "gcc|sync|cfg0|1000".to_string(),
        "art|prog|i4d2l1f3|120000".to_string(),
        "key with spaces and \"quotes\"".to_string(),
        "pipes|||and\\backslashes".to_string(),
        "unicode-\u{1F600}-\u{00E9}-key".to_string(),
        "x".repeat(300),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip, then damage: truncate anywhere and flip a byte —
    /// replay must return an exact prefix of the written records and
    /// flag the image as damaged whenever it dropped anything. Then the
    /// same damaged image goes on disk as the base or as the active log,
    /// next to an intact other file: recovery keeps exactly the damaged
    /// file's prefix and all of the other file.
    #[test]
    fn framing_replay_is_always_an_exact_prefix(
        names in prop::collection::vec(prop::sample::select(key_pool()), 1..16),
        seed_value in 0.0f64..1e12,
        cut_frac in 0.0f64..1.0,
        flip in any::<bool>(),
        flip_frac in 0.0f64..1.0,
        as_base in any::<bool>(),
    ) {
        let keys: Vec<CacheKey> = names
            .iter()
            .enumerate()
            .map(|(i, name)| CacheKey::new(name, "prop", "cfg", i as u64))
            .collect();
        let mut bytes = Vec::new();
        let mut written = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            // Values with fractional parts so bit-exactness is a real check.
            let value = seed_value / (i as f64 + 3.0) + 0.125;
            encode_record(i as u64 + 1, key.as_str(), value, &mut bytes);
            written.push((key.as_str().to_string(), value));
        }
        let clean = scan_wal(&bytes);
        prop_assert_eq!(clean.corrupt_at, None);
        prop_assert_eq!(clean.records.len(), written.len());
        for (rec, (key, value)) in clean.records.iter().zip(&written) {
            prop_assert_eq!(&rec.key, key);
            prop_assert_eq!(rec.value.to_bits(), value.to_bits());
        }

        let cut = (cut_frac * bytes.len() as f64) as usize;
        let mut damaged = bytes[..cut.min(bytes.len())].to_vec();
        if flip && !damaged.is_empty() {
            let pos = ((flip_frac * damaged.len() as f64) as usize).min(damaged.len() - 1);
            damaged[pos] ^= 0x20;
        }
        let scan = scan_wal(&damaged);
        prop_assert!(scan.records.len() <= clean.records.len());
        for (rec, orig) in scan.records.iter().zip(&clean.records) {
            prop_assert_eq!(rec, orig, "replayed a record that was never written");
        }
        prop_assert!(scan.valid_len <= damaged.len() as u64);
        if scan.valid_len < damaged.len() as u64 {
            prop_assert_eq!(scan.corrupt_at, Some(scan.valid_len));
        }

        let dir = test_dir("prop");
        let path = dir.join("cache.json");
        let others: Vec<(CacheKey, f64)> = (0..3u64)
            .map(|i| (CacheKey::new("other", "prop", "cfg", i), i as f64 + 0.5))
            .collect();
        let mut other_bytes = Vec::new();
        for (i, (key, value)) in others.iter().enumerate() {
            encode_record(i as u64 + 1, key.as_str(), *value, &mut other_bytes);
        }
        let (damaged_file, other_file) = if as_base {
            (path.clone(), wal_path_of(&path))
        } else {
            (wal_path_of(&path), path.clone())
        };
        fs::write(&damaged_file, &damaged).expect("write damaged file");
        fs::write(&other_file, &other_bytes).expect("write intact file");
        let cache = ResultCache::open_with_policy(&path, SyncPolicy::None).expect("recover");
        let report = cache.recovery().clone();
        let seg = if as_base { &report.base } else { &report.log };
        prop_assert_eq!(seg.records, scan.records.len());
        prop_assert_eq!(seg.torn_at, scan.corrupt_at);
        let kept = scan.records.len();
        for (i, (key, value)) in keys.iter().zip(&written).map(|(k, (_, v))| (k, v)).enumerate() {
            let got = cache.get(key).map(f64::to_bits);
            prop_assert_eq!(got, (i < kept).then_some(value.to_bits()), "record {}", i);
        }
        for (key, value) in &others {
            prop_assert_eq!(cache.get(key), Some(*value));
        }
        prop_assert_eq!(cache.len(), kept + others.len());
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Drives a `Wal` writer through a seeded fault against the *real* WAL
/// file of a cache path, then lets `ResultCache::open` recover it.
/// Returns (acknowledged records, recovered cache).
fn fault_round(
    dir: &std::path::Path,
    plan: FaultPlan,
    policy: SyncPolicy,
) -> (Vec<(String, f64)>, ResultCache) {
    let path = dir.join("cache.json");
    let _ = fs::remove_file(&path);
    let wal_file = wal_path_of(&path);
    let _ = fs::remove_file(&wal_file);
    let sink = FaultySink::new(
        FileSink::open_at(&wal_file, 0).expect("create wal file"),
        plan,
    );
    let mut wal = Wal::new(Box::new(sink), policy, 0, 0);
    let mut appended = Vec::new();
    for i in 0..48u64 {
        let key = format!("bench{:02}|fault|cfg{i:04}|2000", i % 7);
        let value = i as f64 * 2.25 + 0.0625;
        let seq = wal.append(&key, value);
        appended.push((seq, key, value));
    }
    let watermark = wal.synced_seq();
    // "Crash": drop the writer with no checkpoint, reopen for real.
    drop(wal);
    let acked: Vec<(String, f64)> = appended
        .iter()
        .filter(|(seq, ..)| *seq <= watermark)
        .map(|(_, k, v)| (k.clone(), *v))
        .collect();
    let cache = ResultCache::open(&path).expect("recover after injected fault");
    (acked, cache)
}

#[test]
fn injected_torn_writes_never_lose_acknowledged_records() {
    let dir = test_dir("torn");
    for seed in 0..12u64 {
        let plan = FaultPlan::seeded(seed, 40, 1600, FaultKind::Torn);
        let (acked, cache) = fault_round(&dir, plan, SyncPolicy::Always);
        for (key, value) in &acked {
            let (bench, rest) = key.split_once('|').expect("key shape");
            let (mode, rest) = rest.split_once('|').expect("key shape");
            let (cfg, window) = rest.split_once('|').expect("key shape");
            let k = CacheKey::new(bench, mode, cfg, window.parse().expect("window"));
            assert_eq!(
                cache.get(&k).map(f64::to_bits),
                Some(value.to_bits()),
                "seed {seed}: acknowledged record lost (recovery: {:?})",
                cache.recovery()
            );
        }
        assert!(
            cache.recovery().log.records >= acked.len(),
            "seed {seed}: replay undercounts"
        );
        drop(cache);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_sync_failures_freeze_the_watermark() {
    let dir = test_dir("syncfail");
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, 60, 900, FaultKind::SyncFail);
        let (acked, cache) = fault_round(&dir, plan, SyncPolicy::Batch(4));
        // Whatever was acked before the fsync fault must be recoverable;
        // the store never acknowledged anything after it.
        assert!(
            cache.recovery().log.records >= acked.len(),
            "seed {seed}: lost acknowledged records ({} < {})",
            cache.recovery().log.records,
            acked.len()
        );
        drop(cache);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_rejected_writes_degrade_without_corruption() {
    let dir = test_dir("reject");
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, 40, 900, FaultKind::Reject);
        let (acked, cache) = fault_round(&dir, plan, SyncPolicy::Always);
        // A rejected write lands no bytes: the file must end cleanly on
        // a record boundary with every acknowledged record intact.
        let report = cache.recovery().clone();
        assert_eq!(
            report.log.torn_at, None,
            "seed {seed}: reject left torn bytes"
        );
        assert_eq!(report.log.records, acked.len(), "seed {seed}");
        drop(cache);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_truncated_and_appends_continue() {
    let dir = test_dir("tail");
    let path = dir.join("cache.json");
    {
        let cache = ResultCache::open_with_policy(&path, SyncPolicy::Always).expect("open");
        for i in 0..5 {
            cache.put(
                CacheKey::new("b", "sync", &format!("k{i}"), 1),
                i as f64 + 0.5,
            );
        }
        // Crash without checkpoint: Drop must not run.
        std::mem::forget(cache);
    }
    // Tear the last frame.
    let wal_file = wal_path_of(&path);
    let mut bytes = fs::read(&wal_file).expect("wal exists");
    let torn_len = bytes.len() - 5;
    bytes.truncate(torn_len);
    fs::write(&wal_file, &bytes).expect("tear wal");
    {
        let cache = ResultCache::open(&path).expect("recover");
        let report = cache.recovery().clone();
        assert_eq!(report.log.records, 4, "last record torn away");
        assert!(report.log.torn_at.is_some(), "tear must be reported");
        assert!(cache.get(&CacheKey::new("b", "sync", "k4", 1)).is_none());
        // The writer truncated to the valid prefix: new appends go to a
        // clean tail.
        cache.put(CacheKey::new("b", "sync", "k4b", 1), 99.5);
        cache.save().expect("compaction");
    }
    let cache = ResultCache::open(&path).expect("reopen clean");
    assert!(!cache.recovery().had_damage(), "store healed by compaction");
    assert_eq!(cache.len(), 5);
    assert_eq!(cache.get(&CacheKey::new("b", "sync", "k4b", 1)), Some(99.5));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_file_corruption_stops_replay_at_the_damage() {
    let dir = test_dir("midflip");
    let path = dir.join("cache.json");
    {
        let cache = ResultCache::open_with_policy(&path, SyncPolicy::Always).expect("open");
        for i in 0..5 {
            cache.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), i as f64);
        }
        std::mem::forget(cache);
    }
    let wal_file = wal_path_of(&path);
    let mut bytes = fs::read(&wal_file).expect("wal exists");
    // Flip one byte in the middle of the second frame's payload.
    let frame = bytes.len() / 5;
    bytes[frame + frame / 2] ^= 0x10;
    fs::write(&wal_file, &bytes).expect("corrupt wal");
    let cache = ResultCache::open(&path).expect("recover");
    let report = cache.recovery().clone();
    assert_eq!(report.log.records, 1, "replay stops at first damage");
    assert_eq!(report.log.torn_at, Some(frame as u64));
    assert!(report.log.discarded_bytes > 0);
    assert_eq!(cache.get(&CacheKey::new("b", "sync", "k0", 1)), Some(0.0));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_and_checkpoints_lose_nothing() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 400;
    let dir = test_dir("concurrent");
    let path = dir.join("cache.json");
    let cache = ResultCache::open_with_policy(&path, SyncPolicy::Batch(4)).expect("open");
    let cache_ref = &cache;
    let logs: Vec<Vec<(u64, CacheKey, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut log = Vec::with_capacity(PER_WRITER);
                    for i in 0..PER_WRITER {
                        let key =
                            CacheKey::new(&format!("w{w}"), "conc", &format!("cfg{i:05}"), 2000);
                        let value = (w * PER_WRITER + i) as f64 + 0.5;
                        let seq = cache_ref.put(key.clone(), value);
                        log.push((seq, key, value));
                        // Races compactions (seal + fresh log + base
                        // rename) against the other writers' appends.
                        cache_ref.maybe_save_batched(64);
                        if i % 100 == 99 {
                            cache_ref.save().expect("compaction");
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect()
    });
    let durable = cache.durable_seq();
    assert!(durable > 0, "batched sync must have advanced");
    // Crash: skip the Drop checkpoint.
    std::mem::forget(cache);

    // The on-disk WAL must be frame-clean: concurrent appends never
    // interleave bytes.
    let scan = scan_wal(&fs::read(wal_path_of(&path)).expect("wal exists"));
    assert_eq!(scan.corrupt_at, None, "interleaved/corrupt WAL frames");

    let recovered = ResultCache::open(&path).expect("recover");
    // Every record survived (all appends landed in the page cache; the
    // durability watermark is the *guaranteed* floor, and nothing at
    // all may be lost to the compaction race).
    assert_eq!(
        recovered.len(),
        WRITERS * PER_WRITER,
        "compaction racing appends dropped records (recovery: {:?})",
        recovered.recovery()
    );
    for log in &logs {
        for (seq, key, value) in log {
            assert_eq!(
                recovered.get(key).map(f64::to_bits),
                Some(value.to_bits()),
                "seq {seq} lost or altered"
            );
        }
    }
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// Builds a store with records in every place a compaction moves them —
/// a base (first save), a log (second batch) — then runs a compaction
/// only up to `at` and appends a third batch after it, and "crashes"
/// (the cache is leaked, so `Drop` saves nothing). Returns the path and
/// every acknowledged record, in put order.
fn crash_mid_compaction(tag: &str, at: CrashPoint) -> (PathBuf, Vec<(CacheKey, f64)>) {
    let dir = test_dir(tag);
    let path = dir.join("cache.json");
    let cache = ResultCache::open_with_policy(&path, SyncPolicy::Always).expect("open");
    let mut acked = Vec::new();
    let mut put = |i: usize| {
        let key = CacheKey::new("bench", "compact", &format!("cfg{i:04}"), 2000);
        let value = i as f64 * 1.25 + 0.0625;
        let seq = cache.put(key.clone(), value);
        assert!(
            seq <= cache.durable_seq(),
            "sync=always acknowledges every put"
        );
        acked.push((key, value));
    };
    for i in 0..40 {
        put(i);
    }
    cache.save().expect("first base");
    for i in 40..80 {
        put(i);
    }
    cache
        .compact_and_crash(at)
        .expect("compaction up to the crash point");
    for i in 80..100 {
        put(i);
    }
    std::mem::forget(cache);
    (path, acked)
}

/// Recovers `path`, asserts every record of `acked` is there bit-exact
/// and nothing else is, and that recovery finished the compaction (a
/// second open finds a clean store). Returns the first open's report.
fn assert_recovers(path: &Path, acked: &[(CacheKey, f64)]) -> RecoveryReport {
    let cache = ResultCache::open(path).expect("recover");
    let report = cache.recovery().clone();
    for (key, value) in acked {
        assert_eq!(
            cache.get(key).map(f64::to_bits),
            Some(value.to_bits()),
            "{key:?} lost or altered (recovery: {report:?})"
        );
    }
    assert_eq!(cache.len(), acked.len(), "recovery: {report:?}");
    assert!(report.had_damage(), "an interrupted compaction is reported");
    drop(cache);
    assert_recovers_clean(path, acked);
    report
}

/// A second open after recovery: the compaction is finished and the
/// store is clean, with exactly `acked`.
fn assert_recovers_clean(path: &Path, acked: &[(CacheKey, f64)]) {
    assert!(
        !sealed_path_of(path).exists(),
        "recovery finished the compaction"
    );
    let cache = ResultCache::open(path).expect("reopen");
    assert!(!cache.recovery().had_damage(), "{:?}", cache.recovery());
    assert_eq!(cache.len(), acked.len());
    for (key, value) in acked {
        assert_eq!(cache.get(key).map(f64::to_bits), Some(value.to_bits()));
    }
}

#[test]
fn crash_after_rotation_loses_nothing() {
    let (path, acked) = crash_mid_compaction("rotated", CrashPoint::AfterRotation);
    assert!(sealed_path_of(&path).exists());
    let report = assert_recovers(&path, &acked);
    assert_eq!(
        (
            report.base.records,
            report.sealed.records,
            report.log.records
        ),
        (40, 40, 20)
    );
    let _ = fs::remove_dir_all(path.parent().expect("test dir"));
}

#[test]
fn crash_mid_base_write_loses_nothing() {
    let (path, acked) = crash_mid_compaction("midbase", CrashPoint::MidBaseWrite);
    assert!(tmp_path_of(&path).exists(), "a half-written base");
    let report = assert_recovers(&path, &acked);
    assert!(report.stale_tmp_ignored);
    assert_eq!(
        (
            report.base.records,
            report.sealed.records,
            report.log.records
        ),
        (40, 40, 20)
    );
    let _ = fs::remove_dir_all(path.parent().expect("test dir"));
}

#[test]
fn crash_after_base_rename_loses_nothing() {
    let (path, acked) = crash_mid_compaction("renamed", CrashPoint::AfterBaseRename);
    let report = assert_recovers(&path, &acked);
    // The published base already covers the sealed segment it was
    // about to delete; replaying both is idempotent.
    assert_eq!(
        (
            report.base.records,
            report.sealed.records,
            report.log.records
        ),
        (80, 40, 20)
    );
    let _ = fs::remove_dir_all(path.parent().expect("test dir"));
}

#[test]
fn torn_sealed_segment_keeps_its_prefix() {
    // A crash cannot tear a sealed segment (the log is synced before it
    // is sealed), so this is storage damage: it may cost the records
    // from the tear on, and nothing else — not the base, not the sealed
    // records before the tear, not the active log.
    let (path, mut acked) = crash_mid_compaction("tornsealed", CrashPoint::AfterRotation);
    let sealed = sealed_path_of(&path);
    let mut bytes = fs::read(&sealed).expect("sealed segment");
    let intact = scan_wal(&bytes);
    bytes.truncate(bytes.len() - 5);
    fs::write(&sealed, &bytes).expect("tear sealed segment");
    let (lost_key, _) = acked.remove(79);
    let cache = ResultCache::open(&path).expect("recover");
    let report = cache.recovery().clone();
    assert_eq!(report.sealed.records, 39);
    assert_eq!(report.sealed.torn_reason, Some("torn record body"));
    assert_eq!(
        report.sealed.torn_at,
        Some(intact.valid_len - (intact.valid_len / 40))
    );
    assert!(cache.get(&lost_key).is_none());
    drop(cache);
    assert_recovers_clean(&path, &acked);
    let _ = fs::remove_dir_all(path.parent().expect("test dir"));
}
