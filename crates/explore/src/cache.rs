//! Persistent runtime cache for sweep results — the system of record
//! for every measured (benchmark, config, window) runtime.
//!
//! The in-memory side is sharded: keys hash to one of [`SHARDS`]
//! independent `Mutex<FxHashMap>` shards, so concurrent sweep workers
//! recording results almost never contend. Both the shard selection and
//! the maps themselves use the seeded Fx hasher from
//! [`gals_common::fxmap`] — cache keys are trusted, internally
//! generated strings hashed on every job pop, where SipHash's DoS
//! resistance buys nothing.
//!
//! # On disk
//!
//! Persistence is a log-structured store of up to three files, all in
//! the one CRC-framed record format of [`crate::wal`]:
//!
//! - `<path>`, the **base**: a compacted snapshot of the whole map, one
//!   frame per entry;
//! - `<path>.wal.old`, the **sealed** segment: the log a compaction set
//!   aside, deleted once the base that covers it is durable;
//! - `<path>.wal`, the **active log**: every [`ResultCache::put`]
//!   appends one frame here.
//!
//! **Compaction** writes a new base from the in-memory map. It runs
//! when the active log has grown larger than the base (so it writes at
//! most as many bytes as fresh records have appended since the last
//! one), at once when a storage fault has degraded the log, and on
//! [`ResultCache::save`]. The WAL lock is held only to seal the log
//! (sync, rename to `.wal.old`, open a fresh `.wal`); the snapshot then
//! streams shard by shard into `<path>.tmp`, which is fsynced and
//! renamed over `<path>` before the sealed segment is deleted. Puts
//! continue throughout.
//!
//! **Recovery** ([`ResultCache::open`]) scans the base, then the sealed
//! segment, then the active log — write order, so later records win —
//! each up to its first torn frame. A crash at any instant (including
//! `kill -9` mid-append or mid-compaction) loses at most the records
//! the sync policy had not yet acknowledged, never the store. The
//! [`RecoveryReport`] gives per-file record counts and tear offsets,
//! and every damage path warns loudly on stderr with the byte offset
//! where trust ended. A base in the retired flat-JSON format is
//! reported as damage and not migrated: every entry is a deterministic,
//! recomputable simulation result.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use gals_common::fxmap::{fx_hash_bytes, FxHashMap};

use crate::wal::{encode_record, scan_wal, FileSink, SyncPolicy, Wal};

/// Number of independently locked shards. A small power of two is plenty:
/// the critical section is one map insert.
const SHARDS: usize = 16;

/// Seed decorrelating shard selection from the in-shard map hashing
/// (both hash the same key strings with the same algorithm; without a
/// distinct seed, every key in one shard would share low hash bits).
const SHARD_SEED: u64 = 0x5AAD_C0DE;

/// The active log must also outgrow this many bytes before it is
/// compacted, so a small cache is not rewritten after every batch.
const COMPACT_FLOOR_BYTES: u64 = 64 * 1024;

/// Key identifying one measured run: benchmark, machine style, config key,
/// and instruction window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// Builds a key. `mode` is `"sync"`, `"prog"`, or `"phase"`.
    pub fn new(bench: &str, mode: &str, config_key: &str, window: u64) -> Self {
        CacheKey(format!("{bench}|{mode}|{config_key}|{window}"))
    }

    /// The underlying string (stable across versions; used as the
    /// record key on disk).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Seeded Fx hash over the key string; used only for shard selection so
/// it needs to be fast and stable, not cryptographic. (Formerly FNV-1a,
/// which walked the key byte by byte; Fx consumes it a word at a time.)
fn shard_of(key: &str) -> usize {
    (fx_hash_bytes(SHARD_SEED, key.as_bytes()) as usize) % SHARDS
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The compaction temp path for a cache at `path` (`<path>.tmp`).
/// Compaction writes the new base here, fsyncs, then atomically renames
/// it over `path`.
pub fn tmp_path_of(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

/// The active log of a cache at `path` (`<path>.wal`).
pub fn wal_path_of(path: &Path) -> PathBuf {
    with_suffix(path, ".wal")
}

/// The sealed log segment of a cache at `path` (`<path>.wal.old`),
/// present only while a compaction is covering it.
pub fn sealed_path_of(path: &Path) -> PathBuf {
    with_suffix(path, ".wal.old")
}

/// Makes a rename or create in `path`'s directory durable. Best-effort:
/// where a directory cannot be opened or synced, the window is the OS
/// flush interval.
fn sync_dir_of(path: &Path) {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// What recovery found in one of the store's files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentReport {
    /// The file existed.
    pub present: bool,
    /// Records replayed from its valid prefix.
    pub records: usize,
    /// Byte offset of the first torn/corrupt frame (`None` when the
    /// file ended cleanly or was absent).
    pub torn_at: Option<u64>,
    /// Which check that frame failed.
    pub torn_reason: Option<&'static str>,
    /// Bytes discarded past the tear.
    pub discarded_bytes: u64,
}

/// What [`ResultCache::open`] found and salvaged, file by file. Callers
/// that care about durability (the serve layer, the crash harness, the
/// durability bench) read this instead of grepping stderr.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The base, `<path>`.
    pub base: SegmentReport,
    /// The sealed segment, `<path>.wal.old` (present only when a crash
    /// interrupted a compaction).
    pub sealed: SegmentReport,
    /// The active log, `<path>.wal`.
    pub log: SegmentReport,
    /// A stale `<path>.tmp` from an interrupted compaction was found
    /// (and ignored — the rename never happened, so it is untrusted).
    pub stale_tmp_ignored: bool,
}

impl RecoveryReport {
    /// True when anything on disk was damaged or left over — i.e. the
    /// previous process did not shut down cleanly.
    pub fn had_damage(&self) -> bool {
        self.stale_tmp_ignored
            || self.sealed.present
            || [&self.base, &self.sealed, &self.log]
                .iter()
                .any(|seg| seg.torn_at.is_some())
    }
}

/// The reason [`RecoveryReport`] gives for a base in the retired
/// flat-JSON format.
const LEGACY_JSON: &str = "legacy JSON checkpoint";

/// Steps of a compaction at which [`ResultCache::compact_and_crash`]
/// stops (crash testing only).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The log is sealed and a fresh one is open; no base written yet.
    AfterRotation,
    /// Half the snapshot is in `<path>.tmp`, ending in a torn frame.
    MidBaseWrite,
    /// The new base is published; the sealed segment is not yet
    /// deleted.
    AfterBaseRename,
}

/// A durable map from [`CacheKey`] to measured runtime in nanoseconds,
/// backed by a compacted base plus an append-only log, both in the
/// record format of [`crate::wal`].
///
/// The sweeps are embarrassingly cacheable: a (benchmark, config, window)
/// runtime never changes because everything in the simulator is
/// deterministic. Persisting them means `fig6_performance`,
/// `table9_distribution` and repeated bench invocations don't re-run the
/// 40 × 1,024 sweep.
///
/// All methods take `&self`; the cache is safe to share across sweep
/// worker threads.
#[derive(Debug)]
pub struct ResultCache {
    path: Option<PathBuf>,
    shards: Vec<Mutex<FxHashMap<String, f64>>>,
    /// Inserts since the last successful compaction.
    unsaved: AtomicUsize,
    /// Size of the base on disk, which the active log must outgrow
    /// before the next compaction.
    base_bytes: AtomicU64,
    /// Serializes compactions: at most one sealed segment exists.
    save_guard: Mutex<()>,
    /// The append-only log (file-backed caches only). Lock order is
    /// `save_guard`, then `wal`, then a shard: `put` drops its shard
    /// guard before touching the log, and a compaction that snapshots
    /// under the log lock takes the shards second.
    wal: Option<Mutex<Wal>>,
    /// Sequence source for in-memory caches (keeps `put`'s contract
    /// uniform when there is no WAL).
    mem_seq: AtomicU64,
    /// What recovery found when this cache was opened.
    recovery: RecoveryReport,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            path: None,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            unsaved: AtomicUsize::new(0),
            base_bytes: AtomicU64::new(0),
            save_guard: Mutex::new(()),
            wal: None,
            mem_seq: AtomicU64::new(0),
            recovery: RecoveryReport::default(),
        }
    }
}

impl ResultCache {
    /// An in-memory cache (tests). No WAL; every sequence number is
    /// trivially "durable" in the only store that exists.
    pub fn in_memory() -> Self {
        ResultCache::default()
    }

    /// Locks shard `idx`, recovering from poisoning: a sweep worker that
    /// panicked mid-insert leaves at worst one key/value pair it was
    /// inserting (both plain data, never half-written), so the map is
    /// safe to keep using — and one bad configuration must not abort
    /// every subsequent lookup in a long-lived server process.
    fn shard(&self, idx: usize) -> MutexGuard<'_, FxHashMap<String, f64>> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the WAL (file-backed caches only), recovering from
    /// poisoning: the WAL tracks its own degraded state, and a thread
    /// that panicked mid-append leaves at worst a torn frame that the
    /// next recovery truncates.
    fn wal_guard(&self) -> Option<MutexGuard<'_, Wal>> {
        self.wal
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Opens (or initializes) a cache at `path`, with the sync policy
    /// from `GALS_MCD_WAL_SYNC` (default `batch:64`).
    ///
    /// Recovery replays the base, the sealed segment and the active
    /// log, each up to its first torn/corrupt frame; damage is warned
    /// loudly on stderr with its byte offset and surfaced via
    /// [`ResultCache::recovery`]. A compaction a crash interrupted, or a
    /// damaged base, is then finished by compacting what survived.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found"; damaged file
    /// *contents* are recovered-and-reported, never fatal.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_policy(path, SyncPolicy::from_env())
    }

    /// [`ResultCache::open`] with an explicit WAL sync policy (the
    /// crash harness and the durability bench sweep policies without
    /// touching the environment).
    ///
    /// # Errors
    ///
    /// See [`ResultCache::open`].
    pub fn open_with_policy(path: impl AsRef<Path>, policy: SyncPolicy) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut cache = ResultCache::default();
        let mut report = RecoveryReport::default();

        // A stale temp file is an interrupted compaction: the rename
        // never happened, so its contents are untrusted — the other
        // files are authoritative.
        let tmp = tmp_path_of(&path);
        if tmp.exists() {
            eprintln!(
                "warning: result cache: ignoring stale compaction temp file {} \
                 (interrupted compaction; recovering from base + logs instead)",
                tmp.display()
            );
            let _ = fs::remove_file(&tmp);
            report.stale_tmp_ignored = true;
        }

        let mut last_seq = 0;
        let (base, base_len) = cache.replay(&path, &mut last_seq)?;
        (report.base, cache.base_bytes) = (base, AtomicU64::new(base_len));
        (report.sealed, _) = cache.replay(&sealed_path_of(&path), &mut last_seq)?;
        let wal_file = wal_path_of(&path);
        let (log, log_len) = cache.replay(&wal_file, &mut last_seq)?;
        report.log = log;
        // Opening the writer at the valid prefix length truncates a torn
        // tail, so new appends never land after garbage.
        let sink = Box::new(FileSink::open_at(&wal_file, log_len)?);
        cache.wal = Some(Mutex::new(Wal::new(sink, policy, last_seq, log_len)));
        cache.path = Some(path);
        if report.sealed.present || report.base.torn_at.is_some() {
            cache.compact(None)?;
        }
        cache.recovery = report;
        Ok(cache)
    }

    /// Replays one of the store's files into the shards, raising
    /// `last_seq` to its highest sequence number. Returns what it found
    /// and the length of its valid prefix.
    fn replay(&self, file: &Path, last_seq: &mut u64) -> io::Result<(SegmentReport, u64)> {
        let bytes = match fs::read(file) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((SegmentReport::default(), 0))
            }
            Err(e) => return Err(e),
        };
        let scan = scan_wal(&bytes);
        let mut seg = SegmentReport {
            present: true,
            records: scan.records.len(),
            ..SegmentReport::default()
        };
        if let (Some(off), Some(reason)) = (scan.corrupt_at, scan.corrupt_reason) {
            seg.torn_at = Some(off);
            seg.discarded_bytes = bytes.len() as u64 - scan.valid_len;
            if scan.valid_len == 0 && bytes.first() == Some(&b'{') {
                seg.torn_reason = Some(LEGACY_JSON);
                eprintln!(
                    "warning: result cache {}: ignoring a flat-JSON checkpoint written before \
                     the store switched to CRC-framed segments; its {} bytes are not migrated \
                     (every result is recomputed when next asked for)",
                    file.display(),
                    bytes.len()
                );
            } else {
                seg.torn_reason = Some(reason);
                eprintln!(
                    "warning: result cache {}: {reason} at byte {off}; replayed {} records, \
                     discarding {} bytes",
                    file.display(),
                    seg.records,
                    seg.discarded_bytes
                );
            }
        }
        if let Some(rec) = scan.records.last() {
            *last_seq = (*last_seq).max(rec.seq);
        }
        for rec in scan.records {
            self.shard(shard_of(&rec.key)).insert(rec.key, rec.value);
        }
        Ok((seg, scan.valid_len))
    }

    /// What recovery found when this cache was opened (all zeroes for
    /// in-memory caches and fresh files).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of cached measurements.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard(i).len()).sum()
    }

    /// True when no measurements are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a cached runtime (ns).
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        self.shard(shard_of(&key.0)).get(key.as_str()).copied()
    }

    /// Stores a measured runtime (ns) and returns its WAL sequence
    /// number. The record is *acknowledged-durable* only once
    /// [`ResultCache::durable_seq`] reaches that sequence — immediately
    /// under `GALS_MCD_WAL_SYNC=always`, at the next batch boundary /
    /// [`ResultCache::sync_wal`] / compaction otherwise.
    pub fn put(&self, key: CacheKey, runtime_ns: f64) -> u64 {
        // Shard map first, log second: every record of a log that
        // compaction seals is then already in the map, so the snapshot
        // taken after sealing covers it, and deleting the sealed
        // segment can never drop a record the base missed. (The shard
        // guard is a statement temporary, released before the WAL lock
        // is taken.)
        self.shard(shard_of(&key.0))
            .insert(key.0.clone(), runtime_ns);
        self.unsaved.fetch_add(1, Ordering::Relaxed);
        match self.wal_guard() {
            Some(mut wal) => wal.append(&key.0, runtime_ns),
            None => self.mem_seq.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Highest sequence number guaranteed to survive a crash right now
    /// (the WAL sync watermark; for in-memory caches, simply the last
    /// sequence issued).
    pub fn durable_seq(&self) -> u64 {
        match self.wal_guard() {
            Some(wal) => wal.synced_seq(),
            None => self.mem_seq.load(Ordering::Relaxed),
        }
    }

    /// Last sequence number issued by [`ResultCache::put`].
    pub fn last_seq(&self) -> u64 {
        match self.wal_guard() {
            Some(wal) => wal.last_seq(),
            None => self.mem_seq.load(Ordering::Relaxed),
        }
    }

    /// Forces every appended WAL record durable (fsync) without paying
    /// for a compaction.
    ///
    /// # Errors
    ///
    /// Fails when the WAL is degraded by an earlier storage fault; the
    /// records are still in memory and persist at the next successful
    /// compaction.
    pub fn sync_wal(&self) -> io::Result<()> {
        match self.wal_guard() {
            Some(mut wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Store upkeep after fresh results. Compacts when at least `batch`
    /// results were recorded since the last compaction *and* the active
    /// log has outgrown the base (and a 64 KiB floor), or at once when
    /// the log is degraded; otherwise returns without touching the
    /// base, so upkeep costs amortized O(1) per result whatever the
    /// cache size. Sweep workers call this after every fresh result; at
    /// most one of them compacts at a time. (Durability does not wait
    /// for this — `put` already appended to the log.)
    pub fn maybe_save_batched(&self, batch: usize) {
        if !self.compaction_due(batch) {
            return;
        }
        let guard = match self.save_guard.try_lock() {
            Ok(g) => Some(g),
            // A thread that panicked while holding the guard was only
            // doing file I/O; the in-memory state is intact.
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        if let Some(_guard) = guard {
            // Re-check under the guard; a concurrent compaction may
            // have run.
            if self.compaction_due(batch) {
                let _ = self.compact(None);
            }
        }
    }

    fn compaction_due(&self, batch: usize) -> bool {
        let Some(wal) = self.wal_guard() else {
            return false;
        };
        wal.is_degraded()
            || (self.unsaved.load(Ordering::Relaxed) >= batch
                && wal.bytes()
                    > self
                        .base_bytes
                        .load(Ordering::Relaxed)
                        .max(COMPACT_FLOOR_BYTES))
    }

    /// Compacts the cache if it changed since the last compaction
    /// (graceful-shutdown path). Afterwards `<path>` holds every result
    /// and the active log is empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self) -> io::Result<()> {
        if self.path.is_none() || self.unsaved.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let _guard = self
            .save_guard
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.compact(None)
    }

    /// Runs a compaction up to `at` and stops there, leaving the files
    /// as a crash at that step would. The crash suite then leaks the
    /// cache (so `Drop` saves nothing) and recovers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    #[doc(hidden)]
    pub fn compact_and_crash(&self, at: CrashPoint) -> io::Result<()> {
        let _guard = self
            .save_guard
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.compact(Some(at))
    }

    /// Writes a base that covers every record issued so far and retires
    /// the log segments it replaces (stopping early at `crash`, for
    /// crash tests). The caller holds `save_guard`. A crash at any point
    /// leaves files whose replay, in order, yields every record that
    /// was durable before it.
    fn compact(&self, crash: Option<CrashPoint>) -> io::Result<()> {
        let Some(path) = self.path.as_deref() else {
            return Ok(());
        };
        let (active, sealed) = (wal_path_of(path), sealed_path_of(path));
        let mut wal = self.wal_guard().expect("a file-backed cache has a log");
        // Read before the snapshot: results recorded during it may or
        // may not make this base, so their increments must survive (an
        // extra compaction later is cheap; an unpersisted result is not).
        let drained = self.unsaved.load(Ordering::Relaxed);
        if !sealed.exists() && wal.sync().is_ok() {
            // Seal the synced log and continue on a fresh one: the only
            // step under the WAL lock. (Should the fresh log fail to
            // open, appends go on into the sealed file, which recovery
            // reads, and the next compaction takes the branch below.)
            fs::rename(&active, &sealed)?;
            wal.restart(Box::new(FileSink::open_at(&active, 0)?));
            sync_dir_of(path);
            drop(wal);
            if crash == Some(CrashPoint::AfterRotation) {
                return Ok(());
            }
            self.write_base(path, crash)?;
        } else {
            // A degraded log, or a sealed segment a failed compaction
            // left behind: snapshot under the lock, so the base covers
            // every record issued so far, then restart the log empty.
            // This is what heals a degraded log.
            self.write_base(path, None)?;
            wal.restart(Box::new(FileSink::open_at(&active, 0)?));
        }
        if crash.is_some() {
            return Ok(());
        }
        match fs::remove_file(&sealed) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        self.unsaved.fetch_sub(drained, Ordering::Relaxed);
        Ok(())
    }

    /// Streams a snapshot of the map into `<path>.tmp`, one shard at a
    /// time (a shard's lock is held only while its entries are copied
    /// out), then publishes it as the base: fsync, rename over `path`,
    /// directory fsync.
    fn write_base(&self, path: &Path, crash: Option<CrashPoint>) -> io::Result<()> {
        let tmp = tmp_path_of(path);
        let mut out = BufWriter::new(fs::File::create(&tmp)?);
        let mut frame = Vec::with_capacity(128);
        let (mut seq, mut bytes) = (0u64, 0u64);
        for i in 0..SHARDS {
            if crash == Some(CrashPoint::MidBaseWrite) && i == SHARDS / 2 {
                out.write_all(&frame[..frame.len() / 2])?;
                return out.flush();
            }
            let mut entries: Vec<(String, f64)> =
                self.shard(i).iter().map(|(k, v)| (k.clone(), *v)).collect();
            // Sorted, so the same contents always make the same file.
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (key, value) in &entries {
                seq += 1;
                frame.clear();
                encode_record(seq, key, *value, &mut frame);
                out.write_all(&frame)?;
                bytes += frame.len() as u64;
            }
        }
        // The rename publishes this file, and the segments it replaces
        // are deleted after it: its contents must be on the platter
        // first, and so must the rename.
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(&tmp, path)?;
        sync_dir_of(path);
        self.base_bytes.store(bytes, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        // Best-effort final compaction; explicit save() reports errors.
        let _ = self.save();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FaultKind, FaultPlan, FaultySink, MemSink};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gals-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }

    #[test]
    fn keys_are_distinct() {
        let a = CacheKey::new("gcc", "sync", "cfgA", 1000);
        let b = CacheKey::new("gcc", "sync", "cfgA", 2000);
        let c = CacheKey::new("gcc", "prog", "cfgA", 1000);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn in_memory_round_trip() {
        let c = ResultCache::in_memory();
        let k = CacheKey::new("x", "sync", "cfg", 100);
        assert!(c.get(&k).is_none());
        assert_eq!(c.put(k.clone(), 42.5), 1, "sequences start at 1");
        assert_eq!(c.get(&k), Some(42.5));
        assert_eq!(c.len(), 1);
        assert_eq!(c.durable_seq(), 1, "in-memory: every seq is durable");
        assert!(c.save().is_ok(), "in-memory save is a no-op");
    }

    #[test]
    fn file_round_trip() {
        let dir = test_dir("roundtrip");
        let path = dir.join("cache.json");
        {
            let c = ResultCache::open(&path).unwrap();
            assert!(c.is_empty());
            c.put(CacheKey::new("b", "phase", "k", 7), 9.25);
            c.save().unwrap();
        }
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.get(&CacheKey::new("b", "phase", "k", 7)), Some(9.25));
        assert!(!c.recovery().had_damage(), "clean shutdown, clean open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_cache_recovers_valid_prefix() {
        let dir = test_dir("bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        // A flat-JSON checkpoint from before the format change is
        // reported as damage and not migrated.
        fs::write(&path, r#"{"a|sync|k|1":1.5,"b|sync|k|2":2.5}"#).unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert!(c.is_empty(), "legacy entries are recomputed, not migrated");
        assert!(c.recovery().had_damage());
        assert_eq!(c.recovery().base.torn_at, Some(0));
        assert_eq!(c.recovery().base.torn_reason, Some(LEGACY_JSON));
        for (i, v) in [1.5, 2.5, 3.5].into_iter().enumerate() {
            c.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), v);
        }
        drop(c);
        // A base torn mid-frame keeps every complete frame before the
        // tear, reports where it stopped, and is rewritten whole.
        let mut base = fs::read(&path).unwrap();
        base.truncate(base.len() - 5);
        fs::write(&path, &base).unwrap();
        let survivors = scan_wal(&base);
        assert_eq!(survivors.records.len(), 2);
        let c = ResultCache::open(&path).unwrap();
        let report = c.recovery().clone();
        assert_eq!(c.len(), 2);
        assert_eq!(report.base.records, 2);
        assert_eq!(report.base.torn_at, Some(survivors.valid_len));
        assert_eq!(report.base.torn_reason, Some("torn record body"));
        assert!(report.base.discarded_bytes > 0);
        for rec in &survivors.records {
            assert_eq!(c.shard(shard_of(&rec.key)).get(&rec.key), Some(&rec.value));
        }
        drop(c);
        let c = ResultCache::open(&path).unwrap();
        assert!(!c.recovery().had_damage(), "open rewrote the torn base");
        assert_eq!(c.len(), 2);
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_values_round_trip_exactly() {
        let dir = test_dir("float");
        let path = dir.join("cache.json");
        let values = [
            0.1 + 0.2,
            1.0 / 3.0,
            123_456_789.000_001,
            4.0,
            f64::MIN_POSITIVE,
        ];
        {
            let c = ResultCache::open(&path).unwrap();
            for (i, v) in values.iter().enumerate() {
                c.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), *v);
            }
            c.save().unwrap();
        }
        let c = ResultCache::open(&path).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                c.get(&CacheKey::new("b", "sync", &format!("k{i}"), 1)),
                Some(*v),
                "value {i} must round-trip bit-exactly"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_save_defers_until_threshold() {
        let dir = test_dir("batch");
        let path = dir.join("cache.json");
        let c = ResultCache::open_with_policy(&path, SyncPolicy::None).unwrap();
        let mut i = 0;
        let mut put = |c: &ResultCache| {
            c.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), 1.0);
            i += 1;
        };
        for _ in 0..8 {
            put(&c);
        }
        c.maybe_save_batched(8);
        assert!(
            !path.exists(),
            "log below the compaction floor: no base yet"
        );
        while file_len(&wal_path_of(&path)) <= COMPACT_FLOOR_BYTES {
            put(&c);
        }
        c.maybe_save_batched(usize::MAX);
        assert!(!path.exists(), "fewer fresh results than the batch");
        c.maybe_save_batched(8);
        assert!(path.exists(), "log outgrew the floor: base written");
        assert_eq!(file_len(&wal_path_of(&path)), 0, "and the log restarted");
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaped_keys_survive() {
        let dir = test_dir("esc");
        let path = dir.join("cache.json");
        let weird = CacheKey::new("a\"b\\c", "sync", "k\tx\u{1F600}", 3);
        {
            let c = ResultCache::open(&path).unwrap();
            c.put(weird.clone(), 2.5);
            c.save().unwrap();
        }
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.get(&weird), Some(2.5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_is_atomic_and_truncates_wal() {
        let dir = test_dir("ckpt");
        let path = dir.join("cache.json");
        let c = ResultCache::open_with_policy(&path, SyncPolicy::Always).unwrap();
        for i in 0..10 {
            c.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), i as f64);
        }
        assert!(
            file_len(&wal_path_of(&path)) > 0,
            "puts land in the log before any compaction"
        );
        c.save().unwrap();
        assert!(!tmp_path_of(&path).exists(), "tmp renamed away");
        assert!(!sealed_path_of(&path).exists(), "sealed segment deleted");
        assert_eq!(file_len(&wal_path_of(&path)), 0, "fresh active log");
        // Reopen: all 10 come from the base, none from a log.
        drop(c);
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.recovery().base.records, 10);
        assert_eq!(c.recovery().log.records, 0);
        assert!(!c.recovery().sealed.present);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn puts_survive_without_any_checkpoint() {
        // Simulate a crash before the first compaction: leak the cache
        // so Drop's save() never runs, then recover from the log alone.
        let dir = test_dir("walonly");
        let path = dir.join("cache.json");
        let c = ResultCache::open_with_policy(&path, SyncPolicy::Always).unwrap();
        c.put(CacheKey::new("b", "sync", "k", 9), 0.1 + 0.2);
        c.put(CacheKey::new("b", "prog", "k", 9), 1.0 / 3.0);
        assert_eq!(c.durable_seq(), 2);
        std::mem::forget(c);
        assert!(!path.exists(), "no base was ever written");
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.recovery().log.records, 2);
        assert_eq!(c.get(&CacheKey::new("b", "sync", "k", 9)), Some(0.1 + 0.2));
        assert_eq!(c.get(&CacheKey::new("b", "prog", "k", 9)), Some(1.0 / 3.0));
        assert_eq!(c.put(CacheKey::new("b", "sync", "k", 10), 1.0), 3);
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_file_is_ignored_on_open() {
        let dir = test_dir("tmp");
        let path = dir.join("cache.json");
        {
            let c = ResultCache::open(&path).unwrap();
            c.put(CacheKey::new("b", "sync", "real", 1), 7.0);
            c.save().unwrap();
        }
        // An interrupted compaction left a half-written temp file.
        let mut bogus = Vec::new();
        encode_record(1, "b|sync|bogus|1", 99.0, &mut bogus);
        bogus.truncate(bogus.len() - 3);
        fs::write(tmp_path_of(&path), &bogus).unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert!(c.recovery().stale_tmp_ignored);
        assert_eq!(c.get(&CacheKey::new("b", "sync", "real", 1)), Some(7.0));
        assert!(c.get(&CacheKey::new("b", "sync", "bogus", 1)).is_none());
        assert!(!tmp_path_of(&path).exists(), "stale tmp cleaned up");
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_contents_make_the_same_base() {
        let dir = test_dir("same");
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        for (path, rev) in [(&a, false), (&b, true)] {
            let c = ResultCache::open_with_policy(path, SyncPolicy::None).unwrap();
            let mut order: Vec<u64> = (0..500).collect();
            if rev {
                order.reverse();
            }
            for i in order {
                c.put(CacheKey::new("b", "sync", &format!("k{i}"), 1), i as f64);
            }
            c.save().unwrap();
        }
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Store upkeep is pinned in bytes, not time: after a large base is
    /// compacted, a batch of fresh results costs exactly its own log
    /// frames until the log outgrows the base, and the first batch past
    /// that point compacts.
    #[test]
    fn upkeep_scales_with_new_records_not_cache_size() {
        const BATCH: usize = 256;
        let dir = test_dir("upkeep");
        let path = dir.join("cache.json");
        let wal = wal_path_of(&path);
        let c = ResultCache::open_with_policy(&path, SyncPolicy::None).unwrap();
        let key = |i: usize| CacheKey::new("bench", "sync", &format!("cfg{i:07}"), 4000);
        for i in 0..100_000 {
            c.put(key(i), i as f64 * 0.5 + 0.25);
        }
        c.save().unwrap();
        let base = fs::read(&path).unwrap();
        assert_eq!(scan_wal(&base).records.len(), 100_000);
        assert_eq!(file_len(&wal), 0);

        let mut next = 100_000;
        let mut batch = |c: &ResultCache| {
            let mut frames = Vec::new();
            for _ in 0..BATCH {
                let value = next as f64 * 0.5 + 0.25;
                let seq = c.put(key(next), value);
                encode_record(seq, key(next).as_str(), value, &mut frames);
                next += 1;
            }
            frames
        };
        let frames = batch(&c);
        c.maybe_save_batched(BATCH);
        assert_eq!(fs::read(&path).unwrap(), base, "base untouched");
        assert_eq!(
            fs::read(&wal).unwrap(),
            frames,
            "log grew by the batch's frames"
        );

        let base_len = base.len() as u64;
        let mut logged = frames.len() as u64;
        loop {
            let frames = batch(&c);
            logged += frames.len() as u64;
            assert_eq!(file_len(&wal), logged);
            c.maybe_save_batched(BATCH);
            if logged > base_len {
                break;
            }
            assert_eq!(
                file_len(&path),
                base_len,
                "compacted before the log outgrew the base"
            );
            assert_eq!(file_len(&wal), logged);
        }
        assert_eq!(file_len(&wal), 0, "first batch past the base compacts");
        assert!(!sealed_path_of(&path).exists());
        let compacted = scan_wal(&fs::read(&path).unwrap());
        assert_eq!(compacted.corrupt_at, None);
        assert_eq!(compacted.records.len(), next);
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_log_compacts_at_once() {
        let dir = test_dir("degraded");
        let path = dir.join("cache.json");
        let c = ResultCache::open_with_policy(&path, SyncPolicy::Always).unwrap();
        c.put(CacheKey::new("b", "sync", "before", 1), 1.5);
        c.save().unwrap();
        let base = fs::read(&path).unwrap();
        // The log device starts rejecting writes.
        let dead = FaultySink::new(
            MemSink::default(),
            FaultPlan {
                fail_at_byte: 0,
                kind: FaultKind::Reject,
            },
        );
        c.wal_guard().unwrap().restart(Box::new(dead));
        let seq = c.put(CacheKey::new("b", "sync", "after", 1), 2.5);
        assert!(c.durable_seq() < seq, "a rejected append is not durable");
        c.maybe_save_batched(usize::MAX);
        assert_ne!(fs::read(&path).unwrap(), base, "compacted without waiting");
        assert_eq!(c.durable_seq(), seq, "the base made it durable");
        assert!(!c.wal_guard().unwrap().is_degraded(), "log healed");
        std::mem::forget(c);
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.get(&CacheKey::new("b", "sync", "after", 1)), Some(2.5));
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }
}
