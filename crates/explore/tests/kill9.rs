//! The real-crash durability test: SIGKILL a writer child mid-append
//! under load, restart, and assert that every result the store
//! *acknowledged as durable* survived, bit-exact, and that replay
//! accounts for exactly the records on disk.
//!
//! The child is the `wal_torture` helper bin (built by cargo for this
//! crate, located via `CARGO_BIN_EXE_wal_torture`). It prints a flushed
//! `ACK` line only for sequence numbers at or below the durability
//! watermark — the store's own claim of what a crash cannot take. A
//! `kill -9` delivers no signal handler, no Drop, no final checkpoint:
//! whatever the WAL discipline actually made durable is all that's
//! left, which is exactly what this test audits.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gals_explore::{CacheKey, ResultCache};

/// One acknowledged record: (seq, value bits, key).
type Ack = (u64, u64, CacheKey);

fn parse_ack(line: &str) -> Option<Ack> {
    let mut it = line.split_whitespace();
    if it.next()? != "ACK" {
        return None;
    }
    let seq: u64 = it.next()?.parse().ok()?;
    let bits: u64 = it.next()?.parse().ok()?;
    let bench = it.next()?;
    let mode = it.next()?;
    let cfg = it.next()?;
    let window: u64 = it.next()?.parse().ok()?;
    Some((seq, bits, CacheKey::new(bench, mode, cfg, window)))
}

/// Spawns the torture child (compacting every `save_every` puts), kills
/// it once it has acknowledged `min_acks` records and run for at least
/// `linger`, recovers, and audits. The longer it runs, the larger its
/// base, and the more of its time — and of the kills — falls inside a
/// compaction.
fn kill9_round(policy: &str, save_every: &str, min_acks: usize, linger: Duration) {
    let tag = policy.replace(':', "-");
    let dir = std::env::temp_dir().join(format!("gals-kill9-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let path = dir.join("cache.json");

    let mut child = Command::new(env!("CARGO_BIN_EXE_wal_torture"))
        .arg(&path)
        .arg(policy)
        .arg(save_every)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wal_torture child");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));

    let mut acked: Vec<Ack> = Vec::new();
    let mut line = String::new();
    let started = Instant::now();
    // Keep draining the pipe while lingering, so the child never blocks
    // on a full stdout instead of working.
    while acked.len() < min_acks || started.elapsed() < linger {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "{policy}: child exited after {} acks", acked.len());
        acked.extend(parse_ack(&line));
    }

    // SIGKILL mid-append or mid-compaction: the child gets no chance to
    // flush, sync, or compact anything further.
    child.kill().expect("kill -9 the child");
    // Acks already written to the pipe before the kill landed still
    // count — the store acknowledged them.
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("drain child stdout");
    acked.extend(rest.lines().filter_map(parse_ack));
    child.wait().expect("reap child");

    // Restart: recovery replays base, sealed segment and active log.
    let cache = ResultCache::open(&path).expect("reopen after crash");
    let report = cache.recovery().clone();

    let mut lost = Vec::new();
    for (seq, bits, key) in &acked {
        match cache.get(key) {
            Some(v) if v.to_bits() == *bits => {}
            got => lost.push((*seq, *bits, got)),
        }
    }
    assert!(
        lost.is_empty(),
        "{policy}: {} acknowledged records lost after kill -9 \
         (first: {:?}; recovery: {report:?})",
        lost.len(),
        lost.first()
    );

    // Replay accounting: the child writes each key exactly once and
    // compacts on its own thread, so base and logs hold disjoint keys —
    // except that a kill between publishing a base and deleting the
    // sealed segment it covers leaves that segment's keys in both. The
    // recovered map size must be one of those two sums: nothing
    // double-counted, nothing silently dropped.
    let (base, sealed, log) = (
        report.base.records,
        report.sealed.records,
        report.log.records,
    );
    assert!(
        cache.len() == base + sealed + log || cache.len() == base + log,
        "{policy}: replay count mismatch (recovery: {report:?})"
    );
    assert!(
        cache.len() >= acked.len(),
        "{policy}: recovered fewer records than were acknowledged"
    );

    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill9_sync_always_loses_nothing_acknowledged() {
    // Every put is fsynced before it is acked; a compaction every 25
    // puts makes a good share of the kills land mid-compaction (log
    // sealed, base half-written or published, sealed segment not yet
    // deleted) under real crash conditions.
    for ms in [0, 5, 20, 60] {
        kill9_round("always", "25", 400, Duration::from_millis(ms));
    }
}

#[test]
fn kill9_sync_batched_loses_nothing_acknowledged() {
    // Acks trail appends by up to 8 records; everything acked must
    // still survive.
    for ms in [0, 5, 20, 60] {
        kill9_round("batch:8", "25", 400, Duration::from_millis(ms));
    }
}
