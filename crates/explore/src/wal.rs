//! The CRC-framed record format of the result cache, and the writer
//! of its append-only log.
//!
//! Every [`ResultCache::put`](crate::ResultCache::put) appends one
//! checksummed, length-prefixed record to the active log *before* the
//! result is acknowledged as durable, so a crash — a `kill -9`, a power
//! cut, a full disk — loses at most the records the configured sync
//! policy had not yet flushed, never the whole store. The cache's
//! compacted base and sealed log segment are files of the same frames,
//! so one scanner ([`scan_wal`]) recovers all three.
//!
//! # Record framing
//!
//! ```text
//! [len: u32 LE]   payload length (bytes, >= 16)
//! [crc: u32 LE]   CRC-32 (IEEE) over the payload
//! payload:
//!   [seq:   u64 LE]   sequence number, strictly monotone within a file
//!   [value: u64 LE]   the f64 runtime, as raw bits (exact round trip)
//!   [key:   UTF-8]    the cache-key string (len - 16 bytes)
//! ```
//!
//! Recovery ([`scan_wal`]) replays a file's records in order and stops
//! **at the first frame that fails any check** — torn header,
//! implausible length, torn body, checksum mismatch, non-monotone
//! sequence, or non-UTF-8 key. Everything before the damage is
//! recovered; everything after it is untrusted by construction (appends
//! are strictly sequential, so bytes past a torn frame can only be noise
//! from the interrupted write). The log writer then truncates the active
//! log to the valid prefix so later appends never land after garbage.
//!
//! # Sync policy
//!
//! `GALS_MCD_WAL_SYNC` selects how eagerly appends reach the platter:
//! `always` (fsync per record — every acknowledged put survives any
//! crash), `batch:N` (fsync every N records — bounded loss window,
//! default `batch:64`), or `none` (no explicit sync — the OS flushes
//! when it pleases). [`Wal::synced_seq`] is the durability watermark:
//! records at or below it are acknowledged-durable and must survive,
//! which is exactly what the kill-9 harness asserts.
//!
//! # Fault injection
//!
//! The writer talks to storage through the [`WalSink`] seam.
//! Production uses [`FileSink`]; the crash suite wraps it in
//! [`FaultySink`], which injects a torn write, a rejected write, or a
//! sync failure at a deterministic seeded byte offset — so "the disk
//! died mid-append" is an ordinary, reproducible unit test instead of
//! a hope.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use gals_common::SplitMix64;

/// Bytes of `len` + `crc` prefix before each record payload.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Fixed payload bytes (`seq` + value bits) before the key.
pub const RECORD_FIXED_BYTES: usize = 16;

/// Upper bound on one record's payload. Cache keys are short
/// (`bench|mode|config|window`); anything near this bound is corruption
/// masquerading as a length, and rejecting it keeps a damaged length
/// field from swallowing the rest of the log as one "record".
pub const MAX_RECORD_PAYLOAD: usize = 1 << 16;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// table, built at compile time — the workspace has no registry access,
/// so the checksum is hand-rolled like the JSON codec.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one framed record to `out` (see the module docs for the
/// layout).
pub fn encode_record(seq: u64, key: &str, value: f64, out: &mut Vec<u8>) {
    let payload_len = RECORD_FIXED_BYTES + key.len();
    assert!(
        payload_len <= MAX_RECORD_PAYLOAD,
        "cache key too long for a WAL record: {} bytes",
        key.len()
    );
    let start = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&value.to_bits().to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    let crc = crc32(&out[start + RECORD_HEADER_BYTES..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// The cache-key string.
    pub key: String,
    /// The stored runtime (bit-exact).
    pub value: f64,
}

/// Outcome of scanning a WAL image: the records of the longest valid
/// prefix, and where (and why) the scan stopped if the image does not
/// end cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Records replayed, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix (the truncation point).
    pub valid_len: u64,
    /// Byte offset of the first torn/corrupt frame (`== valid_len`);
    /// `None` when the image ends cleanly on a record boundary.
    pub corrupt_at: Option<u64>,
    /// Which check the first bad frame failed.
    pub corrupt_reason: Option<&'static str>,
}

/// Replays a WAL image, stopping cleanly at the first damaged frame
/// (see the module docs for the checks). Pure over bytes, so the crash
/// suite can fuzz it without touching a filesystem.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = 0u64;
    let stop = |records: Vec<WalRecord>, pos: usize, reason: &'static str| WalScan {
        records,
        valid_len: pos as u64,
        corrupt_at: Some(pos as u64),
        corrupt_reason: Some(reason),
    };
    loop {
        if pos == bytes.len() {
            return WalScan {
                records,
                valid_len: pos as u64,
                corrupt_at: None,
                corrupt_reason: None,
            };
        }
        if bytes.len() - pos < RECORD_HEADER_BYTES {
            return stop(records, pos, "torn record header");
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if !(RECORD_FIXED_BYTES..=MAX_RECORD_PAYLOAD).contains(&len) {
            return stop(records, pos, "implausible record length");
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - RECORD_HEADER_BYTES < len {
            return stop(records, pos, "torn record body");
        }
        let payload = &bytes[pos + RECORD_HEADER_BYTES..pos + RECORD_HEADER_BYTES + len];
        if crc32(payload) != crc {
            return stop(records, pos, "checksum mismatch");
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        if seq <= last_seq {
            return stop(records, pos, "non-monotone sequence number");
        }
        let bits = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let Ok(key) = std::str::from_utf8(&payload[RECORD_FIXED_BYTES..]) else {
            return stop(records, pos, "non-utf8 key");
        };
        last_seq = seq;
        records.push(WalRecord {
            seq,
            key: key.to_string(),
            value: f64::from_bits(bits),
        });
        pos += RECORD_HEADER_BYTES + len;
    }
}

/// How eagerly appended records are fsynced (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: each acknowledged put survives any
    /// crash, at one device round trip per record.
    Always,
    /// fsync after every N appends (and on compaction/shutdown): loss
    /// window bounded at N-1 acknowledged-but-unsynced records.
    Batch(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    /// Fastest, weakest — nothing is acknowledged-durable.
    None,
}

impl SyncPolicy {
    /// The default policy (`batch:64`): bounded loss without paying a
    /// device sync per sweep result.
    pub const DEFAULT: SyncPolicy = SyncPolicy::Batch(64);

    /// Parses `always` / `batch:N` (N ≥ 1) / `none`.
    pub fn parse(raw: &str) -> Option<SyncPolicy> {
        match raw.trim() {
            "always" => Some(SyncPolicy::Always),
            "none" => Some(SyncPolicy::None),
            other => {
                let n: u64 = other.strip_prefix("batch:")?.parse().ok()?;
                (n >= 1).then_some(SyncPolicy::Batch(n))
            }
        }
    }

    /// Reads `GALS_MCD_WAL_SYNC`, falling back to [`SyncPolicy::DEFAULT`]
    /// with one loud stderr warning on a malformed value (the
    /// [`gals_common::env::parse_env_or`] discipline: a misspelled
    /// override must never be indistinguishable from a working one).
    pub fn from_env() -> SyncPolicy {
        match gals_common::env::var("GALS_MCD_WAL_SYNC") {
            None => SyncPolicy::DEFAULT,
            Some(raw) => SyncPolicy::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "warning: ignoring malformed GALS_MCD_WAL_SYNC={raw:?}: expected \
                     always | batch:N | none; using default {}",
                    SyncPolicy::DEFAULT
                );
                SyncPolicy::DEFAULT
            }),
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            SyncPolicy::None => write!(f, "none"),
        }
    }
}

/// The storage seam the WAL writer appends through. Production is
/// [`FileSink`]; the crash suite substitutes [`FaultySink`].
pub trait WalSink: Send + fmt::Debug {
    /// Appends `buf` in full, or fails having written some prefix of it
    /// (exactly like an interrupted `write(2)` — the caller must treat
    /// the on-disk tail as torn).
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes everything appended so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// A real WAL file.
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Opens (creating if missing) the WAL at `path`, truncates it to
    /// `valid_len` — recovery's valid prefix, so appends never land
    /// after a torn tail — and positions at the end.
    pub fn open_at(path: &Path, valid_len: u64) -> io::Result<FileSink> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut sink = FileSink { file };
        sink.file.seek(SeekFrom::Start(valid_len))?;
        Ok(sink)
    }
}

impl WalSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// An in-memory sink whose "disk" is only what was synced: the
/// strictest crash model (an OS may keep unsynced pages, but a store
/// must not depend on it). Unit tests and the framing proptest use it
/// to simulate power loss without a filesystem.
#[derive(Debug, Default)]
pub struct MemSink {
    /// Everything appended.
    pub bytes: Vec<u8>,
    /// Prefix length guaranteed durable (advanced by `sync`).
    pub synced_len: usize,
}

impl MemSink {
    /// The bytes a crash right now would leave behind: the synced
    /// prefix only.
    pub fn crash_image(&self) -> &[u8] {
        &self.bytes[..self.synced_len]
    }
}

impl WalSink for MemSink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.synced_len = self.bytes.len();
        Ok(())
    }
}

/// What a [`FaultySink`] does when the write cursor crosses its
/// trigger offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The append writes a prefix of the buffer, then fails — a torn
    /// write, the classic crash-mid-append shape.
    Torn,
    /// The append fails without writing anything (`EIO` up front).
    Reject,
    /// Appends succeed but the next `sync` fails — the fsync-gate
    /// shape: acknowledgement must not advance.
    SyncFail,
}

/// Deterministic fault plan: trip [`FaultKind`] once the cumulative
/// appended byte count reaches `fail_at_byte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cumulative appended-byte offset at which the fault fires.
    pub fail_at_byte: u64,
    /// The failure shape.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A plan whose trigger offset is drawn deterministically from
    /// `seed` in `[lo, hi]` — reproducible "random" crash points.
    pub fn seeded(seed: u64, lo: u64, hi: u64, kind: FaultKind) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        FaultPlan {
            fail_at_byte: rng.next_range(lo, hi),
            kind,
        }
    }
}

/// A [`WalSink`] that forwards to an inner sink until its [`FaultPlan`]
/// trips, then fails every subsequent operation (the device is gone;
/// the interesting question is what recovery makes of the bytes that
/// landed).
#[derive(Debug)]
pub struct FaultySink<S: WalSink> {
    inner: S,
    plan: FaultPlan,
    written: u64,
    tripped: bool,
}

impl<S: WalSink> FaultySink<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultySink<S> {
        FaultySink {
            inner,
            plan,
            written: 0,
            tripped: false,
        }
    }

    /// Whether the fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The wrapped sink (to inspect the post-crash image).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

fn faulted() -> io::Error {
    io::Error::other("injected storage fault")
}

impl<S: WalSink> WalSink for FaultySink<S> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.tripped {
            return Err(faulted());
        }
        let end = self.written + buf.len() as u64;
        match self.plan.kind {
            FaultKind::Torn | FaultKind::Reject if end > self.plan.fail_at_byte => {
                self.tripped = true;
                if self.plan.kind == FaultKind::Torn {
                    // Land the prefix up to the fault offset, like an
                    // interrupted write(2).
                    let keep = (self.plan.fail_at_byte.saturating_sub(self.written)) as usize;
                    let _ = self.inner.append(&buf[..keep]);
                    let _ = self.inner.sync();
                }
                Err(faulted())
            }
            _ => {
                self.written = end;
                self.inner.append(buf)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(faulted());
        }
        if self.plan.kind == FaultKind::SyncFail && self.written >= self.plan.fail_at_byte {
            self.tripped = true;
            return Err(faulted());
        }
        self.inner.sync()
    }
}

/// The WAL writer: assigns sequence numbers, frames records, applies
/// the sync policy, and tracks the durability watermark.
///
/// Not internally synchronized — the cache wraps it in a `Mutex` (one
/// append per measured sweep result; nowhere near the per-instruction
/// hot path).
#[derive(Debug)]
pub struct Wal {
    sink: Box<dyn WalSink>,
    policy: SyncPolicy,
    /// Last sequence number assigned.
    last_seq: u64,
    /// Highest sequence number known durable (≤ `last_seq`).
    synced_seq: u64,
    /// Appends since the last successful sync.
    pending: u64,
    /// Bytes of framed records in the sink (what compaction weighs
    /// against the base).
    bytes: u64,
    /// Reusable frame buffer.
    buf: Vec<u8>,
    /// Set after a failed append/sync: the on-disk tail is untrusted,
    /// so further appends are skipped (they would land after garbage
    /// and be unreadable anyway) until compaction restarts the log.
    broken: bool,
}

impl Wal {
    /// A writer over `sink`, which already holds `bytes` bytes of
    /// records, continuing the sequence after `last_seq` (recovery's
    /// highest replayed sequence; everything already in the sink is
    /// considered durable).
    pub fn new(sink: Box<dyn WalSink>, policy: SyncPolicy, last_seq: u64, bytes: u64) -> Wal {
        Wal {
            sink,
            policy,
            last_seq,
            synced_seq: last_seq,
            pending: 0,
            bytes,
            buf: Vec::with_capacity(128),
            broken: false,
        }
    }

    /// Appends one record and applies the sync policy. Returns the
    /// record's sequence number; whether that sequence is *durable* is
    /// a separate question — compare against [`Wal::synced_seq`].
    ///
    /// Storage errors do not panic (one bad disk must not take down a
    /// serving process whose in-memory cache is intact): the WAL goes
    /// into degraded mode with one loud stderr warning, and durability
    /// resumes at the next successful compaction.
    pub fn append(&mut self, key: &str, value: f64) -> u64 {
        self.last_seq += 1;
        let seq = self.last_seq;
        if self.broken {
            return seq;
        }
        self.buf.clear();
        encode_record(seq, key, value, &mut self.buf);
        if let Err(e) = self.sink.append(&self.buf) {
            self.degrade("append", &e);
            return seq;
        }
        self.bytes += self.buf.len() as u64;
        self.pending += 1;
        match self.policy {
            SyncPolicy::Always => self.sync_now(),
            SyncPolicy::Batch(n) if self.pending >= n => self.sync_now(),
            _ => {}
        }
        seq
    }

    fn sync_now(&mut self) {
        match self.sink.sync() {
            Ok(()) => {
                self.synced_seq = self.last_seq;
                self.pending = 0;
            }
            Err(e) => self.degrade("sync", &e),
        }
    }

    fn degrade(&mut self, op: &str, e: &io::Error) {
        eprintln!(
            "warning: result-cache WAL {op} failed ({e}); durability degraded — \
             results stay in memory and will persist at the next successful compaction"
        );
        self.broken = true;
    }

    /// Forces a sync (graceful shutdown, before the log is sealed).
    ///
    /// # Errors
    ///
    /// Propagates the sink's sync failure (the watermark stays put).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("WAL degraded since an earlier fault"));
        }
        if self.pending > 0 {
            self.sink.sync()?;
            self.synced_seq = self.last_seq;
            self.pending = 0;
        }
        Ok(())
    }

    /// Continues the log on an empty `sink` once every record ≤
    /// `last_seq` is durable elsewhere (in a synced sealed segment, or
    /// in a compacted base); heals degraded mode (the torn tail stays
    /// behind with the old sink).
    pub fn restart(&mut self, sink: Box<dyn WalSink>) {
        self.sink = sink;
        self.synced_seq = self.last_seq;
        self.pending = 0;
        self.bytes = 0;
        self.broken = false;
    }

    /// Bytes of framed records in the current sink.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Last assigned sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The durability watermark: sequences ≤ this survived every crash
    /// that can still happen.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Whether a storage fault has the WAL in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.broken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_all(records: &[(u64, &str, f64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(seq, key, value) in records {
            encode_record(seq, key, value, &mut out);
        }
        out
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_scan() {
        let recs = [(1, "a|sync|k|100", 1.5), (2, "b|prog|k2|200", -0.25)];
        let bytes = encode_all(&recs);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.corrupt_at, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].key, "a|sync|k|100");
        assert_eq!(scan.records[1].value, -0.25);
    }

    #[test]
    fn truncation_stops_cleanly_at_every_cut() {
        let recs = [(1, "k1", 1.0), (2, "k2", 2.0), (3, "k3", 3.0)];
        let bytes = encode_all(&recs);
        let full = scan_wal(&bytes).records;
        for cut in 0..bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            assert_eq!(
                scan.records,
                full[..scan.records.len()],
                "prefix property violated at cut {cut}"
            );
            // Each frame here is 26 bytes (8 header + 16 fixed + 2 key):
            // a cut on a frame boundary is a clean EOF, anything else
            // must report a torn record at the boundary before it.
            if cut % 26 == 0 {
                assert_eq!(scan.corrupt_at, None, "cut {cut} is a clean boundary");
                assert_eq!(scan.valid_len, cut as u64);
            } else {
                assert_eq!(scan.corrupt_at, Some(scan.valid_len), "cut {cut}");
                assert_eq!(scan.valid_len, (cut / 26 * 26) as u64, "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_flips_never_yield_garbage_records() {
        let recs = [(1, "key-one", 0.5), (2, "key-two", 7.25)];
        let bytes = encode_all(&recs);
        let full = scan_wal(&bytes).records;
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x40;
            let scan = scan_wal(&damaged);
            // Every replayed record is a genuine prefix record — a
            // flipped byte may truncate the log, never corrupt a value.
            assert_eq!(scan.records, full[..scan.records.len()], "flip at {i}");
            assert!(scan.records.len() < full.len(), "flip at {i} undetected");
        }
    }

    #[test]
    fn non_monotone_sequence_rejected() {
        let bytes = encode_all(&[(5, "a", 1.0), (5, "b", 2.0)]);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.corrupt_reason, Some("non-monotone sequence number"));
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse(" none "), Some(SyncPolicy::None));
        assert_eq!(SyncPolicy::parse("batch:8"), Some(SyncPolicy::Batch(8)));
        assert_eq!(SyncPolicy::parse("batch:0"), None);
        assert_eq!(SyncPolicy::parse("batch:"), None);
        assert_eq!(SyncPolicy::parse("fsync"), None);
    }

    #[test]
    fn watermark_tracks_policy() {
        let mut wal = Wal::new(Box::new(MemSink::default()), SyncPolicy::Batch(2), 0, 0);
        let s1 = wal.append("k1", 1.0);
        assert_eq!(s1, 1);
        assert_eq!(wal.synced_seq(), 0, "batch of 2 not reached");
        let s2 = wal.append("k2", 2.0);
        assert_eq!(wal.synced_seq(), s2, "batch boundary syncs");
        wal.append("k3", 3.0);
        assert_eq!(wal.synced_seq(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.synced_seq(), 3);
    }

    #[test]
    fn torn_write_loses_only_unacknowledged_records() {
        // Fault strikes mid-append at a seeded offset; every record
        // acknowledged (synced) before the tear must still scan out of
        // the crash image, bit-exact, and the scan must stop cleanly at
        // the torn frame rather than inventing data past it.
        for seed in 0..20u64 {
            let plan = FaultPlan::seeded(seed, 30, 400, FaultKind::Torn);
            let mut sink = FaultySink::new(MemSink::default(), plan);
            let mut acked: Vec<(String, f64)> = Vec::new();
            let mut frame = Vec::new();
            for i in 0..32u64 {
                let key = format!("bench|mode|cfg{i}|1000");
                let value = i as f64 * 0.5 + 0.125;
                frame.clear();
                encode_record(acked.len() as u64 + 1, &key, value, &mut frame);
                if sink.append(&frame).is_ok() && sink.sync().is_ok() {
                    acked.push((key, value));
                }
            }
            assert!(sink.tripped(), "seed {seed}: plan must trip within run");
            let scan = scan_wal(sink.inner().crash_image());
            assert!(
                scan.records.len() >= acked.len(),
                "seed {seed}: lost acknowledged records ({} < {})",
                scan.records.len(),
                acked.len()
            );
            for (rec, (key, value)) in scan.records.iter().zip(&acked) {
                assert_eq!(&rec.key, key, "seed {seed}");
                assert_eq!(rec.value.to_bits(), value.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn wal_degrades_without_panicking_on_torn_append() {
        let plan = FaultPlan::seeded(7, 50, 200, FaultKind::Torn);
        let mut wal = Wal::new(
            Box::new(FaultySink::new(MemSink::default(), plan)),
            SyncPolicy::Always,
            0,
            0,
        );
        let mut seqs = Vec::new();
        for i in 0..32 {
            seqs.push(wal.append(&format!("bench|mode|cfg{i}|1000"), i as f64));
        }
        assert!(wal.is_degraded(), "fault within 200 bytes must trip");
        // Sequence numbers stay monotone even across the fault, and the
        // watermark froze at the last pre-fault sync.
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(wal.synced_seq() < *seqs.last().expect("nonempty"));
        assert!(wal.sync().is_err(), "degraded sync must not claim success");
    }

    #[test]
    fn sync_fault_freezes_watermark() {
        let plan = FaultPlan {
            fail_at_byte: 100,
            kind: FaultKind::SyncFail,
        };
        let mut wal = Wal::new(
            Box::new(FaultySink::new(MemSink::default(), plan)),
            SyncPolicy::Always,
            0,
            0,
        );
        let mut last_good = 0;
        for i in 0..16 {
            let seq = wal.append(&format!("k{i}"), 1.0);
            if !wal.is_degraded() {
                last_good = seq;
            }
        }
        assert!(wal.is_degraded());
        assert_eq!(
            wal.synced_seq(),
            last_good,
            "a failed fsync must not advance acknowledgement"
        );
    }

    #[test]
    fn checkpoint_truncation_heals_degraded_mode() {
        // Compaction covers the degraded log's records in the base and
        // restarts the log on an empty sink: appends resume there, the
        // watermark covers everything issued, and sequences continue.
        let plan = FaultPlan {
            fail_at_byte: 40,
            kind: FaultKind::Reject,
        };
        let mut wal = Wal::new(
            Box::new(FaultySink::new(MemSink::default(), plan)),
            SyncPolicy::Always,
            0,
            0,
        );
        for i in 0..8 {
            wal.append(&format!("key-number-{i}"), 1.0);
        }
        assert!(wal.is_degraded());
        assert!(wal.synced_seq() < wal.last_seq());
        let appended = wal.bytes();
        assert!(
            appended > 0 && appended <= 40,
            "only pre-fault frames count"
        );
        wal.restart(Box::new(MemSink::default()));
        assert!(!wal.is_degraded());
        assert_eq!((wal.synced_seq(), wal.bytes()), (8, 0));
        assert_eq!(wal.append("k", 1.0), 9);
        assert_eq!(wal.synced_seq(), 9, "appends are durable again");
        assert!(wal.bytes() > 0);
    }
}
