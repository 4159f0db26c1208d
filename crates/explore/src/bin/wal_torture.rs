//! Crash-test writer child for the kill-9 durability test.
//!
//! Opens a [`ResultCache`] at the given path and appends results as
//! fast as it can, printing one flushed `ACK` line for every record
//! whose sequence number has crossed the durability watermark
//! ([`ResultCache::durable_seq`]) — i.e. for results the store claims
//! will survive any crash. The parent test SIGKILLs this process
//! mid-append, reopens the cache, and asserts every `ACK`ed record is
//! still there, bit-exact. A `maybe_save_batched` after every put and a
//! forced compaction (`save`) every `save-every` puts make sure some
//! kills land mid-compaction, not just mid-append.
//!
//! Usage: `wal_torture <cache-path> <sync-policy> [save-every]`
//!
//! ACK line format (all fields space-separated, flushed per line):
//! `ACK <seq> <value-bits> <bench> <mode> <config> <window>`.

use std::collections::VecDeque;
use std::io::Write;

use gals_explore::wal::SyncPolicy;
use gals_explore::{CacheKey, ResultCache};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .expect("usage: wal_torture <path> <policy> [save-every]");
    let policy = args
        .get(2)
        .and_then(|raw| SyncPolicy::parse(raw))
        .expect("policy must be always | batch:N | none");
    let save_every: u64 = args
        .get(3)
        .map(|raw| raw.parse().expect("save-every must be a number"))
        .unwrap_or(500);
    let cache = ResultCache::open_with_policy(path, policy).expect("open cache");

    let mut pending: VecDeque<(u64, u64, u64, u64)> = VecDeque::new();
    let mut out = std::io::stdout().lock();
    let mut i: u64 = 0;
    // Runs until killed; the parent owns termination.
    loop {
        let bench = i % 37;
        let window = 1000 + (i % 5) * 500;
        // A value derived from i with a fractional part, so bit-exact
        // recovery is a real check, not an integer round trip.
        let value = i as f64 * 1.618 + 0.25;
        let key = CacheKey::new(
            &format!("bench{bench:02}"),
            "wal",
            &format!("cfg{i:08}"),
            window,
        );
        let seq = cache.put(key, value);
        pending.push_back((seq, value.to_bits(), i, window));
        let durable = cache.durable_seq();
        let mut flushed = false;
        while pending.front().is_some_and(|&(s, ..)| s <= durable) {
            let (seq, bits, i, window) = pending.pop_front().expect("checked non-empty");
            writeln!(
                out,
                "ACK {seq} {bits} bench{:02} wal cfg{i:08} {window}",
                i % 37
            )
            .expect("write ack");
            flushed = true;
        }
        if flushed {
            out.flush().expect("flush acks");
        }
        cache.maybe_save_batched(64);
        if i % save_every == save_every - 1 {
            cache.save().expect("compaction");
        }
        i += 1;
    }
}
