//! Every output check must be able to fail: each is fed a correct
//! output, which it accepts, and a damaged copy, which it rejects.

use gals_core::{CoreParams, MachineConfig, SimResult, Simulator};
use gals_explore::{CacheKey, ResultCache};
use gals_serve::Response;
use gals_workloads::suite;
use perfbench::checks;

fn sync_run(window: u64) -> SimResult {
    let spec = suite::by_name("art").expect("art");
    Simulator::new(MachineConfig::best_synchronous()).run(&mut spec.stream(), window)
}

#[test]
fn a_runtime_with_one_flipped_bit_is_rejected() {
    let ns = sync_run(3_000).runtime_ns();
    assert!(checks::bit_equal("runtime", ns, ns).is_ok());
    let flipped = f64::from_bits(ns.to_bits() ^ 1);
    assert!(checks::bit_equal("runtime", flipped, ns).is_err());
}

#[test]
fn a_dropped_partial_frame_is_rejected() {
    let partial = |key: &str| Response::Partial {
        id: "r1".into(),
        key: key.into(),
        runtime_ns: 1234.5,
        cached: false,
    };
    let done = |results| Response::Done {
        id: "r1".into(),
        results,
        expired: 0,
    };
    let whole = vec![partial("a"), partial("b"), done(2)];
    assert!(checks::frames("r1", 2, &whole).is_ok());
    // The partial frame lost, the done frame still counting it.
    assert!(checks::frames("r1", 2, &[partial("a"), done(2)]).is_err());
    // Lost with the count adjusted: still short of the request's jobs.
    assert!(checks::frames("r1", 2, &[partial("a"), done(1)]).is_err());
    // Two terminal frames, or none.
    assert!(checks::frames("r1", 2, &[partial("a"), done(1), partial("b"), done(2)]).is_err());
    assert!(checks::frames("r1", 2, &[partial("a"), partial("b")]).is_err());
    // A status request ends in a status frame alone.
    let status = Response::Status {
        id: "s".into(),
        counters: vec![],
    };
    assert!(checks::frames("s", 0, std::slice::from_ref(&status)).is_ok());
    assert!(checks::frames("s", 0, &[done(0)]).is_err());
}

#[test]
fn a_lost_recovered_record_is_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-recovery-check");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("cache.json");
    let written: Vec<(CacheKey, f64)> = (1..=3)
        .map(|w| (CacheKey::new("art", "sync", "cfg", w), w as f64 * 1.5))
        .collect();
    {
        let cache = ResultCache::open(&path).expect("open");
        for (k, v) in &written {
            cache.put(k.clone(), *v);
        }
    }
    let store = ResultCache::open(&path).expect("reopen");
    let lookup = |k: &CacheKey| store.get(k);
    assert!(checks::recovered(store.recovery(), lookup, &written).is_ok());
    let mut lost = written.clone();
    lost.push((CacheKey::new("art", "sync", "cfg", 4), 6.0));
    assert!(checks::recovered(store.recovery(), lookup, &lost).is_err());
    let mut changed = written.clone();
    changed[1].1 = f64::from_bits(changed[1].1.to_bits() ^ 1);
    assert!(checks::recovered(store.recovery(), lookup, &changed).is_err());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_summary_that_breaks_cache_conservation_is_rejected() {
    let window = 3_000;
    let decode = CoreParams::default().decode_width;
    let r = sync_run(window);
    assert!(checks::sim_result("art", &r, window, decode, true).is_ok());

    let mut broken = r.clone();
    broken.l1d.misses += 1;
    assert!(checks::sim_result("art", &broken, window, decode, true).is_err());
    let mut broken = r.clone();
    broken.l2.a_hits -= 1;
    assert!(checks::sim_result("art", &broken, window, decode, true).is_err());
    let mut broken = r.clone();
    broken.icache.accesses += 1;
    assert!(checks::sim_result("art", &broken, window, decode, true).is_err());

    // The other properties of a result.
    assert!(checks::sim_result("art", &r, window + 1, decode, true).is_err());
    let mut broken = r.clone();
    broken.domain_cycles[0] = r.committed / decode as u64 - 1;
    assert!(checks::sim_result("art", &broken, window, decode, true).is_err());
    let mut broken = r.clone();
    broken.final_freqs[2] = gals_common::Hertz::from_mhz(1);
    assert!(checks::sim_result("art", &broken, window, decode, true).is_err());
    assert!(checks::sim_result("art", &broken, window, decode, false).is_ok());
}
