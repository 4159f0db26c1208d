//! Steady-state allocation regression test.
//!
//! The simulator's hot structures are all preallocated at construction:
//! the instruction-window slab, the completion ring, every pipeline
//! queue, the MSHR list, and the store-line map (which reaches its
//! working capacity during warm-up and then only recycles entries).
//! This test pins that property with a counting global allocator: after
//! a warm-up window, simulating additional instructions must perform
//! **zero** further heap allocations.
//!
//! The measurement compares two runs of different lengths over the same
//! recorded trace. Determinism makes the shorter run's execution an
//! exact prefix of the longer one's, so construction and warm-up
//! allocations cancel and any difference is attributable to the extra
//! instructions alone. This file intentionally holds a single `#[test]`
//! (plus the allocator plumbing): integration-test files are separate
//! binaries, so no concurrently running test can pollute the counter.

// The workspace avoids `unsafe` everywhere else; a `GlobalAlloc`
// implementation is impossible without it, and this one only forwards
// to `System` after bumping a counter.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gals_core::{MachineConfig, Simulator};
use gals_workloads::{suite, PreparedTrace, SharedTrace};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, whose contract is
// upheld unchanged; the only added work is a lock-free atomic increment,
// which cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` untouched to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards the (ptr, layout) pair untouched to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all three arguments untouched to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is as much an allocation as a fresh one.
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn zero_steady_state_heap_allocations_per_instruction() {
    const WARM: u64 = 10_000;
    const LONG: u64 = 30_000;

    // gcc mixes loads, stores, branches, and multi-segment data traffic,
    // so the run exercises the LSQ, the store-line map, forwarding, the
    // MSHRs, and the predictor — everything that could plausibly
    // allocate per instruction.
    let spec = suite::by_name("gcc").expect("benchmark in suite");
    let machine = MachineConfig::best_synchronous();
    let slack = machine.params.max_in_flight() as u64;
    let trace = SharedTrace::capture(&mut spec.stream(), LONG + slack);

    // Dry run: fault in lazy runtime state (thread locals, allocator
    // size classes) so the measured pair starts from identical ground.
    let _ = Simulator::new(machine.clone()).run(&mut trace.replay(), WARM);

    let a0 = alloc_calls();
    let short = Simulator::new(machine.clone()).run(&mut trace.replay(), WARM);
    let a1 = alloc_calls();
    let long = Simulator::new(machine.clone()).run(&mut trace.replay(), LONG);
    let a2 = alloc_calls();

    assert_eq!(short.committed, WARM);
    assert_eq!(long.committed, LONG);
    assert!(a1 > a0, "the counter must actually be counting");

    // The long run is the short run plus (LONG - WARM) steady-state
    // instructions; determinism cancels everything else. Since PR 7 the
    // accounting caches allocate set storage lazily, so the longer run
    // may grow the per-cache set arrays a few doubling steps further —
    // O(log sets) allocation events total, not per-instruction. Pin
    // that bound tightly (observed: 4).
    let short_allocs = a1 - a0;
    let long_allocs = a2 - a1;
    let growth = long_allocs.saturating_sub(short_allocs);
    assert!(
        growth <= 12,
        "the {} post-warm-up instructions performed {} heap allocations \
         beyond lazy set-array doubling (must be O(log sets), got {})",
        LONG - WARM,
        growth,
        growth,
    );

    // Paused-and-resumed phase: after the lazy cache sets warm up,
    // steady state must allocate exactly **zero**, pauses included. One
    // simulator is stepped over a prepared trace and paused every 512
    // commits (the engine pauses a shared run at every shorter window
    // and snapshot point); the measured tail span starts well past
    // warm-up. adpcm's ~4 KB working set saturates the lazy set arrays
    // almost immediately (gcc above keeps discovering new L2 sets for
    // hundreds of thousands of instructions, which is why the
    // differential phase bounds growth rather than zeroing it), so the
    // tail must not touch the allocator at all.
    const PAUSE_EVERY: u64 = 512;
    let spec = suite::by_name("adpcm_encode").expect("benchmark in suite");
    let trace = SharedTrace::capture(&mut spec.stream(), LONG + slack);
    let prep = PreparedTrace::new(&trace, machine.params.line_bytes);
    let mut sim = Simulator::new(machine);
    assert!(!sim.run_chunk(&prep, LONG, WARM * 2));
    let mut pauses = 0u64;
    let b0 = alloc_calls();
    while !sim.run_chunk(&prep, LONG, sim.committed() + PAUSE_EVERY) {
        pauses += 1;
    }
    let b1 = alloc_calls();
    assert!(
        pauses >= (LONG - WARM * 2) / PAUSE_EVERY / 2,
        "{pauses} pauses"
    );
    assert_eq!(
        b1 - b0,
        0,
        "the {} instructions after lazy-set warmup, paused {} times, \
         performed {} heap allocations (steady state must allocate nothing)",
        LONG - WARM * 2,
        pauses,
        b1 - b0,
    );
    assert_eq!(sim.finish("adpcm_encode").committed, LONG);
}
