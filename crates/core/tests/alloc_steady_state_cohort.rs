//! Steady-state allocation regression test for the paused-and-resumed
//! stepping path (`run_chunk` over a [`PreparedTrace`]).
//!
//! The sweep engine pauses a shared run at every shorter window it
//! answers and at every snapshot point; a per-pause allocation would
//! multiply across every pause of every run. As in
//! `alloc_steady_state.rs`, two runs of different lengths over the same
//! prepared trace are compared — determinism cancels construction and
//! warm-up, so any difference is attributable to the extra instructions
//! *and* the extra pauses, both of which must allocate nothing. This
//! file holds a single `#[test]` because integration-test files are
//! separate binaries: nothing else can pollute the counter.

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

/// Runs `window` committed instructions through `run_chunk`, pausing
/// every `chunk` commits, and returns the final runtime.
fn run_chunked(machine: MachineConfig, prep: &PreparedTrace, window: u64, chunk: u64) -> f64 {
    let mut sim = Simulator::new(machine);
    let mut upto = 0u64;
    loop {
        upto = upto.saturating_add(chunk);
        if sim.run_chunk(prep, window, upto) {
            break;
        }
    }
    sim.finish(prep.name()).runtime_ns()
}

#[test]
fn zero_steady_state_heap_allocations_per_chunked_instruction() {
    const WARM: u64 = 10_000;
    const LONG: u64 = 30_000;
    const CHUNK: u64 = 512;

    // gcc mixes loads, stores, branches, and multi-segment data traffic
    // (same rationale as the continuous-run variant); pausing every 512
    // commits gives the long run ~40 extra pause/resume cycles over the
    // short one, so a single allocating pause would fail the assertion.
    let spec = suite::by_name("gcc").expect("benchmark in suite");
    let machine = MachineConfig::best_synchronous();
    let slack = machine.params.max_in_flight() as u64;
    let trace = SharedTrace::capture(&mut spec.stream(), LONG + slack);
    let prep = PreparedTrace::new(&trace, machine.params.line_bytes);

    // Dry run: fault in lazy runtime state so the measured pair starts
    // from identical ground.
    let _ = run_chunked(machine.clone(), &prep, WARM, CHUNK);

    let a0 = alloc_calls();
    let short = run_chunked(machine.clone(), &prep, WARM, CHUNK);
    let a1 = alloc_calls();
    let long = run_chunked(machine.clone(), &prep, LONG, CHUNK);
    let a2 = alloc_calls();

    assert!(short > 0.0 && long > short);
    assert!(a1 > a0, "the counter must actually be counting");

    // The long run is the short run plus (LONG - WARM) steady-state
    // instructions and ~(LONG - WARM) / CHUNK extra pauses; determinism
    // cancels everything else. The lazily allocated cache set arrays
    // may double a few more times on the longer run — O(log sets)
    // events total, never per instruction or per pause (see
    // `alloc_steady_state.rs`, whose paused adpcm phase pins the
    // absolute zero).
    let short_allocs = a1 - a0;
    let long_allocs = a2 - a1;
    let growth = long_allocs.saturating_sub(short_allocs);
    assert!(
        growth <= 12,
        "the {} post-warm-up chunked instructions performed {} heap \
         allocations beyond lazy set-array doubling (chunk pauses must \
         allocate nothing)",
        LONG - WARM,
        growth,
    );
}
