//! Calls into single layers, timed from outside: direct simulations
//! (the reference every engine and server result is checked against),
//! the workloads layer's stream/capture/prepare steps, and the
//! simulator's resident cache-model size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gals_core::{ReconfigKind, SimResult, Simulator};
use gals_explore::MeasureItem;
use gals_isa::InstructionStream;
use gals_workloads::{BenchmarkSpec, PreparedTrace, SharedTrace};

use crate::report::Outcome;
use crate::spans::{SpanId, Tracer};

/// One direct simulation: the result and the host seconds it took.
#[derive(Debug, Clone)]
pub struct DirectRun {
    /// The simulator's result.
    pub result: SimResult,
    /// Host time of `Simulator::run`.
    pub secs: f64,
    /// Whether the machine is synchronous.
    pub synchronous: bool,
}

/// Runs `item` at `window` through `Simulator::run` on a live stream:
/// no trace pool, prepared trace, interval memo or result cache.
pub fn direct(item: &MeasureItem, window: u64) -> DirectRun {
    let sim = Simulator::new(item.machine.clone());
    let mut stream = item.spec.stream();
    let t = Instant::now();
    let result = sim.run(&mut stream, window);
    DirectRun {
        result,
        secs: t.elapsed().as_secs_f64(),
        synchronous: !item.machine.is_mcd(),
    }
}

/// [`direct`] on the simulator's reference loop.
pub fn reference(item: &MeasureItem, window: u64) -> SimResult {
    Simulator::new(item.machine.clone())
        .use_reference_loop()
        .run(&mut item.spec.stream(), window)
}

/// Maps `f` over `items` on `threads` scoped threads; results in input
/// order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *out[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(f(item));
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every item mapped")
        })
        .collect()
}

/// Simulator, controller and cache counts summed over direct runs.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    sync_secs: f64,
    sync_fe_cycles: u64,
    mcd_secs: f64,
    mcd_cycles: u64,
    sim_secs: f64,
    committed: u64,
    cycles: [u64; 4],
    reconfigs: u64,
    iq_resizes: u64,
    icache: u64,
    l1d: u64,
    l2: u64,
    deficit: i64,
}

impl LayerTotals {
    /// Adds one direct run.
    pub fn add(&mut self, run: &DirectRun) {
        let r = &run.result;
        if run.synchronous {
            self.sync_secs += run.secs;
            self.sync_fe_cycles += r.domain_cycles[0];
        } else {
            self.mcd_secs += run.secs;
            self.mcd_cycles += r.domain_cycles.iter().sum::<u64>();
        }
        self.sim_secs += run.secs;
        self.committed += r.committed;
        for (t, c) in self.cycles.iter_mut().zip(r.domain_cycles) {
            *t += c;
        }
        self.reconfigs += r.reconfigs.len() as u64;
        self.iq_resizes += r
            .reconfigs
            .iter()
            .filter(|e| matches!(e.kind, ReconfigKind::IqInt(_) | ReconfigKind::IqFp(_)))
            .count() as u64;
        self.icache += r.icache.accesses;
        self.l1d += r.l1d.accesses;
        self.l2 += r.l2.accesses;
        self.deficit += l2_fill_deficit(r);
    }

    /// Reports the `core.*`, `control.*` and `cache.*` metrics, with
    /// `core.sim_self_s` from the tracer's `core.run` spans.
    pub fn report(&self, out: &mut Outcome, tracer: &Tracer) {
        let per = |secs: f64, cycles: u64| {
            if cycles == 0 {
                0.0
            } else {
                secs * 1e9 / cycles as f64
            }
        };
        out.set(
            "core.sync_ns_per_cycle",
            per(self.sync_secs, self.sync_fe_cycles),
        );
        out.set("core.mcd_ns_per_cycle", per(self.mcd_secs, self.mcd_cycles));
        out.set("core.sim_self_s", tracer.self_of("core.run"));
        out.set("core.committed", self.committed as f64);
        for (name, c) in [
            "core.domain_cycles.fe",
            "core.domain_cycles.int",
            "core.domain_cycles.fp",
            "core.domain_cycles.ls",
        ]
        .into_iter()
        .zip(self.cycles)
        {
            out.set(name, c as f64);
        }
        out.set("control.reconfigs", self.reconfigs as f64);
        out.set("control.iq_resizes", self.iq_resizes as f64);
        out.set("cache.icache_accesses", self.icache as f64);
        out.set("cache.l1d_accesses", self.l1d as f64);
        out.set("cache.l2_accesses", self.l2 as f64);
        out.set("cache.l2_fill_deficit", self.deficit as f64);
    }
}

/// L1-D misses plus I-cache misses that never reached L2: each should
/// cause exactly one L2 access, so a healthy model reads 0.
pub fn l2_fill_deficit(r: &SimResult) -> i64 {
    (r.l1d.misses + r.icache.misses) as i64 - r.l2.accesses as i64
}

/// Times the workloads layer over `specs`, each at `insts`
/// instructions: live stream generation, `SharedTrace::capture` and
/// `PreparedTrace::new`. Reports `workloads.stream_minst_per_s`,
/// `workloads.capture_ms` and `workloads.prepare_ms`.
pub fn workloads_layer(
    specs: &[BenchmarkSpec],
    insts: u64,
    line_bytes: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) {
    let mut stream_secs = 0.0;
    for spec in specs {
        let t = Instant::now();
        tracer.span("workloads.stream", parent, 0, |_| {
            let mut s = spec.stream();
            let mut acc = 0u64;
            for _ in 0..insts {
                acc = acc.wrapping_add(s.next_inst().pc);
            }
            std::hint::black_box(acc);
        });
        stream_secs += t.elapsed().as_secs_f64();
        let trace = tracer.span("workloads.capture", parent, 0, |_| {
            SharedTrace::capture(&mut spec.stream(), insts)
        });
        let prep = tracer.span("workloads.prepare", parent, 0, |_| {
            PreparedTrace::new(&trace, line_bytes)
        });
        std::hint::black_box(prep.len());
    }
    let generated = (specs.len() as u64 * insts) as f64;
    out.set(
        "workloads.stream_minst_per_s",
        generated / stream_secs.max(1e-9) / 1e6,
    );
    out.set(
        "workloads.capture_ms",
        tracer.self_of("workloads.capture") * 1e3,
    );
    out.set(
        "workloads.prepare_ms",
        tracer.self_of("workloads.prepare") * 1e3,
    );
}

/// Runs `item` through the prepared-trace path (`Simulator::run_chunk`
/// over one chunk) and returns the simulator's resident cache-model
/// bytes at the end of the run, with its result.
pub fn resident_bytes(item: &MeasureItem, window: u64) -> (usize, SimResult) {
    let need = window + item.machine.params.max_in_flight() as u64;
    let trace = SharedTrace::capture(&mut item.spec.stream(), need);
    let prep = PreparedTrace::new(&trace, item.machine.params.line_bytes);
    let mut sim = Simulator::new(item.machine.clone());
    assert!(
        sim.run_chunk(&prep, window, u64::MAX),
        "an unbounded chunk runs to the window"
    );
    let bytes = sim.cache_model_resident_bytes();
    (bytes, sim.finish(item.spec.name()))
}
