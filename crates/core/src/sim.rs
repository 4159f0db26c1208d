//! The event-driven, four-domain GALS pipeline simulator.
//!
//! # Model summary
//!
//! Execution is trace-driven: the workload supplies the committed path
//! only. The simulator advances the four domain clocks edge by edge
//! (earliest next edge first) and performs each domain's work on its own
//! edges:
//!
//! * **Front end** (commit → rename/dispatch → fetch per edge): I-cache
//!   and branch predictor at fetch; register rename with physical-
//!   register and ROB/queue flow control at dispatch; in-order commit.
//! * **Integer / FP domains**: issue-queue wakeup+select (oldest-first,
//!   Table 5 widths and unit pools), execution latencies, completion
//!   broadcast. Cross-domain operand visibility goes through the
//!   Sjogren–Myers synchronization window.
//! * **Load/store domain**: LSQ with exact (trace-known) addresses, store
//!   forwarding, two D-cache ports, MSHR-limited misses, the L1-D/L2
//!   Accounting Caches, and the fixed-latency memory "fifth domain".
//!
//! Standard trace-driven simplifications (documented in DESIGN.md):
//! wrong-path instructions are not fetched (a mispredicted branch stalls
//! fetch until resolution plus the Table 5 refill penalty), branch
//! targets are assumed BTB-resident, and memory disambiguation is exact.
//!
//! # Hot-path architecture
//!
//! The simulator has two run loops producing **bit-identical** results:
//!
//! * The **event-driven fast path** (default). All per-instruction state
//!   lives in a fixed-capacity power-of-two **slab** of [`InstState`]
//!   indexed by `u32` slot (`slot = seq & mask`; capacity exceeds the
//!   maximum in-flight window, so slots are unique while an instruction
//!   is alive and are reclaimed for free at commit). Every pipeline
//!   queue holds slots, and the issue queues and the pending-LSQ walk
//!   list are **intrusive doubly-linked lists** threaded through the
//!   slab, so mid-queue removal at issue is O(1) with no element
//!   shifting. Issue-queue and LSQ entries carry a memoized
//!   earliest-possible-issue time (`next_check`); entries whose producer
//!   has not issued yet register in a per-producer waiter chain and are
//!   woken by the producer's completion broadcast instead of being
//!   polled. Each domain maintains `next_work`, a sound lower bound on
//!   the next edge at which its handler can change any state: edges
//!   before that bound tick the clock (consuming the identical
//!   jitter-RNG sequence) but skip the handler, and when *every* domain
//!   is idle the run loop fast-forwards all four clocks to the earliest
//!   bound, each in one O(1) jump that leaves the jitter RNG exactly
//!   where ticking would ([`DomainClock::fast_forward_to`]). Store-to-load
//!   forwarding consults an [`FxHashMap`]-indexed map from 8-byte line to
//!   an intrusive chain of in-flight stores (no per-line allocation, no
//!   SipHash), and LSQ commit-time removal is O(1) head popping.
//! * A **period table** ([`PeriodTable`]) holds everything derived from
//!   the four clock periods alone: the crossing delay for each pair of
//!   domains, each domain's jitter guard band, and the guarded issue,
//!   load/store and cache latencies. A period changes only when a PLL
//!   relock completes inside a tick or a fast-forward, so the table is
//!   rebuilt right after those and a crossing or an issue is a lookup,
//!   not float math per instruction. Both loops read it.
//! * The **straightforward reference path**
//!   ([`Simulator::use_reference_loop`]): every edge of every domain
//!   runs its full handler, forwarding reverse-scans the LSQ, and every
//!   entry is polled — the naive implementation the determinism
//!   regression tests compare against, and the baseline the criterion
//!   benches measure speedups from.
//!
//! Both loops are one stepping loop over one fetch, and fetch reads one
//! place: a fixed block of instructions the simulator allocates once
//! and walks with a cursor (a stalled fetch leaves the cursor where it
//! is). Just before a front-end edge runs its handler, the loop tops
//! the block up to at least a decode group from its input: a live
//! [`InstructionStream`] ([`Simulator::run`]) or a [`PreparedTrace`]
//! read at the absolute stream position of the next instruction to
//! load ([`Simulator::run_chunk`]). The loop's only pause is a commit
//! count, and pausing mutates nothing, so a run paused and resumed
//! under any schedule ends bit-identical to one continuous run.

use std::collections::VecDeque;

use gals_cache::{AccessKind, AccountingCache, ServedBy};
use gals_clock::{DomainClock, SyncModel};
use gals_common::fxmap::{fx_map_with_capacity, FxHashMap};
use gals_common::{DomainId, Femtos, SplitMix64};
use gals_control::{AdaptationEngine, ControlPolicy, EngineSetup, IlpDecision};
use gals_isa::{DynInst, InstructionStream, OpClass};
use gals_predictor::{HybridPredictor, PredictorGeometry};
use gals_timing::{Dl2Config, ICacheConfig, Variant};
use gals_workloads::PreparedTrace;

use crate::config::{MachineConfig, MachineKind};
use crate::periods::PeriodTable;
use crate::stats::{CacheSummary, ReconfigEvent, ReconfigKind, SimResult};

const FE: usize = DomainId::FrontEnd.index();
const INT: usize = DomainId::Integer.index();
const FP: usize = DomainId::FloatingPoint.index();
const LS: usize = DomainId::LoadStore.index();

/// Minimum completion-ring size; the ring must exceed the maximum
/// in-flight window by a comfortable margin so a `Src::Pending`
/// reference can be resolved well after its producer committed.
const MIN_RING: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// No register dependence (or a value produced before tracking).
    Free,
    /// Producer completed: result available in `domain` at `at`.
    Ready { at: Femtos, domain: u8 },
    /// Producer still in flight.
    Pending(u64),
}

#[derive(Debug, Clone, Copy)]
struct RingSlot {
    seq: u64,
    at: Femtos,
    domain: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameRef {
    Ready { at: Femtos, domain: u8 },
    Pending(u64),
}

/// Sentinel for every intrusive slot link: "no entry".
const NO_LINK: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct InstState {
    inst: DynInst,
    /// This slot's owner. Slots are reused after commit (`slot = seq &
    /// mask`), so ordering decisions always read the seq, never the slot.
    seq: u64,
    srcs: [Src; 2],
    /// Execution domain index; FE for nops/jumps (complete at rename).
    exec_domain: u8,
    /// Time the instruction becomes visible to its issue queue / LSQ.
    arrival: Femtos,
    /// Memoized earliest time this entry could possibly issue.
    next_check: Femtos,
    completion: Option<Femtos>,
    issued: bool,
    renamed: bool,
    mispredicted: bool,
    uses_phys: bool,
    /// Head of this instruction's waiter chain: the slot of the first
    /// consumer parked on its completion broadcast (fast path only).
    waiter_head: u32,
    /// Next link when this instruction is itself parked in a chain.
    waiter_next: u32,
    /// Intrusive queue links: an instruction sits in at most one of the
    /// two issue queues or the pending-LSQ list at a time.
    q_prev: u32,
    q_next: u32,
    /// Next in-flight store on the same 8-byte line (fast path only),
    /// in ascending seq order.
    line_next: u32,
}

/// An intrusive doubly-linked list threaded through the slab's
/// `q_prev`/`q_next` links: O(1) push-back and mid-list removal, age
/// order preserved (entries enter in dispatch order).
#[derive(Debug, Clone, Copy)]
struct QList {
    head: u32,
    tail: u32,
    len: u32,
}

impl QList {
    const EMPTY: QList = QList {
        head: NO_LINK,
        tail: NO_LINK,
        len: 0,
    };

    fn len(&self) -> usize {
        self.len as usize
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The in-flight stores on one 8-byte line, as head/tail of the
/// intrusive `line_next` chain (ascending seq order: inserted at tail on
/// dispatch, removed at head on commit).
#[derive(Debug, Clone, Copy)]
struct LineChain {
    head: u32,
    tail: u32,
}

#[derive(Debug, Clone, Copy)]
struct StoreJob {
    addr: u64,
    ready: Femtos,
}

#[derive(Debug, Clone)]
struct FuPool {
    next_free: Vec<Femtos>,
}

impl FuPool {
    fn new(units: usize) -> Self {
        FuPool {
            next_free: vec![Femtos::ZERO; units],
        }
    }

    /// Acquires a unit at `at` for `busy` time; returns false when all
    /// units are occupied.
    fn try_acquire(&mut self, at: Femtos, busy: Femtos) -> bool {
        for slot in &mut self.next_free {
            if *slot <= at {
                *slot = at + busy;
                return true;
            }
        }
        false
    }
}

/// Entries in the fetch block: a prepared trace refills it this many
/// instructions at a time. Must hold at least one decode group.
const FETCH_BLOCK: usize = 256;

/// Where [`Simulator::top_up`] loads the committed path from.
enum Input<'a> {
    /// A live stream, read in order.
    Live(&'a mut dyn InstructionStream),
    /// A recording, read at the absolute stream position.
    Trace(&'a PreparedTrace),
}

/// The simulator: construct with a [`MachineConfig`], run one stream.
///
/// See the [crate docs](crate) for an example.
///
/// `Clone` deep-copies the whole machine mid-run — every queue, clock,
/// cache, predictor, and controller. The sweep engine's interval memo
/// uses this to snapshot a simulator paused at a commit count and
/// splice it into a later, longer job of the same configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: MachineConfig,

    clocks: [DomainClock; 4],
    /// Crossing delays and guarded latencies for the clocks' current
    /// periods, rebuilt when a relock changes one.
    periods: PeriodTable,

    icache: AccountingCache,
    l1d: AccountingCache,
    l2: AccountingCache,
    predictors: Vec<HybridPredictor>,
    active_pred: usize,

    ic_idx: usize,
    dl2_idx: usize,
    iq_cap: [usize; 2],
    iq_target: [u32; 2],

    // In-flight window: a fixed-capacity slab addressed by `seq & mask`.
    head_seq: u64,
    next_seq: u64,
    slab: Box<[InstState]>,
    slab_mask: usize,
    ring: Vec<RingSlot>,
    ring_mask: usize,

    rename_map: [RenameRef; 64],
    free_phys: [i64; 2],

    fetch_q: VecDeque<u32>,
    rob: VecDeque<u32>,
    iq: [QList; 2],
    lsq: VecDeque<u32>,
    store_jobs: VecDeque<StoreJob>,

    // Event-driven fast-path state (unused in reference mode).
    /// False selects the straightforward reference loop.
    event_driven: bool,
    /// Per-domain lower bound on the next edge time at which the
    /// domain's handler can change state. `Femtos::MAX` = fully idle.
    next_work: [Femtos; 4],
    /// `addr >> 3` → intrusive chain of in-flight (LSQ-resident) stores
    /// to that 8-byte line. Gives store-to-load forwarding its O(chain)
    /// candidate lookup with no per-line allocation; chains are one or
    /// two entries long in practice.
    stores_by_line: FxHashMap<u64, LineChain>,
    /// Un-issued LSQ entries in age order (the subset the LS edge walk
    /// actually needs to visit), as an intrusive list.
    lsq_pending: QList,

    fetch_stalled_until: Femtos,
    fetch_blocked_on: Option<u32>,
    cur_fetch_line: u64,
    /// The fetch block: `block[block_pos..block_len]` are the loaded,
    /// not yet fetched instructions, each with its I-cache line index.
    block: Box<[(DynInst, u64)]>,
    block_pos: usize,
    block_len: usize,

    // Stepping state that persists across pauses.
    /// Absolute stream position of the next instruction to load into
    /// the block.
    loaded: u64,
    /// Simulated time of the most recent commit-count increase.
    last_progress_time: Femtos,
    /// Commit count at `last_progress_time`.
    last_progress_count: u64,

    fu_int: [FuPool; 2],
    fu_fp: [FuPool; 2],
    mshr: Vec<Femtos>,

    /// The adaptation-control subsystem (phase-adaptive only): policy
    /// evaluation, relock gating, pending-resize bookkeeping, decision
    /// trace. The simulator feeds it interval statistics and executes
    /// the structural changes it approves.
    engine: Option<AdaptationEngine>,

    // Statistics.
    committed: u64,
    last_commit_at: Femtos,
    branches: u64,
    mispredicts: u64,
    ic_total: CacheSummary,
    l1d_total: CacheSummary,
    l2_total: CacheSummary,
    reconfigs: Vec<ReconfigEvent>,
}

impl Simulator {
    /// Builds a simulator for the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if internal structure construction fails (the configuration
    /// enums make invalid geometries unrepresentable), or if the decode
    /// width exceeds the 256-instruction fetch block.
    pub fn new(cfg: MachineConfig) -> Self {
        let p = &cfg.params;
        assert!(
            p.decode_width <= FETCH_BLOCK,
            "decode width {} exceeds the fetch block",
            p.decode_width
        );
        let phase = cfg.is_phase_adaptive();
        let is_mcd = cfg.is_mcd();
        let freqs = cfg.initial_frequencies();
        let (ic_kb, ic_ways, dl2, iq_int, iq_fp) = cfg.initial_structures();

        let mut seed_rng = SplitMix64::new(p.clock_seed);
        let jitter = if is_mcd { p.jitter_frac } else { 0.0 };
        let pll_scale = p.pll_scale;
        let mk_clock = |id: DomainId, f, mut rng: SplitMix64| {
            let pll_rng = rng.fork(0x504C);
            let mut c = DomainClock::new(id, f, jitter, rng);
            if pll_scale != 1.0 {
                c.set_pll(gals_clock::Pll::scaled(pll_rng, pll_scale));
            }
            c
        };
        let clocks = [
            mk_clock(DomainId::FrontEnd, freqs[0], seed_rng.fork(1)),
            mk_clock(DomainId::Integer, freqs[1], seed_rng.fork(2)),
            mk_clock(DomainId::FloatingPoint, freqs[2], seed_rng.fork(3)),
            mk_clock(DomainId::LoadStore, freqs[3], seed_rng.fork(4)),
        ];
        let sync = if is_mcd {
            SyncModel::new(p.sync_threshold_frac)
        } else {
            SyncModel::disabled()
        };
        let periods = PeriodTable::new(sync, &clocks, p);

        // Caches: phase mode keeps the full physical arrays with movable
        // A/B boundaries; fixed modes build exactly the chosen capacity.
        let line = p.line_bytes;
        let (icache, l1d, l2) = if phase {
            (
                AccountingCache::new(64 * 1024, 4, line, ic_ways, true).unwrap(),
                AccountingCache::new(256 * 1024, 8, line, dl2.ways(), true).unwrap(),
                AccountingCache::new(2048 * 1024, 8, line, dl2.ways(), true).unwrap(),
            )
        } else {
            (
                AccountingCache::new(ic_kb as u64 * 1024, ic_ways, line, ic_ways, false).unwrap(),
                AccountingCache::new(
                    dl2.l1_kb() as u64 * 1024,
                    dl2.ways(),
                    line,
                    dl2.ways(),
                    false,
                )
                .unwrap(),
                AccountingCache::new(
                    dl2.l2_kb() as u64 * 1024,
                    dl2.ways(),
                    line,
                    dl2.ways(),
                    false,
                )
                .unwrap(),
            )
        };

        // Predictors: phase mode trains all four jointly-resized
        // geometries so a configuration switch has warm state. Under the
        // Static policy the machine can never switch, so the three
        // shadow geometries would be trained and thrown away — build
        // only the active one.
        let (predictors, active_pred) = if phase && cfg.control != ControlPolicy::Static {
            let preds: Vec<_> = ICacheConfig::ALL
                .iter()
                .map(|c| HybridPredictor::new(PredictorGeometry::for_capacity_kb(c.kb()).unwrap()))
                .collect();
            (preds, ic_ways as usize - 1)
        } else {
            // Fixed-geometry machines and Static-policy phase machines
            // alike predict with the one live geometry.
            (
                vec![HybridPredictor::new(
                    PredictorGeometry::for_capacity_kb(ic_kb).unwrap(),
                )],
                0,
            )
        };

        let ic_idx = match &cfg.kind {
            MachineKind::Synchronous(_) => 0,
            MachineKind::ProgramAdaptive(c) | MachineKind::PhaseAdaptive(c) => c.icache.index(),
        };
        let dl2_idx = dl2.index();

        let mem_ns = p.memory_latency().as_ns();
        let engine = phase.then(|| {
            AdaptationEngine::new(
                cfg.control,
                &EngineSetup {
                    timing: &cfg.timing,
                    latencies: p.cache_latencies(),
                    interval_insts: p.interval_insts,
                    mem_ns,
                    l2_service_init_ns: mem_ns * 0.5,
                    ic_idx,
                    dl2_idx,
                    iq_int,
                    iq_fp,
                },
            )
        });

        // The slab holds every in-flight instruction at `seq & mask`;
        // capacity strictly exceeds the architectural in-flight bound so
        // a live slot is never overwritten. The completion ring is kept
        // several windows deeper so consumers renamed long after a
        // producer committed still resolve its completion time.
        let slab_cap = p.max_in_flight().next_power_of_two();
        let ring_len = (slab_cap * 4).max(MIN_RING);
        let vacant = InstState {
            inst: DynInst::nop(0),
            seq: u64::MAX,
            srcs: [Src::Free, Src::Free],
            exec_domain: FE as u8,
            arrival: Femtos::ZERO,
            next_check: Femtos::ZERO,
            completion: None,
            issued: false,
            renamed: false,
            mispredicted: false,
            uses_phys: false,
            waiter_head: NO_LINK,
            waiter_next: NO_LINK,
            q_prev: NO_LINK,
            q_next: NO_LINK,
            line_next: NO_LINK,
        };
        Simulator {
            clocks,
            periods,
            icache,
            l1d,
            l2,
            predictors,
            active_pred,
            ic_idx,
            dl2_idx,
            iq_cap: [iq_int.entries() as usize, iq_fp.entries() as usize],
            iq_target: [iq_int.entries(), iq_fp.entries()],
            head_seq: 0,
            next_seq: 0,
            slab: vec![vacant; slab_cap].into_boxed_slice(),
            slab_mask: slab_cap - 1,
            ring: vec![
                RingSlot {
                    seq: u64::MAX,
                    at: Femtos::ZERO,
                    domain: 0,
                };
                ring_len
            ],
            ring_mask: ring_len - 1,
            rename_map: [RenameRef::Ready {
                at: Femtos::ZERO,
                domain: FE as u8,
            }; 64],
            free_phys: [
                (cfg.params.phys_int as i64) - 32,
                (cfg.params.phys_fp as i64) - 32,
            ],
            fetch_q: VecDeque::with_capacity(cfg.params.fetch_queue + 1),
            rob: VecDeque::with_capacity(cfg.params.rob_entries),
            iq: [QList::EMPTY; 2],
            lsq: VecDeque::with_capacity(cfg.params.lsq_entries),
            store_jobs: VecDeque::with_capacity(2 * cfg.params.lsq_entries),
            event_driven: true,
            next_work: [Femtos::ZERO; 4],
            stores_by_line: fx_map_with_capacity(2 * cfg.params.lsq_entries),
            lsq_pending: QList::EMPTY,
            fetch_stalled_until: Femtos::ZERO,
            fetch_blocked_on: None,
            cur_fetch_line: u64::MAX,
            block: vec![(DynInst::nop(0), 0); FETCH_BLOCK].into_boxed_slice(),
            block_pos: 0,
            block_len: 0,
            loaded: 0,
            last_progress_time: Femtos::ZERO,
            last_progress_count: 0,
            fu_int: [
                FuPool::new(cfg.params.int_alus),
                FuPool::new(cfg.params.int_muldiv),
            ],
            fu_fp: [
                FuPool::new(cfg.params.fp_alus),
                FuPool::new(cfg.params.fp_muldiv),
            ],
            mshr: Vec::with_capacity(cfg.params.mshrs),
            engine,
            committed: 0,
            last_commit_at: Femtos::ZERO,
            branches: 0,
            mispredicts: 0,
            ic_total: CacheSummary::default(),
            l1d_total: CacheSummary::default(),
            l2_total: CacheSummary::default(),
            reconfigs: Vec::new(),
            cfg,
        }
    }

    /// Switches this simulator to the straightforward reference loop:
    /// every domain edge runs its full handler and the LSQ uses linear
    /// scans. Results are bit-identical to the default event-driven fast
    /// path (the determinism regression tests assert this); only wall
    /// clock differs. Call before [`Simulator::run`].
    pub fn use_reference_loop(mut self) -> Self {
        self.event_driven = false;
        self
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    // lint:hot — slab/queue bookkeeping runs for every instruction in
    // flight; the whole point of the u32-slot slab (PR 5) is that none
    // of it ever touches the allocator.

    /// Lowers a domain's next-work bound (fast path bookkeeping; no-op
    /// in reference mode where the bound is never consulted).
    #[inline]
    fn wake_domain(&mut self, domain: usize, at: Femtos) {
        if at < self.next_work[domain] {
            self.next_work[domain] = at;
        }
    }

    /// The slab slot owning `seq` (valid only while `seq` is in flight).
    #[inline]
    fn slot_of(&self, seq: u64) -> u32 {
        (seq as usize & self.slab_mask) as u32
    }

    #[inline]
    fn st(&self, slot: u32) -> &InstState {
        &self.slab[slot as usize]
    }

    #[inline]
    fn st_mut(&mut self, slot: u32) -> &mut InstState {
        &mut self.slab[slot as usize]
    }

    /// Appends `slot` to an intrusive queue list (O(1), allocation
    /// free). An associated function so callers can split-borrow the
    /// list and the slab out of `self`.
    #[inline]
    fn qpush(list: &mut QList, slab: &mut [InstState], slot: u32) {
        let st = &mut slab[slot as usize];
        debug_assert!(st.q_prev == NO_LINK && st.q_next == NO_LINK);
        st.q_prev = list.tail;
        st.q_next = NO_LINK;
        if list.tail != NO_LINK {
            slab[list.tail as usize].q_next = slot;
        } else {
            list.head = slot;
        }
        list.tail = slot;
        list.len += 1;
    }

    /// Unlinks `slot` from an intrusive queue list (O(1) wherever it
    /// sits — the win over the former `Vec::remove` element shifting).
    #[inline]
    fn qunlink(list: &mut QList, slab: &mut [InstState], slot: u32) {
        let (prev, next) = {
            let st = &mut slab[slot as usize];
            let links = (st.q_prev, st.q_next);
            st.q_prev = NO_LINK;
            st.q_next = NO_LINK;
            links
        };
        if prev != NO_LINK {
            slab[prev as usize].q_next = next;
        } else {
            list.head = next;
        }
        if next != NO_LINK {
            slab[next as usize].q_prev = prev;
        } else {
            list.tail = prev;
        }
        debug_assert!(list.len > 0);
        list.len -= 1;
    }

    /// Parks `slot` on `producer`'s completion broadcast: pushes it onto
    /// the producer's intrusive waiter chain and freezes its wake time
    /// until [`Simulator::complete_at`] unchains it. O(1), allocation
    /// free.
    #[inline]
    fn park_on(&mut self, producer_seq: u64, slot: u32) {
        let pslot = self.slot_of(producer_seq);
        let head = self.st(pslot).waiter_head;
        self.st_mut(pslot).waiter_head = slot;
        let st = self.st_mut(slot);
        st.waiter_next = head;
        st.next_check = Femtos::MAX;
    }

    /// Time a value completed at `at` in domain `from` becomes usable in
    /// domain `to` (Sjogren–Myers window on domain crossings; zero delay
    /// within a domain).
    #[inline]
    fn xfer(&self, at: Femtos, from: usize, to: usize) -> Femtos {
        at + self.periods.sync_delay[from][to]
    }

    /// Rebuilds the period table after `domain`'s clock ticked, if the
    /// tick completed a relock that changed its period.
    #[inline]
    fn track_period(&mut self, domain: usize) {
        if self.clocks[domain].period() != self.periods.period(domain) {
            self.periods.refresh(&self.clocks, &self.cfg.params);
        }
    }

    /// Time at which a source becomes visible in `domain`, or `None`
    /// while its producer has not yet been scheduled.
    fn src_visible_at(&mut self, slot: u32, src_idx: usize, domain: usize) -> Option<Femtos> {
        let src = self.st(slot).srcs[src_idx];
        match src {
            Src::Free => Some(Femtos::ZERO),
            Src::Ready { at, domain: pd } => Some(self.xfer(at, pd as usize, domain)),
            Src::Pending(pseq) => {
                let ring_slot = self.ring[(pseq as usize) & self.ring_mask];
                if ring_slot.seq != pseq {
                    if pseq < self.head_seq {
                        // Producer committed so long ago its ring slot was
                        // reused: its value has been architecturally
                        // visible since before this consumer was fetched.
                        self.st_mut(slot).srcs[src_idx] = Src::Free;
                        return Some(Femtos::ZERO);
                    }
                    return None; // producer not yet issued
                }
                // Cache the resolution so future checks are O(1).
                let resolved = Src::Ready {
                    at: ring_slot.at,
                    domain: ring_slot.domain,
                };
                self.st_mut(slot).srcs[src_idx] = resolved;
                Some(self.xfer(ring_slot.at, ring_slot.domain as usize, domain))
            }
        }
    }

    /// Readiness check with memoized wake time: entries whose operands
    /// are known to arrive at a future time are skipped with a single
    /// compare until then (`next_check`), which keeps long memory stalls
    /// cheap to simulate.
    ///
    /// Fast path: an entry whose producer has not issued yet cannot have
    /// a known wake time, so instead of being re-polled every edge it
    /// registers in the producer's waiter list and parks at
    /// `next_check = MAX` until [`Simulator::complete_at`] wakes it.
    fn entry_ready(&mut self, slot: u32, domain: usize, e: Femtos) -> bool {
        if self.st(slot).next_check > e {
            return false;
        }
        let a = self.src_visible_at(slot, 0, domain);
        let b = self.src_visible_at(slot, 1, domain);
        match (a, b) {
            (Some(ta), Some(tb)) => {
                let ready = ta.max(tb).max(self.st(slot).arrival);
                if ready > e {
                    self.st_mut(slot).next_check = ready;
                    false
                } else {
                    true
                }
            }
            // Producer still unscheduled: reference mode polls again
            // next edge; fast mode parks on the producer's completion.
            _ => {
                if self.event_driven {
                    let idx = usize::from(a.is_some());
                    if let Src::Pending(pseq) = self.st(slot).srcs[idx] {
                        self.park_on(pseq, slot);
                    } else {
                        debug_assert!(false, "None visibility only arises from Pending");
                    }
                }
                false
            }
        }
    }

    /// Records an instruction's completion for dependants and commit.
    ///
    /// Fast path: this is the wake event — parked consumers get their
    /// `next_check` lowered to (a sound lower bound on) their new wake
    /// time and their domain's `next_work` follows; if the completing
    /// instruction is the ROB head, the front end is woken for commit.
    fn complete_at(&mut self, slot: u32, at: Femtos, domain: usize) {
        let seq = self.st(slot).seq;
        let ring_slot = &mut self.ring[(seq as usize) & self.ring_mask];
        ring_slot.seq = seq;
        ring_slot.at = at;
        ring_slot.domain = domain as u8;
        let st = self.st_mut(slot);
        st.completion = Some(at);
        st.issued = true;
        if self.event_driven {
            let mut w = self.st(slot).waiter_head;
            self.st_mut(slot).waiter_head = NO_LINK;
            while w != NO_LINK {
                let wake = at.max(self.st(w).arrival);
                let wdomain = self.st(w).exec_domain as usize;
                let wst = self.st_mut(w);
                let next = wst.waiter_next;
                wst.waiter_next = NO_LINK;
                if wake < wst.next_check {
                    wst.next_check = wake;
                }
                self.wake_domain(wdomain, wake);
                w = next;
            }
            if self.rob.front() == Some(&slot) {
                self.wake_domain(FE, at);
            }
        }
    }

    /// Services an access in the L2 (+memory beyond), returning the delay
    /// beyond this point in time. Also updates L2 accounting totals.
    fn l2_access(&mut self, addr: u64, kind: AccessKind) -> Femtos {
        match self.l2.access(addr, kind).served {
            ServedBy::APartition => self.periods.l2_a,
            ServedBy::BPartition => self.periods.l2_b[self.dl2_idx],
            ServedBy::Miss => self.periods.l2_miss,
        }
    }

    // ------------------------------------------------------------------
    // Front-end edge
    // ------------------------------------------------------------------

    fn fe_edge(&mut self, e: Femtos, window: u64) {
        self.apply_pending_fe(e);
        self.commit(e, window);
        self.rename_dispatch(e);
        self.fetch(e);
        if self.event_driven {
            self.recompute_fe_wake(e);
        }
    }

    /// Tightens the front end's `next_work` bound after an edge ran. A
    /// bound of `e` means "poll every edge" (the candidate action is
    /// either possible now or cheap to re-check); `MAX` means the front
    /// end is fully blocked and will be woken by an event hook
    /// ([`Simulator::complete_at`] for the ROB head, mispredict
    /// resolution in [`Simulator::exec_edge`]).
    fn recompute_fe_wake(&mut self, e: Femtos) {
        let mut w = Femtos::MAX;
        if let Some(at) = self.engine.as_ref().and_then(|en| en.pending_ic_at()) {
            w = w.min(at);
        }
        // Commit: the head's completion time lower-bounds its
        // cross-domain commit visibility. An unissued head wakes us via
        // the complete_at hook instead.
        if let Some(&head) = self.rob.front() {
            if let Some(c) = self.st(head).completion {
                w = w.min(c.max(e));
            }
        }
        // Rename/dispatch: poll only while the fetch-queue head can
        // actually move. Every resource that can block it either frees
        // at commit — ROB slots, physical registers, LSQ entries; the
        // commit bound above (or the head-completion `complete_at`
        // hook) covers those, and commit precedes rename within the
        // same edge — or frees when a saturated issue queue drains,
        // which [`Simulator::exec_edge`] reports via an explicit wake.
        // This is what lets the front end go fully idle during long
        // stalls instead of burning an edge per cycle re-checking
        // conditions that provably cannot change.
        if let Some(&head) = self.fetch_q.front() {
            if self.rob.len() < self.cfg.params.rob_entries && self.head_dispatchable(head) {
                w = w.min(e);
            }
        }
        // Fetch: bounded by an I-cache/mispredict stall when one is in
        // force; a mispredict block (fetch_blocked_on) is cleared — and
        // this bound lowered — at branch resolution.
        if self.fetch_blocked_on.is_none() && self.fetch_q.len() < self.cfg.params.fetch_queue {
            w = w.min(self.fetch_stalled_until.max(e));
        }
        self.next_work[FE] = w;
    }

    /// Whether the fetch-queue head could dispatch right now, given the
    /// free physical registers and its target queue's occupancy (the
    /// first-instruction slice of [`Simulator::rename_dispatch`]'s break
    /// conditions; ROB occupancy is the caller's check).
    fn head_dispatchable(&self, slot: u32) -> bool {
        let inst = &self.st(slot).inst;
        if let Some(d) = inst.dst {
            if self.free_phys[d.class().index()] <= 0 {
                return false;
            }
        }
        match inst.op {
            OpClass::Nop | OpClass::Jump => true,
            op if op.is_mem() => self.lsq.len() < self.cfg.params.lsq_entries,
            op => {
                let qi = usize::from(op.is_fp());
                self.iq[qi].len() < self.iq_cap[qi]
            }
        }
    }

    fn apply_pending_fe(&mut self, e: Femtos) {
        if let Some(idx) = self.engine.as_mut().and_then(|en| en.take_due_ic(e)) {
            self.apply_ic_resize(idx);
        }
    }

    fn apply_ic_resize(&mut self, idx: usize) {
        self.ic_idx = idx;
        self.active_pred = idx;
        let ways = ICacheConfig::from_index(idx).ways();
        self.icache.set_a_ways(ways).expect("phase-mode icache");
    }

    fn apply_dl2_resize(&mut self, idx: usize) {
        self.dl2_idx = idx;
        let ways = Dl2Config::from_index(idx).ways();
        self.l1d.set_a_ways(ways).expect("phase-mode l1d");
        self.l2.set_a_ways(ways).expect("phase-mode l2");
    }

    fn commit(&mut self, e: Femtos, window: u64) {
        let mut retired = 0;
        // Every store retiring on this edge becomes visible in LS at the
        // same instant, so the LS wake is folded into a single
        // `wake_domain` call after the loop (`wake_domain` is a pure min,
        // so one call with the group minimum is bit-identical to one call
        // per store).
        let mut ls_wake: Option<Femtos> = None;
        while retired < self.cfg.params.retire_width && self.committed < window {
            let Some(&slot) = self.rob.front() else { break };
            let st = self.st(slot);
            let Some(c) = st.completion else { break };
            let vis = self.xfer(c, st.exec_domain as usize, FE);
            if vis > e {
                break;
            }
            // Retire.
            let st = self.st(slot);
            let seq = st.seq;
            let is_store = st.inst.op == OpClass::Store;
            let is_load = st.inst.op == OpClass::Load;
            let addr = st.inst.mem_addr;
            let dst_class = st.inst.dst.map(|d| d.class());
            let uses_phys = st.uses_phys;
            self.rob.pop_front();
            if is_store {
                // Perform the write in the load/store domain after the
                // commit signal crosses over.
                let ready = self.xfer(e, FE, LS);
                self.store_jobs.push_back(StoreJob { addr, ready });
                self.remove_lsq_head(slot);
                if self.event_driven {
                    // The store leaves the forwarding window at commit;
                    // being the oldest in-flight instruction it must be
                    // the oldest store on its line, i.e. its chain head.
                    let line = addr >> 3;
                    let next = {
                        let st = self.st_mut(slot);
                        let n = st.line_next;
                        st.line_next = NO_LINK;
                        n
                    };
                    let emptied = {
                        let chain = self
                            .stores_by_line
                            .get_mut(&line)
                            .expect("committed store is line-indexed");
                        debug_assert_eq!(chain.head, slot);
                        chain.head = next;
                        next == NO_LINK
                    };
                    if emptied {
                        self.stores_by_line.remove(&line);
                    }
                    ls_wake = Some(ls_wake.map_or(ready, |w: Femtos| w.min(ready)));
                }
            } else if is_load {
                self.remove_lsq_head(slot);
            }
            if uses_phys {
                if let Some(class) = dst_class {
                    self.free_phys[class.index()] += 1;
                }
            }
            // Free the slot (head first): the slab entry is dead the
            // moment head_seq moves past it; the next fetch reinitializes
            // it in place.
            debug_assert_eq!(seq, self.head_seq);
            self.head_seq += 1;
            self.committed += 1;
            self.last_commit_at = e;
            retired += 1;

            if let Some(en) = self.engine.as_mut() {
                if en.commit_tick() {
                    self.interval_decision();
                }
            }
        }
        if let Some(w) = ls_wake {
            self.wake_domain(LS, w);
        }
    }

    /// Removes the committing memory instruction from the LSQ. Commit is
    /// strictly in age order and the LSQ is age-ordered, so the entry is
    /// the head in **both** loop modes — the reference loop's former
    /// linear `position` search always found index 0 and is gone.
    fn remove_lsq_head(&mut self, slot: u32) {
        debug_assert_eq!(self.lsq.front(), Some(&slot));
        self.lsq.pop_front();
    }

    /// End-of-interval policy evaluation (§3.1). The decision itself
    /// takes ~32 cycles of dedicated hardware; the resulting PLL relock
    /// dwarfs that, so the decision latency is folded into the relock.
    ///
    /// The engine decides; this method executes: it begins the PLL
    /// frequency change and either applies the structural resize now
    /// (downsizes — the clock speeds up after relock) or registers it to
    /// apply once the relock completes (upsizes).
    fn interval_decision(&mut self) {
        // I-cache / branch predictor pair. Decisions are deferred (by
        // the engine) while the domain is already relocking.
        let ic_stats = self.icache.take_stats();
        self.accumulate_ic(&ic_stats);
        let fe_locking = self.clocks[FE].is_locking();
        let committed = self.committed;
        if let Some(new_idx) = self
            .engine
            .as_mut()
            .and_then(|en| en.icache_interval(&ic_stats, fe_locking, committed))
        {
            let cfg = ICacheConfig::from_index(new_idx);
            let f = self.cfg.timing.icache_frequency(cfg);
            let done = self.clocks[FE].begin_frequency_change(f);
            if new_idx < self.ic_idx {
                // Downsize now, speed up after relock.
                self.apply_ic_resize(new_idx);
            } else {
                self.engine
                    .as_mut()
                    .expect("engine decided")
                    .set_pending_ic(new_idx, done);
                self.wake_domain(FE, done);
            }
            self.reconfigs.push(ReconfigEvent {
                at_committed: self.committed,
                kind: ReconfigKind::ICache(cfg),
            });
        }

        // D-cache / L2 pair.
        let l1_stats = self.l1d.take_stats();
        let l2_stats = self.l2.take_stats();
        self.accumulate_dl2(&l1_stats, &l2_stats);
        let ls_locking = self.clocks[LS].is_locking();
        if let Some(new_idx) = self
            .engine
            .as_mut()
            .and_then(|en| en.dl2_interval(&l1_stats, &l2_stats, ls_locking, committed))
        {
            let cfg = Dl2Config::from_index(new_idx);
            let f = self.cfg.timing.dl2_frequency(cfg, Variant::Adaptive);
            let done = self.clocks[LS].begin_frequency_change(f);
            if new_idx < self.dl2_idx {
                self.apply_dl2_resize(new_idx);
            } else {
                self.engine
                    .as_mut()
                    .expect("engine decided")
                    .set_pending_dl2(new_idx, done);
                self.wake_domain(LS, done);
            }
            self.reconfigs.push(ReconfigEvent {
                at_committed: self.committed,
                kind: ReconfigKind::Dl2(cfg),
            });
        }

        // Issue queues: the §3.2 measurements banked at rename are
        // evaluated here, at the same relock-commensurate cadence as the
        // caches (deciding per ~N-instruction tracking interval thrashed
        // the execution-domain PLLs on measurement noise).
        let locking_int = self.clocks[INT].is_locking();
        let locking_fp = self.clocks[FP].is_locking();
        if let Some(d) = self
            .engine
            .as_mut()
            .and_then(|en| en.iq_interval(locking_int, locking_fp, committed))
        {
            self.apply_iq_decision(d);
        }
    }

    fn accumulate_ic(&mut self, s: &gals_cache::AccountingStats) {
        let a = self.icache.a_ways();
        let t = self.icache.physical_ways();
        self.ic_total.accesses += s.accesses;
        self.ic_total.a_hits += s.hits_in_a(a);
        self.ic_total.b_hits += s.hits_in_b(a, t);
        self.ic_total.misses += s.misses;
        self.ic_total.writebacks += s.writebacks;
    }

    fn accumulate_dl2(
        &mut self,
        l1: &gals_cache::AccountingStats,
        l2: &gals_cache::AccountingStats,
    ) {
        let a1 = self.l1d.a_ways();
        let t1 = self.l1d.physical_ways();
        self.l1d_total.accesses += l1.accesses;
        self.l1d_total.a_hits += l1.hits_in_a(a1);
        self.l1d_total.b_hits += l1.hits_in_b(a1, t1);
        self.l1d_total.misses += l1.misses;
        self.l1d_total.writebacks += l1.writebacks;
        let a2 = self.l2.a_ways();
        let t2 = self.l2.physical_ways();
        self.l2_total.accesses += l2.accesses;
        self.l2_total.a_hits += l2.hits_in_a(a2);
        self.l2_total.b_hits += l2.hits_in_b(a2, t2);
        self.l2_total.misses += l2.misses;
        self.l2_total.writebacks += l2.writebacks;
    }

    fn rename_dispatch(&mut self, e: Femtos) {
        // Every instruction of the group bound for domain `d` arrives
        // there at the same `xfer(e, FE, d)`, so the per-instruction
        // execution-domain wakes fold into one `wake_domain` call per
        // domain after the loop (bit-identical: the deferred values are
        // equal and `wake_domain` is a pure min that nothing inside the
        // loop reads back).
        let mut deferred_wake: [Option<Femtos>; 4] = [None; 4];
        for _ in 0..self.cfg.params.decode_width {
            let Some(&slot) = self.fetch_q.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.params.rob_entries {
                break;
            }
            let inst = self.st(slot).inst;
            let seq = self.st(slot).seq;

            // Structural checks.
            if let Some(d) = inst.dst {
                if self.free_phys[d.class().index()] <= 0 {
                    break;
                }
            }
            let exec_domain = match inst.op {
                OpClass::Nop | OpClass::Jump => FE,
                op if op.is_mem() => LS,
                op if op.is_fp() => FP,
                _ => INT,
            };
            match exec_domain {
                LS if self.lsq.len() >= self.cfg.params.lsq_entries => {
                    break;
                }
                INT | FP => {
                    let qi = exec_domain - 1; // INT -> 0, FP -> 1
                    if self.iq[qi].len() >= self.iq_cap[qi] {
                        break;
                    }
                }
                _ => {}
            }

            // Rename sources. Producers that completed are folded into
            // the map as Ready so stale Pending references can never
            // outlive their completion-ring slot.
            let mut srcs = [Src::Free, Src::Free];
            for (i, sr) in inst.srcs.iter().enumerate() {
                if let Some(r) = sr {
                    srcs[i] = match self.rename_map[r.packed() as usize] {
                        RenameRef::Ready { at, domain } => Src::Ready { at, domain },
                        RenameRef::Pending(pseq) => {
                            let ring_slot = self.ring[(pseq as usize) & self.ring_mask];
                            if ring_slot.seq == pseq {
                                self.rename_map[r.packed() as usize] = RenameRef::Ready {
                                    at: ring_slot.at,
                                    domain: ring_slot.domain,
                                };
                                Src::Ready {
                                    at: ring_slot.at,
                                    domain: ring_slot.domain,
                                }
                            } else if pseq < self.head_seq {
                                // Committed long ago; ring slot reused.
                                self.rename_map[r.packed() as usize] = RenameRef::Ready {
                                    at: Femtos::ZERO,
                                    domain: FE as u8,
                                };
                                Src::Free
                            } else {
                                Src::Pending(pseq)
                            }
                        }
                    };
                }
            }

            // Allocate.
            let mut uses_phys = false;
            if let Some(d) = inst.dst {
                self.free_phys[d.class().index()] -= 1;
                uses_phys = true;
                self.rename_map[d.packed() as usize] = RenameRef::Pending(seq);
            }
            let arrival = self.xfer(e, FE, exec_domain);
            {
                let st = self.st_mut(slot);
                st.srcs = srcs;
                st.exec_domain = exec_domain as u8;
                st.arrival = arrival;
                st.renamed = true;
                st.uses_phys = uses_phys;
            }
            self.fetch_q.pop_front();
            self.rob.push_back(slot);

            match exec_domain {
                FE => {
                    // Nops and (BTB-resolved) jumps complete at rename.
                    self.complete_at(slot, e, FE);
                }
                LS => {
                    self.lsq.push_back(slot);
                    if self.event_driven {
                        Self::qpush(&mut self.lsq_pending, &mut self.slab, slot);
                        if inst.op == OpClass::Store {
                            // Append to the line's intrusive store chain
                            // (dispatch order = ascending seq order).
                            let line = inst.mem_addr >> 3;
                            match self.stores_by_line.entry(line) {
                                std::collections::hash_map::Entry::Occupied(mut o) => {
                                    let chain = o.get_mut();
                                    self.slab[chain.tail as usize].line_next = slot;
                                    chain.tail = slot;
                                }
                                std::collections::hash_map::Entry::Vacant(v) => {
                                    v.insert(LineChain {
                                        head: slot,
                                        tail: slot,
                                    });
                                }
                            }
                        }
                        deferred_wake[LS] = Some(arrival);
                    }
                }
                d => {
                    Self::qpush(&mut self.iq[d - 1], &mut self.slab, slot);
                    if self.event_driven {
                        deferred_wake[d] = Some(arrival);
                    }
                }
            }

            // ILP tracking at rename (§3.2). Measurements accumulate in
            // the engine; decisions are taken at adaptation-interval
            // boundaries (see `interval_decision`).
            if let Some(en) = self.engine.as_mut() {
                en.observe_rename(&inst);
            }
        }
        for d in [INT, FP, LS] {
            if let Some(w) = deferred_wake[d] {
                self.wake_domain(d, w);
            }
        }
    }

    fn apply_iq_decision(&mut self, d: IlpDecision) {
        for (qi, (new_size, domain)) in [(0usize, (d.iq_int, INT)), (1, (d.iq_fp, FP))] {
            // Compare against the *target* size (which may still be
            // relocking), not the currently effective capacity.
            let current = self.iq_target[qi];
            let target = new_size.entries();
            if target == current {
                continue;
            }
            self.iq_target[qi] = target;
            let f = self.cfg.timing.iq_frequency(new_size);
            let done = self.clocks[domain].begin_frequency_change(f);
            if target < current {
                // Downsize now (capacity clamps as the queue drains),
                // clock speeds up after relock.
                self.iq_cap[qi] = target as usize;
            } else {
                self.engine
                    .as_mut()
                    .expect("engine decided")
                    .set_pending_iq(qi, new_size, done);
                self.wake_domain(domain, done);
            }
            self.reconfigs.push(ReconfigEvent {
                at_committed: self.committed,
                kind: if qi == 0 {
                    ReconfigKind::IqInt(new_size)
                } else {
                    ReconfigKind::IqFp(new_size)
                },
            });
        }
    }

    /// Fetches up to a decode group from the fetch block, which
    /// [`Simulator::top_up`] filled from either input. An I-cache stall
    /// leaves the cursor on the stalled instruction; the retry finds
    /// `line == cur_fetch_line` (set before the stall return) and skips
    /// the already-performed access, so every model structure sees each
    /// access once.
    ///
    /// The block runs dry only when a prepared trace ends before the
    /// run's fetch demand does, which panics.
    fn fetch(&mut self, e: Femtos) {
        if self.fetch_blocked_on.is_some() || e < self.fetch_stalled_until {
            return;
        }
        let width = self.cfg.params.decode_width;
        for _ in 0..width {
            if self.fetch_q.len() >= self.cfg.params.fetch_queue {
                break;
            }
            assert!(
                self.block_pos < self.block_len,
                "prepared trace underrun: fetch needs instruction {}, past the recording's end",
                self.loaded
            );
            let (inst, line) = self.block[self.block_pos];

            // I-cache: access on line crossings.
            if line != self.cur_fetch_line {
                let r = self.icache.access(inst.pc, AccessKind::Read);
                self.cur_fetch_line = line;
                match r.served {
                    ServedBy::APartition => {}
                    ServedBy::BPartition => {
                        self.fetch_stalled_until = e + self.periods.ic_b_stall[self.ic_idx];
                        return;
                    }
                    ServedBy::Miss => {
                        // Fill from the unified L2 (load/store domain).
                        let req = self.xfer(e, FE, LS);
                        let delay = self.l2_access(inst.pc, AccessKind::Read);
                        let done = req + delay;
                        let vis = self.xfer(done, LS, FE);
                        if let Some(en) = self.engine.as_mut() {
                            en.note_l2_service((vis - e).as_ns());
                        }
                        self.fetch_stalled_until = vis;
                        return;
                    }
                }
            }
            self.block_pos += 1;

            // Allocate the window slot in the slab. The capacity bound
            // guarantees the masked slot is vacant while `seq` is alive.
            let seq = self.next_seq;
            self.next_seq += 1;
            debug_assert!(
                (self.next_seq - self.head_seq) as usize <= self.slab.len(),
                "in-flight window exceeded the slab capacity"
            );
            let slot = self.slot_of(seq);
            *self.st_mut(slot) = InstState {
                inst,
                seq,
                srcs: [Src::Free, Src::Free],
                exec_domain: FE as u8,
                arrival: e,
                next_check: Femtos::ZERO,
                completion: None,
                issued: false,
                renamed: false,
                mispredicted: false,
                uses_phys: false,
                waiter_head: NO_LINK,
                waiter_next: NO_LINK,
                q_prev: NO_LINK,
                q_next: NO_LINK,
                line_next: NO_LINK,
            };
            self.fetch_q.push_back(slot);

            // Branch prediction.
            if inst.op == OpClass::Branch {
                self.branches += 1;
                let predicted = self.predictors[self.active_pred].predict(inst.pc).taken;
                // Train: phase mode keeps all geometries warm.
                if self.predictors.len() > 1 {
                    for p in &mut self.predictors {
                        p.update(inst.pc, inst.taken);
                    }
                } else {
                    self.predictors[0].update(inst.pc, inst.taken);
                }
                if predicted != inst.taken {
                    self.mispredicts += 1;
                    self.st_mut(slot).mispredicted = true;
                    self.fetch_blocked_on = Some(slot);
                    break;
                } else if inst.taken {
                    break; // one taken branch per fetch group
                }
            } else if inst.op == OpClass::Jump {
                break; // taken: end of fetch group
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution-domain edges (integer / floating point)
    // ------------------------------------------------------------------

    fn exec_edge(&mut self, domain: usize, e: Femtos) {
        let qi = domain - 1;
        if let Some(size) = self.engine.as_mut().and_then(|en| en.take_due_iq(qi, e)) {
            // The engine already tracks the target; only the effective
            // capacity changes here. A grown capacity may unblock a
            // dispatch the front end had stopped polling for.
            self.iq_cap[qi] = size.entries() as usize;
            if self.event_driven {
                self.wake_domain(FE, e);
            }
        }

        if self.iq[qi].is_empty() {
            if self.event_driven {
                self.recompute_exec_wake(qi, domain, e);
            }
            return;
        }
        let width = self.cfg.params.issue_width;
        // The front end stops polling while this queue is saturated; if
        // it was and an entry issues below, tell it dispatch can resume.
        let was_full = self.iq[qi].len() >= self.iq_cap[qi];
        let mut issued = 0;
        let mut cur = self.iq[qi].head;
        while cur != NO_LINK && issued < width {
            // Snapshot the age-order successor before a potential
            // unlink; nothing below edits queue links of other entries.
            let next = self.st(cur).q_next;
            let op = self.st(cur).inst.op;
            if !self.entry_ready(cur, domain, e) {
                cur = next;
                continue;
            }
            // Functional unit.
            let timing = self.periods.exec[qi][op as usize];
            let pool_idx = usize::from(matches!(
                op,
                OpClass::IntMul
                    | OpClass::IntDiv
                    | OpClass::FpMul
                    | OpClass::FpDiv
                    | OpClass::FpSqrt
            ));
            let pool = if domain == INT {
                &mut self.fu_int[pool_idx]
            } else {
                &mut self.fu_fp[pool_idx]
            };
            if !pool.try_acquire(e, timing.busy) {
                cur = next;
                continue;
            }

            let completion = e + timing.latency;
            self.complete_at(cur, completion, domain);
            // Mispredicted branch: resolution schedules the refetch.
            if self.st(cur).mispredicted {
                let resume = self.xfer(completion, domain, FE) + self.periods.mispredict_refill;
                self.fetch_stalled_until = self.fetch_stalled_until.max(resume);
                self.fetch_blocked_on = None;
                if self.event_driven {
                    // The front end may have parked with nothing to do;
                    // resolution re-opens fetch, so make it re-evaluate.
                    self.wake_domain(FE, e);
                }
            }
            // O(1) unlink keeps the list in age order, so selection
            // stays oldest-first (the former `Vec::remove` shifting).
            Self::qunlink(&mut self.iq[qi], &mut self.slab, cur);
            issued += 1;
            cur = next;
        }
        if self.event_driven {
            if was_full && issued > 0 {
                self.wake_domain(FE, e);
            }
            self.recompute_exec_wake(qi, domain, e);
        }
    }

    /// Tightens an execution domain's `next_work` bound: the earliest
    /// memoized wake time over its issue-queue entries (entries parked
    /// on an unissued producer sit at `MAX` and are woken by
    /// [`Simulator::complete_at`]), or a pending queue-resize
    /// application. Entries that were ready but lost functional-unit or
    /// issue-width arbitration still carry `next_check <= e`, which
    /// correctly degrades this to per-edge polling while the queue is
    /// saturated.
    fn recompute_exec_wake(&mut self, qi: usize, domain: usize, e: Femtos) {
        let mut w = Femtos::MAX;
        if let Some(at) = self.engine.as_ref().and_then(|en| en.pending_iq_at(qi)) {
            w = w.min(at);
        }
        let mut cur = self.iq[qi].head;
        while cur != NO_LINK {
            let st = self.st(cur);
            w = w.min(st.next_check);
            if w <= e {
                // Any bound at or below the current edge already means
                // "run the very next edge"; no need for a tighter min.
                break;
            }
            cur = st.q_next;
        }
        self.next_work[domain] = w;
    }

    // ------------------------------------------------------------------
    // Load/store-domain edge
    // ------------------------------------------------------------------

    fn ls_edge(&mut self, e: Femtos) {
        if let Some(idx) = self.engine.as_mut().and_then(|en| en.take_due_dl2(e)) {
            self.apply_dl2_resize(idx);
        }

        // Retire completed MSHRs. (In fast mode this runs only on work
        // edges, which is equivalent: retention is monotone in `e` and
        // only the occupancy *at a load's issue attempt* is observable.)
        self.mshr.retain(|&t| t > e);

        if self.event_driven {
            self.ls_edge_fast(e);
        } else {
            self.ls_edge_reference(e);
        }
    }

    /// Fast-path LS edge: walks only the un-issued LSQ entries (the
    /// intrusive pending list), resolves store-to-load forwarding
    /// through the per-line store chains, and finishes by tightening the
    /// domain's `next_work` bound.
    fn ls_edge_fast(&mut self, e: Femtos) {
        let mut ports = self.cfg.params.dcache_ports;
        let mut cur = self.lsq_pending.head;
        while cur != NO_LINK {
            if ports == 0 {
                break;
            }
            let next = self.st(cur).q_next;
            let st = self.st(cur);
            debug_assert!(st.renamed && !st.issued);
            let op = st.inst.op;
            let addr = st.inst.mem_addr;
            let seq = st.seq;
            if !self.entry_ready(cur, LS, e) {
                cur = next;
                continue;
            }
            match op {
                OpClass::Store => {
                    // Data and address ready: ready to commit one cycle
                    // later. The actual cache write happens at commit.
                    let done = e + self.periods.ls_one;
                    self.complete_at(cur, done, LS);
                    Self::qunlink(&mut self.lsq_pending, &mut self.slab, cur);
                }
                OpClass::Load => {
                    // Forwarding / conflict detection against the
                    // youngest older in-flight store to the same 8-byte
                    // line: walk the line's (tiny, seq-ascending) store
                    // chain instead of reverse-scanning the LSQ.
                    let mut forwarded = false;
                    let mut blocked = false;
                    let mut older = NO_LINK;
                    if let Some(&chain) = self.stores_by_line.get(&(addr >> 3)) {
                        let mut s = chain.head;
                        while s != NO_LINK {
                            let sst = self.st(s);
                            if sst.seq >= seq {
                                break;
                            }
                            older = s;
                            s = sst.line_next;
                        }
                    }
                    if older != NO_LINK {
                        match self.st(older).completion {
                            Some(c) if c <= e => {
                                // Forward from the store buffer.
                                let done = e + self.periods.ls_one;
                                self.complete_at(cur, done, LS);
                                forwarded = true;
                            }
                            Some(c) => {
                                self.st_mut(cur).next_check = c;
                                blocked = true;
                            }
                            None => {
                                // The store's own issue time is
                                // unknown; park on its completion
                                // broadcast.
                                let oseq = self.st(older).seq;
                                self.park_on(oseq, cur);
                                blocked = true;
                            }
                        }
                    }
                    if forwarded {
                        ports -= 1;
                        Self::qunlink(&mut self.lsq_pending, &mut self.slab, cur);
                        cur = next;
                        continue;
                    }
                    if blocked {
                        cur = next;
                        continue;
                    }
                    let Some(completion) = self.load_dcache_access(cur, addr, e) else {
                        cur = next;
                        continue;
                    };
                    self.complete_at(cur, completion, LS);
                    ports -= 1;
                    Self::qunlink(&mut self.lsq_pending, &mut self.slab, cur);
                }
                _ => unreachable!("only memory ops live in the LSQ"),
            }
            cur = next;
        }

        self.perform_committed_stores(ports, e);
        self.recompute_ls_wake(e);
    }

    /// Tightens the load/store domain's `next_work` bound: earliest
    /// memoized wake over pending LSQ entries, the head committed-store
    /// write, or a pending D/L2 resize application.
    fn recompute_ls_wake(&mut self, e: Femtos) {
        let mut w = Femtos::MAX;
        if let Some(at) = self.engine.as_ref().and_then(|en| en.pending_dl2_at()) {
            w = w.min(at);
        }
        if let Some(job) = self.store_jobs.front() {
            w = w.min(job.ready);
        }
        let mut cur = self.lsq_pending.head;
        while cur != NO_LINK {
            let st = self.st(cur);
            w = w.min(st.next_check);
            if w <= e {
                break;
            }
            cur = st.q_next;
        }
        self.next_work[LS] = w;
    }

    /// Reference LS edge: the straightforward full-LSQ walk with the
    /// reverse linear forwarding scan (the baseline the fast path is
    /// benchmarked and determinism-checked against). Walks the LSQ in
    /// place by index — dispatch and commit both happen on front-end
    /// edges, so the queue cannot change mid-walk (the former
    /// `lsq_scratch` copy rebuilt per edge guarded against nothing).
    fn ls_edge_reference(&mut self, e: Femtos) {
        if self.lsq.is_empty() && self.store_jobs.is_empty() {
            return;
        }

        let mut ports = self.cfg.params.dcache_ports;

        // LSQ walk, oldest first: stores become commit-eligible when
        // their operands arrive; loads issue through the cache.
        for pos in 0..self.lsq.len() {
            if ports == 0 {
                break;
            }
            let slot = self.lsq[pos];
            let st = self.st(slot);
            if st.issued || !st.renamed {
                continue;
            }
            let op = st.inst.op;
            let addr = st.inst.mem_addr;
            if !self.entry_ready(slot, LS, e) {
                continue;
            }
            match op {
                OpClass::Store => {
                    // Data and address ready: ready to commit one cycle
                    // later. The actual cache write happens at commit.
                    let done = e + self.periods.ls_one;
                    self.complete_at(slot, done, LS);
                }
                OpClass::Load => {
                    // Store-to-load forwarding / conflict detection
                    // against older unperformed stores (addresses are
                    // exact in the trace).
                    let mut forwarded = false;
                    let mut blocked = false;
                    for p in (0..pos).rev() {
                        let oslot = self.lsq[p];
                        let ost = self.st(oslot);
                        if ost.inst.op != OpClass::Store {
                            continue;
                        }
                        if ost.inst.mem_addr >> 3 == addr >> 3 {
                            match ost.completion {
                                Some(c) if c <= e => {
                                    // Forward from the store buffer.
                                    let done = e + self.periods.ls_one;
                                    self.complete_at(slot, done, LS);
                                    forwarded = true;
                                }
                                Some(c) => {
                                    self.st_mut(slot).next_check = c;
                                    blocked = true;
                                }
                                None => blocked = true,
                            }
                            break;
                        }
                    }
                    if forwarded {
                        ports -= 1;
                        continue;
                    }
                    if blocked {
                        continue;
                    }
                    let Some(completion) = self.load_dcache_access(slot, addr, e) else {
                        continue;
                    };
                    self.complete_at(slot, completion, LS);
                    ports -= 1;
                }
                _ => unreachable!("only memory ops live in the LSQ"),
            }
        }

        self.perform_committed_stores(ports, e);
    }

    /// Issues one load into the D-cache hierarchy, returning its
    /// completion time, or `None` when all MSHRs are occupied (the entry
    /// is put to sleep until the earliest one frees).
    fn load_dcache_access(&mut self, slot: u32, addr: u64, e: Femtos) -> Option<Femtos> {
        let r = self.l1d.access(addr, AccessKind::Read);
        match r.served {
            ServedBy::APartition => Some(e + self.periods.l1_a),
            ServedBy::BPartition => Some(e + self.periods.l1_b[self.dl2_idx]),
            ServedBy::Miss => {
                if self.mshr.len() >= self.cfg.params.mshrs {
                    // Sleep until the earliest MSHR frees.
                    if let Some(&wake) = self.mshr.iter().min() {
                        self.st_mut(slot).next_check = wake;
                    }
                    return None;
                }
                let base = self.periods.l1_a;
                let delay = self.l2_access(addr, AccessKind::Read);
                let done = e + base + delay;
                self.mshr.push(done);
                Some(done)
            }
        }
    }

    /// Committed stores perform their writes with leftover ports.
    fn perform_committed_stores(&mut self, mut ports: usize, e: Femtos) {
        while ports > 0 {
            let Some(job) = self.store_jobs.front().copied() else {
                break;
            };
            if job.ready > e {
                break;
            }
            self.store_jobs.pop_front();
            let r = self.l1d.access(job.addr, AccessKind::Write);
            if r.served == ServedBy::Miss {
                // Write-allocate: fill the line from L2/memory in the
                // background (store buffer hides the latency).
                let _ = self.l2_access(job.addr, AccessKind::Write);
            }
            ports -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// The span of simulated time with no commits that trips the
    /// deadlock detector (a model-bug backstop, far beyond any real
    /// stall).
    const DEADLOCK_SPAN: Femtos = Femtos::from_us(200);

    /// Earliest next edge across the four domains (ties broken by
    /// domain index, front end first).
    #[inline]
    fn earliest_edge(&self) -> (usize, Femtos) {
        let mut d = 0;
        let mut t = self.clocks[0].peek_next_edge();
        for i in 1..4 {
            let ti = self.clocks[i].peek_next_edge();
            if ti < t {
                t = ti;
                d = i;
            }
        }
        (d, t)
    }

    /// Updates the deadlock detector after an edge at `e`; panics when a
    /// long span of simulated time passes with no commits (a model bug).
    /// State lives on `self` so detection spans pauses exactly as it
    /// spans one continuous run.
    #[inline]
    fn note_progress(&mut self, e: Femtos) {
        if self.committed > self.last_progress_count {
            self.last_progress_count = self.committed;
            self.last_progress_time = e;
        } else if e > self.last_progress_time + Self::DEADLOCK_SPAN {
            panic!(
                "pipeline deadlock at {} ({} committed, rob={}, iq=[{},{}], lsq={}, fq={})",
                e,
                self.committed,
                self.rob.len(),
                self.iq[0].len(),
                self.iq[1].len(),
                self.lsq.len(),
                self.fetch_q.len(),
            );
        }
    }

    /// Bulk idle-edge skip (fast path): any edge strictly before every
    /// domain's next-work bound provably runs a no-op handler, so
    /// fast-forward all four clocks to the earliest bound at once. Each
    /// clock's jump is O(1) and leaves it exactly as ticking every
    /// skipped edge would (same jitter-RNG position, same relock
    /// re-base), which is what keeps results bit-identical to the
    /// reference loop. The deadlock span caps the jump so a buggy bound
    /// still trips the detector. Returns true when the edge at `t` was
    /// skipped over.
    #[inline]
    fn try_fast_forward(&mut self, t: Femtos) -> bool {
        let horizon = (self.last_progress_time + Self::DEADLOCK_SPAN)
            .min(*self.next_work.iter().min().expect("four domains"));
        if t >= horizon {
            return false;
        }
        for clock in &mut self.clocks {
            clock.fast_forward_to(horizon);
        }
        self.periods.refresh(&self.clocks, &self.cfg.params);
        true
    }

    /// Tops the fetch block up to at least a decode group, as far as the
    /// input reaches. The unfetched leftovers move to the front; then a
    /// live stream supplies the rest of one group, so it is never read
    /// further ahead than [`CoreParams::max_in_flight`] promises, and a
    /// prepared trace fills the rest of the block from position
    /// `loaded`, clamped at its end. Reading by absolute position is what
    /// lets a snapshot paused over one recording resume over a longer
    /// recording of the same stream.
    ///
    /// [`CoreParams::max_in_flight`]: crate::config::CoreParams::max_in_flight
    fn top_up(&mut self, input: &mut Input<'_>) {
        let width = self.cfg.params.decode_width;
        let left = self.block_len - self.block_pos;
        if left >= width {
            return;
        }
        self.block.copy_within(self.block_pos..self.block_len, 0);
        let filled = match input {
            Input::Live(stream) => {
                let line_bytes = self.cfg.params.line_bytes;
                for entry in &mut self.block[left..width] {
                    let inst = stream.next_inst();
                    *entry = (inst, inst.pc / line_bytes);
                }
                width - left
            }
            Input::Trace(prep) => {
                let from = self.loaded as usize;
                let n = (FETCH_BLOCK - left).min(prep.len().saturating_sub(from));
                for (k, entry) in self.block[left..left + n].iter_mut().enumerate() {
                    *entry = (prep.inst(from + k), prep.fetch_line(from + k));
                }
                n
            }
        };
        self.block_pos = 0;
        self.block_len = left + filled;
        self.loaded += filled as u64;
    }

    /// The stepping loop both run loops share: advances edge by edge
    /// until `window` instructions have committed (returns `true`) or,
    /// before that, the commit count has reached `pause_at` (returns
    /// `false`). The pause is checked between edges and mutates
    /// nothing, so resuming re-evaluates the identical edge.
    fn step(&mut self, mut input: Input<'_>, window: u64, pause_at: u64) -> bool {
        assert!(window > 0, "window must be positive");
        while self.committed < window {
            if self.committed >= pause_at {
                return false;
            }
            let (d, t) = self.earliest_edge();
            if self.event_driven && self.try_fast_forward(t) {
                continue;
            }
            let e = self.clocks[d].tick();
            self.track_period(d);
            if !self.event_driven || e >= self.next_work[d] {
                match d {
                    0 => {
                        self.top_up(&mut input);
                        self.fe_edge(e, window);
                    }
                    1 | 2 => self.exec_edge(d, e),
                    3 => self.ls_edge(e),
                    _ => unreachable!(),
                }
            }
            self.note_progress(e);
        }
        true
    }

    /// Runs the machine until `window` instructions have committed and
    /// returns the measured result.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or if the pipeline deadlocks (a model
    /// bug), detected as a long span of simulated time with no commits.
    pub fn run<S: InstructionStream>(mut self, stream: &mut S, window: u64) -> SimResult {
        self.step(Input::Live(stream), window, u64::MAX);
        // lint:allow(hot-path-alloc): one name copy per completed run, after the stepping loop exits
        let name = stream.name().to_string();
        self.finish(&name)
    }

    /// Advances the machine over `prep` until either `window`
    /// instructions have committed (returns `true`; harvest with
    /// [`Simulator::finish`]) or, before that, the commit count has
    /// reached `upto` (returns `false`; resume by calling again). Every
    /// piece of pipeline state is preserved between calls. `upto =
    /// u64::MAX` never pauses, which makes one call exactly
    /// [`Simulator::run`] over the same instructions.
    ///
    /// The pause is taken right after the edge whose commits reached
    /// `upto`, and it mutates nothing, so the state evolution is
    /// bit-identical under every pause schedule. `window` must be the
    /// same value on every call. Because `window` only clamps commit, a
    /// machine paused at `upto < window` is also exactly where a run
    /// with any window above its commit count would be, and
    /// [`Simulator::runtime_ns`] there is the runtime of a run with
    /// window `upto` (the determinism suite asserts both).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, if `prep` was prepared for a
    /// different I-cache line size than this machine's, if the trace
    /// runs out before the window commits (capture at least `window +
    /// max_in_flight()` instructions), or on pipeline deadlock.
    pub fn run_chunk(&mut self, prep: &PreparedTrace, window: u64, upto: u64) -> bool {
        assert_eq!(
            prep.line_bytes(),
            self.cfg.params.line_bytes,
            "prepared trace line size must match the machine configuration"
        );
        self.step(Input::Trace(prep), window, upto)
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Simulated time (ns) of the latest commit: the runtime so far.
    /// Right after a [`Simulator::run_chunk`] pause at commit count
    /// `upto`, this is the runtime of a fresh run with window `upto`.
    pub fn runtime_ns(&self) -> f64 {
        self.last_commit_at.as_ns()
    }

    /// Cache-model bytes actually resident for this machine (the three
    /// accounting caches' lazily allocated storage plus set indices).
    pub fn cache_model_resident_bytes(&self) -> usize {
        self.icache.resident_bytes() + self.l1d.resident_bytes() + self.l2.resident_bytes()
    }

    /// Cache-model bytes the pre-PR 7 eager array-of-structs layout
    /// would hold resident for the same geometries.
    pub fn cache_model_eager_bytes(&self) -> usize {
        self.icache.eager_layout_bytes()
            + self.l1d.eager_layout_bytes()
            + self.l2.eager_layout_bytes()
    }

    // lint:endhot — everything below runs once per completed simulation
    // (result harvest), not per instruction or per edge.

    /// Folds outstanding statistics and produces the [`SimResult`] for a
    /// machine whose run has completed (the [`Simulator::run_chunk`]
    /// harvest; [`Simulator::run`] goes through this too).
    pub fn finish(mut self, benchmark: &str) -> SimResult {
        // Fold any un-drained interval statistics into the totals.
        let ic = self.icache.take_stats();
        self.accumulate_ic(&ic);
        let l1 = self.l1d.take_stats();
        let l2 = self.l2.take_stats();
        self.accumulate_dl2(&l1, &l2);

        SimResult {
            benchmark: benchmark.to_string(),
            committed: self.committed,
            runtime: self.last_commit_at,
            final_freqs: [
                self.clocks[0].frequency(),
                self.clocks[1].frequency(),
                self.clocks[2].frequency(),
                self.clocks[3].frequency(),
            ],
            domain_cycles: [
                self.clocks[0].cycle(),
                self.clocks[1].cycle(),
                self.clocks[2].cycle(),
                self.clocks[3].cycle(),
            ],
            branches: self.branches,
            mispredicts: self.mispredicts,
            icache: self.ic_total,
            l1d: self.l1d_total,
            l2: self.l2_total,
            reconfigs: self.reconfigs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McdConfig;
    use gals_isa::ArchReg;

    /// Simple synthetic stream for unit tests: parallel int ALU chains
    /// with occasional well-predicted branches.
    struct TestStream {
        i: u64,
    }

    impl InstructionStream for TestStream {
        fn next_inst(&mut self) -> DynInst {
            let i = self.i;
            self.i += 1;
            let pc = 0x1000 + (i % 256) * 4;
            if i % 16 == 15 {
                DynInst::branch(pc, ArchReg::int(1), true, 0x1000)
            } else {
                let r = ArchReg::int(1 + (i % 8) as u8);
                DynInst::alu(pc, OpClass::IntAlu, r, [Some(r), None])
            }
        }
        fn name(&self) -> &str {
            "test-stream"
        }
    }

    #[test]
    fn sync_machine_runs_to_completion() {
        let cfg = MachineConfig::best_synchronous();
        let r = Simulator::new(cfg).run(&mut TestStream { i: 0 }, 10_000);
        assert_eq!(r.committed, 10_000);
        assert!(r.runtime > Femtos::ZERO);
        assert!(r.bips() > 0.1, "IPC should be reasonable: {}", r.bips());
        assert!(r.reconfigs.is_empty());
    }

    #[test]
    fn program_adaptive_runs() {
        let cfg = MachineConfig::program_adaptive(McdConfig::smallest());
        let r = Simulator::new(cfg).run(&mut TestStream { i: 0 }, 10_000);
        assert_eq!(r.committed, 10_000);
        assert!(r.reconfigs.is_empty(), "no controllers in program mode");
    }

    #[test]
    fn phase_adaptive_runs() {
        let cfg = MachineConfig::phase_adaptive(McdConfig::smallest());
        let r = Simulator::new(cfg).run(&mut TestStream { i: 0 }, 40_000);
        assert_eq!(r.committed, 40_000);
    }

    #[test]
    fn deterministic_runs() {
        let a =
            Simulator::new(MachineConfig::best_synchronous()).run(&mut TestStream { i: 0 }, 5_000);
        let b =
            Simulator::new(MachineConfig::best_synchronous()).run(&mut TestStream { i: 0 }, 5_000);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.mispredicts, b.mispredicts);
    }

    #[test]
    fn ipc_in_plausible_range() {
        let cfg = MachineConfig::best_synchronous();
        let freq = cfg.initial_frequencies()[0];
        let r = Simulator::new(cfg).run(&mut TestStream { i: 0 }, 20_000);
        let cycles = freq.as_hz() as f64 * r.runtime.as_secs();
        let ipc = r.committed as f64 / cycles;
        // 8 parallel chains, issue width 6, 4 ALUs: IPC should be solidly
        // superscalar but bounded by the ALU count.
        assert!(ipc > 1.0 && ipc < 5.0, "ipc {ipc}");
    }

    #[test]
    fn branch_stats_collected() {
        let r =
            Simulator::new(MachineConfig::best_synchronous()).run(&mut TestStream { i: 0 }, 20_000);
        assert!(r.branches > 1_000);
        // The all-taken loop branch is nearly perfectly predictable.
        assert!(r.mispredict_rate() < 0.1, "rate {}", r.mispredict_rate());
    }

    #[test]
    fn caches_see_fetch_traffic() {
        let r =
            Simulator::new(MachineConfig::best_synchronous()).run(&mut TestStream { i: 0 }, 20_000);
        assert!(r.icache.accesses > 0);
        // 256-instruction loop fits the I-cache: only cold misses remain.
        assert!(r.icache.miss_rate() < 0.03, "rate {}", r.icache.miss_rate());
    }

    #[test]
    fn period_table_tracks_every_relock() {
        // apsi reconfigures five times in 150K instructions on this
        // machine, and its clock periods change at three points. Pausing
        // after every commit observes the table after each relock
        // completion (a relock spans thousands of commits), on both loops.
        let machine = MachineConfig::phase_adaptive(McdConfig::smallest());
        let window = 150_000;
        let spec = gals_workloads::suite::by_name("apsi").unwrap();
        let need = window + machine.params.max_in_flight() as u64;
        let prep = PreparedTrace::new(
            &gals_workloads::SharedTrace::capture(&mut spec.stream(), need),
            machine.params.line_bytes,
        );
        for reference in [false, true] {
            let mut sim = Simulator::new(machine.clone());
            if reference {
                sim = sim.use_reference_loop();
            }
            sim.periods.assert_matches(&sim.clocks, &sim.cfg.params);
            let mut seen = sim.clocks.each_ref().map(DomainClock::period);
            let mut changes = 0;
            while !sim.run_chunk(&prep, window, sim.committed + 1) {
                let now = sim.clocks.each_ref().map(DomainClock::period);
                if now != seen {
                    changes += 1;
                    seen = now;
                }
                sim.periods.assert_matches(&sim.clocks, &sim.cfg.params);
            }
            assert!(changes >= 3, "expected relocks to complete, saw {changes}");
            assert_eq!(sim.finish("apsi").reconfigs.len(), 5);
        }
    }

    /// A prepared recording of `spec`'s first `n` instructions.
    fn prepare(spec: &gals_workloads::BenchmarkSpec, n: u64, line_bytes: u64) -> PreparedTrace {
        let trace = gals_workloads::SharedTrace::capture(&mut spec.stream(), n);
        PreparedTrace::new(&trace, line_bytes)
    }

    #[test]
    fn clamped_pause_resumes_over_a_longer_recording() {
        // A recording just long enough to reach the pause (every
        // instruction fetched by then, and no more) clamps the block
        // fill at its end. A clone resumed over a longer recording of
        // the same stream refills from its absolute position (the
        // interval memo's splice) and ends bit-identical to one
        // continuous run, on both loops.
        let machine = MachineConfig::phase_adaptive(McdConfig::smallest());
        let (pause, window) = (20_000, 50_000);
        let spec = gals_workloads::suite::by_name("gcc").unwrap();
        let slack = machine.params.max_in_flight() as u64;
        let line_bytes = machine.params.line_bytes;
        let long = prepare(&spec, window + slack, line_bytes);
        for reference in [false, true] {
            let fresh = || {
                let sim = Simulator::new(machine.clone());
                if reference {
                    sim.use_reference_loop()
                } else {
                    sim
                }
            };
            let mut probe = fresh();
            assert!(!probe.run_chunk(&long, window, pause));
            let fetched = probe.loaded - (probe.block_len - probe.block_pos) as u64;
            let short = prepare(&spec, fetched, line_bytes);
            let mut paused = fresh();
            assert!(!paused.run_chunk(&short, window, pause));
            assert_eq!(paused.loaded, short.len() as u64, "fill clamped at the end");
            let mut resumed = paused.clone();
            assert!(resumed.run_chunk(&long, window, u64::MAX));
            let mut continuous = fresh();
            assert!(continuous.run_chunk(&long, window, u64::MAX));
            assert_eq!(resumed.finish("gcc"), continuous.finish("gcc"));
        }
    }

    #[test]
    #[should_panic(expected = "prepared trace underrun")]
    fn prepared_trace_shorter_than_the_window_underruns() {
        let machine = MachineConfig::best_synchronous();
        let spec = gals_workloads::suite::by_name("gzip").unwrap();
        let prep = prepare(&spec, 1_000, machine.params.line_bytes);
        Simulator::new(machine).run_chunk(&prep, 10_000, u64::MAX);
    }

    #[test]
    fn slab_capacity_exceeds_in_flight_bound() {
        let cfg = MachineConfig::best_synchronous();
        let bound = cfg.params.max_in_flight();
        let sim = Simulator::new(cfg);
        assert!(sim.slab.len() >= bound);
        assert!(sim.slab.len().is_power_of_two());
        assert!(sim.ring.len() >= 4 * sim.slab.len());
    }
}
