//! Machine configuration: Table 5 parameters plus the mode-specific
//! structure choices.

use gals_common::{Femtos, Hertz};
use gals_control::{CacheLatencies, ControlPolicy};
use gals_isa::OpClass;
use gals_timing::{Dl2Config, ICacheConfig, IqSize, SyncICacheOption, TimingModel, Variant};

/// One point in the adaptive MCD configuration space: 4 × 4 × 4 × 4 = 256
/// combinations (the space the Program-Adaptive sweep searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct McdConfig {
    /// Front-end I-cache / branch-predictor configuration (Table 2).
    pub icache: ICacheConfig,
    /// Load/store D-cache / L2 configuration (Table 1).
    pub dl2: Dl2Config,
    /// Integer issue-queue size.
    pub iq_int: IqSize,
    /// Floating-point issue-queue size.
    pub iq_fp: IqSize,
}

impl McdConfig {
    /// The base configuration: everything smallest and fastest.
    pub fn smallest() -> Self {
        McdConfig {
            icache: ICacheConfig::K16W1,
            dl2: Dl2Config::K32W1,
            iq_int: IqSize::Q16,
            iq_fp: IqSize::Q16,
        }
    }

    /// Everything largest (and slowest-clocked).
    pub fn largest() -> Self {
        McdConfig {
            icache: ICacheConfig::K64W4,
            dl2: Dl2Config::K256W8,
            iq_int: IqSize::Q64,
            iq_fp: IqSize::Q64,
        }
    }

    /// Enumerates all 256 configurations.
    pub fn enumerate() -> Vec<McdConfig> {
        let mut v = Vec::with_capacity(256);
        for &icache in &ICacheConfig::ALL {
            for &dl2 in &Dl2Config::ALL {
                for &iq_int in &IqSize::ALL {
                    for &iq_fp in &IqSize::ALL {
                        v.push(McdConfig {
                            icache,
                            dl2,
                            iq_int,
                            iq_fp,
                        });
                    }
                }
            }
        }
        v
    }

    /// Compact display key, e.g. `ic16k1W_dl32k1W_qi16_qf16`.
    pub fn key(&self) -> String {
        format!(
            "ic{}_dl{}_qi{}_qf{}",
            self.icache,
            self.dl2.ways(),
            self.iq_int.entries(),
            self.iq_fp.entries()
        )
    }
}

/// One point in the fully synchronous design space: 16 I-cache options ×
/// 4 D/L2 × 4 int IQ × 4 FP IQ = 1,024 combinations (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncConfig {
    /// Fixed I-cache option (Table 3).
    pub icache: SyncICacheOption,
    /// Fixed D/L2 configuration (optimal variant).
    pub dl2: Dl2Config,
    /// Integer issue-queue size.
    pub iq_int: IqSize,
    /// Floating-point issue-queue size.
    pub iq_fp: IqSize,
}

impl SyncConfig {
    /// The best-overall configuration found by the paper's sweep: 64 KB
    /// direct-mapped I-cache, 32 KB/256 KB direct-mapped D/L2, both issue
    /// queues at 16 entries (§4).
    pub fn paper_best() -> Self {
        SyncConfig {
            icache: SyncICacheOption::paper_best(),
            dl2: Dl2Config::K32W1,
            iq_int: IqSize::Q16,
            iq_fp: IqSize::Q16,
        }
    }

    /// Enumerates all 1,024 configurations.
    pub fn enumerate() -> Vec<SyncConfig> {
        let mut v = Vec::with_capacity(1024);
        for icache in SyncICacheOption::all() {
            for &dl2 in &Dl2Config::ALL {
                for &iq_int in &IqSize::ALL {
                    for &iq_fp in &IqSize::ALL {
                        v.push(SyncConfig {
                            icache,
                            dl2,
                            iq_int,
                            iq_fp,
                        });
                    }
                }
            }
        }
        v
    }

    /// The single global clock frequency: the slowest of the chosen
    /// structures' maximum frequencies, capped by the non-modeled paths.
    pub fn global_frequency(&self, model: &TimingModel) -> Hertz {
        let f = model
            .sync_icache_frequency(self.icache)
            .min(model.dl2_frequency(self.dl2, Variant::Optimal))
            .min(model.iq_frequency(self.iq_int))
            .min(model.iq_frequency(self.iq_fp));
        f.min(model.domain_cap())
    }

    /// Compact display key.
    pub fn key(&self) -> String {
        format!(
            "ic{}_dl{}_qi{}_qf{}",
            self.icache,
            self.dl2.ways(),
            self.iq_int.entries(),
            self.iq_fp.entries()
        )
    }
}

/// Microarchitectural parameters (Table 5) and model constants shared by
/// all machine styles.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreParams {
    /// Fetch queue entries.
    pub fetch_queue: usize,
    /// Decode (rename/dispatch) width per front-end cycle.
    pub decode_width: usize,
    /// Issue width per execution-domain cycle.
    pub issue_width: usize,
    /// Retire width per front-end cycle.
    pub retire_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load/store queue entries.
    pub lsq_entries: usize,
    /// Physical integer registers.
    pub phys_int: usize,
    /// Physical floating-point registers.
    pub phys_fp: usize,
    /// Integer ALUs (pipelined).
    pub int_alus: usize,
    /// Integer multiply/divide units.
    pub int_muldiv: usize,
    /// FP ALUs (pipelined adders).
    pub fp_alus: usize,
    /// FP multiply/divide/sqrt units.
    pub fp_muldiv: usize,
    /// D-cache ports per load/store cycle.
    pub dcache_ports: usize,
    /// Outstanding L1 misses (MSHRs).
    pub mshrs: usize,
    /// Branch mispredict penalty, front-end cycles (9 sync / 10 adaptive).
    pub mispredict_fe_cycles: u64,
    /// Branch mispredict penalty, integer cycles (7 sync / 9 adaptive).
    pub mispredict_int_cycles: u64,
    /// L1 A-partition latency in cycles (I and D).
    pub l1_a_cycles: u64,
    /// L1 B-partition latency per configuration index (Table 5:
    /// 2/8, 2/5, 2/2, 2/–).
    pub l1_b_cycles: [Option<u64>; 4],
    /// L2 A-partition latency in cycles.
    pub l2_a_cycles: u64,
    /// L2 B-partition latency per configuration index (12/43, 12/27,
    /// 12/12, 12/–).
    pub l2_b_cycles: [Option<u64>; 4],
    /// Main-memory first-access latency.
    pub mem_first: Femtos,
    /// Main-memory latency per subsequent 8-byte transfer.
    pub mem_burst: Femtos,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Adaptation interval in committed instructions (§3.1).
    pub interval_insts: u64,
    /// Controller decision latency in front-end cycles (§3.1).
    pub decision_cycles: u64,
    /// Cycle-to-cycle clock jitter fraction for MCD domains.
    pub jitter_frac: f64,
    /// Synchronization setup window as a fraction of the faster period
    /// (§2: 30%). Exposed for ablation studies.
    pub sync_threshold_frac: f64,
    /// Multiplier on the PLL lock-time parameters (§2: mean 15 µs,
    /// range 10–20 µs at 1.0). Exposed for ablation studies.
    pub pll_scale: f64,
    /// RNG seed for clock jitter / PLL streams.
    pub clock_seed: u64,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            fetch_queue: 16,
            decode_width: 8,
            issue_width: 6,
            retire_width: 11,
            rob_entries: 256,
            lsq_entries: 64,
            phys_int: 96,
            phys_fp: 96,
            int_alus: 4,
            int_muldiv: 1,
            fp_alus: 4,
            fp_muldiv: 1,
            dcache_ports: 2,
            mshrs: 8,
            mispredict_fe_cycles: 9,
            mispredict_int_cycles: 7,
            l1_a_cycles: 2,
            l1_b_cycles: [Some(8), Some(5), Some(2), None],
            l2_a_cycles: 12,
            l2_b_cycles: [Some(43), Some(27), Some(12), None],
            mem_first: Femtos::from_ns(80),
            mem_burst: Femtos::from_ns(2),
            line_bytes: 64,
            interval_insts: 15_000,
            decision_cycles: 32,
            jitter_frac: 0.01,
            sync_threshold_frac: 0.3,
            pll_scale: 1.0,
            clock_seed: 0x6A15_0001,
        }
    }
}

impl CoreParams {
    /// Full line-fill latency from memory: first access plus the burst
    /// transfers for the rest of the line (8-byte beats).
    pub fn memory_latency(&self) -> Femtos {
        let beats = (self.line_bytes / 8).saturating_sub(1);
        self.mem_first + self.mem_burst * beats
    }

    /// Latency in cycles of an execution-class operation.
    pub fn op_latency_cycles(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 20,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 12,
            OpClass::FpSqrt => 24,
            // Loads/stores timed by the memory system, not here.
            OpClass::Load | OpClass::Store | OpClass::Nop => 1,
        }
    }

    /// Whether the unit is occupied for the full latency (unpipelined
    /// divide/sqrt) or a single initiation cycle.
    pub fn op_unpipelined(&self, op: OpClass) -> bool {
        matches!(op, OpClass::IntDiv | OpClass::FpDiv | OpClass::FpSqrt)
    }

    /// Upper bound on simultaneously in-flight instructions: everything
    /// the simulator tracks lives in the ROB or the fetch queue, plus
    /// the one decode group a live stream's fetch block holds loaded
    /// ahead of fetch, plus two spare. Sizes the simulator's
    /// instruction-window slab, and bounds how far a run can read past
    /// its committed window into an instruction stream (which is what
    /// lets sweeps replay finite shared traces instead of regenerating
    /// streams per job).
    pub fn max_in_flight(&self) -> usize {
        self.rob_entries + self.fetch_queue + self.decode_width + 2
    }

    /// The Table 5 cache-latency slice the adaptation engine's cost
    /// tables are built from.
    pub fn cache_latencies(&self) -> CacheLatencies {
        CacheLatencies {
            l1_a_cycles: self.l1_a_cycles,
            l1_b_cycles: self.l1_b_cycles,
            l2_a_cycles: self.l2_a_cycles,
            l2_b_cycles: self.l2_b_cycles,
        }
    }
}

/// Machine style plus its structure choices.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineKind {
    /// Single-clock processor; caches have no B partitions; mispredict
    /// penalty 9 + 7.
    Synchronous(SyncConfig),
    /// Four-domain MCD with a fixed configuration for the whole run;
    /// caches have no B partitions; mispredict penalty 10 + 9.
    ProgramAdaptive(McdConfig),
    /// Four-domain MCD with on-line controllers; full Accounting Caches;
    /// starts from the given configuration.
    PhaseAdaptive(McdConfig),
}

/// The complete machine configuration handed to [`crate::Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Machine style and structure choices.
    pub kind: MachineKind,
    /// Table 5 parameters.
    pub params: CoreParams,
    /// Circuit timing model (frequencies per configuration).
    pub timing: TimingModel,
    /// Adaptation-control policy driving a phase-adaptive machine's
    /// resizing (ignored by the fixed machine styles). Defaults to the
    /// paper's [`ControlPolicy::PaperArgmin`].
    pub control: ControlPolicy,
}

impl MachineConfig {
    /// A fully synchronous machine with the given fixed configuration.
    pub fn synchronous(cfg: SyncConfig) -> Self {
        MachineConfig {
            kind: MachineKind::Synchronous(cfg),
            params: CoreParams::default(),
            timing: TimingModel::default(),
            control: ControlPolicy::default(),
        }
    }

    /// The paper's best-overall synchronous baseline.
    pub fn best_synchronous() -> Self {
        MachineConfig::synchronous(SyncConfig::paper_best())
    }

    /// A program-adaptive MCD machine fixed at `cfg` for the whole run.
    pub fn program_adaptive(cfg: McdConfig) -> Self {
        let mut m = MachineConfig {
            kind: MachineKind::ProgramAdaptive(cfg),
            params: CoreParams::default(),
            timing: TimingModel::default(),
            control: ControlPolicy::default(),
        };
        m.apply_adaptive_penalties();
        m
    }

    /// A phase-adaptive MCD machine starting from `cfg` (conventionally
    /// [`McdConfig::smallest`]), driven by the paper's default control
    /// policy.
    pub fn phase_adaptive(cfg: McdConfig) -> Self {
        let mut m = MachineConfig {
            kind: MachineKind::PhaseAdaptive(cfg),
            params: CoreParams::default(),
            timing: TimingModel::default(),
            control: ControlPolicy::default(),
        };
        m.apply_adaptive_penalties();
        m
    }

    /// A phase-adaptive machine driven by an explicit control policy.
    pub fn phase_adaptive_with(cfg: McdConfig, policy: ControlPolicy) -> Self {
        MachineConfig::phase_adaptive(cfg).with_control(policy)
    }

    /// Replaces the adaptation-control policy.
    #[must_use]
    pub fn with_control(mut self, policy: ControlPolicy) -> Self {
        self.control = policy;
        self
    }

    /// §2: the adaptive MCD is over-pipelined at lower frequencies and
    /// pays one extra front-end cycle and two extra integer cycles on
    /// mispredictions (Table 5: 10 + 9 versus 9 + 7).
    fn apply_adaptive_penalties(&mut self) {
        self.params.mispredict_fe_cycles = 10;
        self.params.mispredict_int_cycles = 9;
    }

    /// Is this an MCD (multi-domain) machine?
    pub fn is_mcd(&self) -> bool {
        !matches!(self.kind, MachineKind::Synchronous(_))
    }

    /// Is phase adaptation (controllers + B partitions) active?
    pub fn is_phase_adaptive(&self) -> bool {
        matches!(self.kind, MachineKind::PhaseAdaptive(_))
    }

    /// Initial per-domain frequencies `[front-end, integer, fp,
    /// load/store]`.
    pub fn initial_frequencies(&self) -> [Hertz; 4] {
        match &self.kind {
            MachineKind::Synchronous(cfg) => {
                let f = cfg.global_frequency(&self.timing);
                [f; 4]
            }
            MachineKind::ProgramAdaptive(cfg) | MachineKind::PhaseAdaptive(cfg) => [
                self.timing.icache_frequency(cfg.icache),
                self.timing.iq_frequency(cfg.iq_int),
                self.timing.iq_frequency(cfg.iq_fp),
                self.timing.dl2_frequency(cfg.dl2, Variant::Adaptive),
            ],
        }
    }

    /// The initial MCD structure configuration (for sync machines, the
    /// equivalent fixed view used to size structures).
    pub fn initial_structures(&self) -> (u32, u32, Dl2Config, IqSize, IqSize) {
        match &self.kind {
            MachineKind::Synchronous(cfg) => (
                cfg.icache.size_kb(),
                cfg.icache.assoc(),
                cfg.dl2,
                cfg.iq_int,
                cfg.iq_fp,
            ),
            MachineKind::ProgramAdaptive(cfg) | MachineKind::PhaseAdaptive(cfg) => (
                cfg.icache.kb(),
                cfg.icache.ways(),
                cfg.dl2,
                cfg.iq_int,
                cfg.iq_fp,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerations_have_expected_sizes() {
        assert_eq!(McdConfig::enumerate().len(), 256);
        assert_eq!(SyncConfig::enumerate().len(), 1024);
    }

    #[test]
    fn enumerated_configs_are_unique() {
        let mcd = McdConfig::enumerate();
        for (i, a) in mcd.iter().enumerate() {
            for b in &mcd[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn paper_best_sync_frequency_set_by_icache() {
        let model = TimingModel::default();
        let best = SyncConfig::paper_best();
        let f = best.global_frequency(&model);
        assert_eq!(f, model.sync_icache_frequency(best.icache));
        // The 64 KB DM cache is the slowest chosen structure.
        assert!(f < model.iq_frequency(IqSize::Q16));
        assert!(f < model.dl2_frequency(Dl2Config::K32W1, Variant::Optimal));
    }

    #[test]
    fn mcd_base_domains_faster_than_sync_best() {
        // The frequency-for-complexity trade: every MCD base domain out-
        // clocks the best synchronous machine's global clock.
        let sync = MachineConfig::best_synchronous();
        let sync_f = sync.initial_frequencies()[0];
        let mcd = MachineConfig::program_adaptive(McdConfig::smallest());
        for f in mcd.initial_frequencies() {
            assert!(f > sync_f, "{f} vs {sync_f}");
        }
    }

    #[test]
    fn adaptive_penalties_applied() {
        let sync = MachineConfig::best_synchronous();
        assert_eq!(sync.params.mispredict_fe_cycles, 9);
        assert_eq!(sync.params.mispredict_int_cycles, 7);
        let mcd = MachineConfig::phase_adaptive(McdConfig::smallest());
        assert_eq!(mcd.params.mispredict_fe_cycles, 10);
        assert_eq!(mcd.params.mispredict_int_cycles, 9);
    }

    #[test]
    fn memory_latency_includes_burst() {
        let p = CoreParams::default();
        // 80 ns + 7 * 2 ns for a 64-byte line in 8-byte beats.
        assert_eq!(p.memory_latency(), Femtos::from_ns(94));
    }

    #[test]
    fn op_latencies_sane() {
        let p = CoreParams::default();
        assert_eq!(p.op_latency_cycles(OpClass::IntAlu), 1);
        assert!(p.op_latency_cycles(OpClass::IntDiv) > p.op_latency_cycles(OpClass::IntMul));
        assert!(p.op_unpipelined(OpClass::FpDiv));
        assert!(!p.op_unpipelined(OpClass::FpMul));
    }

    #[test]
    fn control_policy_defaults_to_paper_and_is_overridable() {
        let m = MachineConfig::phase_adaptive(McdConfig::smallest());
        assert_eq!(m.control, ControlPolicy::PaperArgmin);
        let m = MachineConfig::phase_adaptive_with(McdConfig::smallest(), ControlPolicy::Static);
        assert_eq!(m.control, ControlPolicy::Static);
        let m = MachineConfig::best_synchronous()
            .with_control(ControlPolicy::Hysteresis { threshold: 5 });
        assert_eq!(m.control, ControlPolicy::Hysteresis { threshold: 5 });
    }

    #[test]
    fn cache_latencies_mirror_params() {
        let p = CoreParams::default();
        let lat = p.cache_latencies();
        assert_eq!(lat.l1_a_cycles, p.l1_a_cycles);
        assert_eq!(lat.l1_b_cycles, p.l1_b_cycles);
        assert_eq!(lat.l2_a_cycles, p.l2_a_cycles);
        assert_eq!(lat.l2_b_cycles, p.l2_b_cycles);
        // And the control crate's own default stays in sync with Table 5.
        assert_eq!(lat, gals_control::CacheLatencies::default());
    }

    #[test]
    fn config_keys_distinct() {
        assert_ne!(McdConfig::smallest().key(), McdConfig::largest().key());
        assert!(SyncConfig::paper_best().key().contains("64k1W"));
    }
}
