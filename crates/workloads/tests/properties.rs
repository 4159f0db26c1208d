//! Property tests for the synthetic workload substrate.

use gals_isa::InstructionStream;
use gals_workloads::{suite, AccessPattern, BenchmarkSpec, DataSegment, PreparedTrace, Suite};
use proptest::prelude::*;

fn any_suite() -> impl Strategy<Value = Suite> {
    prop::sample::select(vec![
        Suite::MediaBench,
        Suite::Olden,
        Suite::SpecInt,
        Suite::SpecFp,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two streams from the same spec yield identical sequences; a
    /// different seed yields a different sequence.
    #[test]
    fn determinism_and_seed_sensitivity(
        seed in any::<u64>(),
        chains in 1u32..20,
        footprint_kb in 1u64..64,
        s in any_suite(),
    ) {
        let build = |sd: u64| {
            BenchmarkSpec::builder("prop", s)
                .seed(sd)
                .ilp(chains, 0, 0.2)
                .code(footprint_kb * 1024, 16, 0.01)
                .build()
                .unwrap()
        };
        let mut a = build(seed).stream();
        let mut b = build(seed).stream();
        let mut c = build(seed ^ 0x1234_5678).stream();
        let mut diverged = false;
        for _ in 0..500 {
            let ia = a.next_inst();
            prop_assert_eq!(ia, b.next_inst());
            if ia != c.next_inst() {
                diverged = true;
            }
        }
        prop_assert!(diverged, "different seeds should diverge");
    }

    /// All memory accesses stay inside the declared segments and all pcs
    /// stay inside the code footprint.
    #[test]
    fn addresses_respect_declared_regions(
        bytes_a in 64u64..262_144,
        bytes_b in 64u64..1_048_576,
        stride in 8u32..256,
    ) {
        let spec = BenchmarkSpec::builder("prop-mem", Suite::SpecInt)
            .segments(vec![
                DataSegment { bytes: bytes_a, weight: 1.0, pattern: AccessPattern::Stride(stride) },
                DataSegment { bytes: bytes_b, weight: 2.0, pattern: AccessPattern::Random },
            ])
            .build()
            .unwrap();
        let footprint = spec.code().footprint_bytes;
        let mut st = spec.stream();
        for _ in 0..3_000 {
            let i = st.next_inst();
            if i.op.is_mem() {
                prop_assert!(i.mem_addr >= 0x2000_0000);
            } else if !i.op.is_ctrl() {
                prop_assert!(i.pc < 0x0040_0000 + footprint + 64);
            }
        }
    }

    /// A recorded-and-reloaded trace replays instruction-for-instruction
    /// identically to the live stream it was captured from — including
    /// its looping contract: instruction `n + i` of the replay equals
    /// instruction `i`. This is the substrate guarantee the sweep trace
    /// pool's bit-identity rests on.
    #[test]
    fn trace_replay_is_instruction_identical_to_live_stream(
        n in 16u64..600,
        bench_idx in 0usize..8,
    ) {
        let spec = suite::all().into_iter().nth(bench_idx * 4).unwrap();
        let mut buf = Vec::new();
        gals_workloads::record(&mut spec.stream(), n, &mut buf).unwrap();
        let mut replay = gals_workloads::TraceReplay::load(spec.name(), buf.as_slice()).unwrap();
        prop_assert_eq!(replay.len() as u64, n);

        let mut live = spec.stream();
        let mut prefix = Vec::with_capacity(n as usize);
        for i in 0..n {
            let inst = live.next_inst();
            prop_assert_eq!(replay.next_inst(), inst, "inst {} diverged", i);
            prefix.push(inst);
        }
        // Past the end, TraceReplay loops back to the recorded prefix.
        for i in 0..n.min(64) {
            prop_assert_eq!(replay.next_inst(), prefix[i as usize], "loop inst {}", i);
        }
    }

    /// A `SharedTrace` captured from a live stream is bit-identical to
    /// that stream for its whole recorded length, from any number of
    /// independent replay cursors.
    #[test]
    fn shared_trace_is_instruction_identical_to_live_stream(
        n in 1u64..800,
        bench_idx in 0usize..8,
    ) {
        let spec = suite::all().into_iter().nth(bench_idx * 3 + 1).unwrap();
        let trace = gals_workloads::SharedTrace::capture(&mut spec.stream(), n);
        prop_assert_eq!(trace.len() as u64, n);
        prop_assert_eq!(trace.name(), spec.name());
        let mut live = spec.stream();
        let mut a = trace.replay();
        let mut b = trace.replay();
        for i in 0..n {
            let inst = live.next_inst();
            prop_assert_eq!(a.next_inst(), inst, "cursor a inst {}", i);
            prop_assert_eq!(b.next_inst(), inst, "cursor b inst {}", i);
        }
    }

    /// The fetch-line column of a [`PreparedTrace`] agrees with deriving
    /// it on the fly from the replay cursor — for arbitrary recording
    /// lengths, line sizes, and benchmarks. Fetch reads this column
    /// instead of dividing the pc, so a stale or misindexed column would
    /// silently change sweep results.
    #[test]
    fn prepared_trace_columns_match_on_the_fly_derivation(
        n in 16u64..800,
        line_shift in 4u32..8,
        bench_idx in 0usize..8,
    ) {
        let line_bytes = 1u64 << line_shift; // 16..=128 bytes
        let spec = suite::all().into_iter().nth(bench_idx * 3 + 2).unwrap();
        let trace = gals_workloads::SharedTrace::capture(&mut spec.stream(), n);
        let prep = PreparedTrace::new(&trace, line_bytes);
        prop_assert_eq!(prep.len() as u64, n);
        prop_assert_eq!(prep.line_bytes(), line_bytes);
        prop_assert_eq!(prep.name(), spec.name());

        let mut replay = trace.replay();
        for i in 0..n as usize {
            let inst = replay.next_inst();
            prop_assert_eq!(prep.inst(i), inst, "inst {} differs from replay", i);
            prop_assert_eq!(prep.fetch_line(i), inst.pc / line_bytes, "inst {}", i);
        }
    }

    /// Branch density matches the code model: exactly one control
    /// transfer per `block_len` instructions.
    #[test]
    fn control_density_matches_block_length(block_len in 3u32..16) {
        let spec = BenchmarkSpec::builder("prop-blocks", Suite::SpecInt)
            .block_len(block_len)
            .build()
            .unwrap();
        let mut st = spec.stream();
        let n = 5_000u32;
        let ctrl = (0..n).filter(|_| st.next_inst().op.is_ctrl()).count() as f64;
        let expect = n as f64 / block_len as f64;
        prop_assert!((ctrl - expect).abs() / expect < 0.05,
            "ctrl {} vs expected {}", ctrl, expect);
    }
}

#[test]
fn full_suite_streams_are_mutually_distinct() {
    // Every profile must generate a distinct dynamic stream (guards
    // against copy-paste profiles aliasing to identical seeds/params).
    let mut first_kilos: Vec<(String, Vec<u64>)> = Vec::new();
    for spec in suite::all() {
        let mut st = spec.stream();
        let sig: Vec<u64> = (0..1_000)
            .map(|_| st.next_inst().pc ^ st.next_inst().mem_addr)
            .collect();
        for (other, other_sig) in &first_kilos {
            assert_ne!(&sig, other_sig, "{} aliases {}", spec.name(), other);
        }
        first_kilos.push((spec.name().to_string(), sig));
    }
}
