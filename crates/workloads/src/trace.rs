//! Trace recording and replay.
//!
//! The synthetic generator is deterministic, but regenerating a stream
//! re-runs the whole model per instruction. For repeated sweeps over the
//! same benchmark — or for importing externally produced traces — two
//! complementary mechanisms are provided:
//!
//! * [`SharedTrace`] materializes a prefix of any live
//!   [`InstructionStream`] into an immutable `Arc<[DynInst]>` that many
//!   simulations (across threads) replay concurrently via
//!   [`SharedTrace::replay`] — each replay is a cursor over the shared
//!   storage, so N configurations sweeping one benchmark pay for one
//!   stream generation instead of N. Replays are **strict**: reading
//!   past the recorded end panics instead of silently looping, because
//!   a looped instruction would diverge from the live stream the trace
//!   stands in for.
//! * [`record`] serializes the first `n` instructions of any
//!   [`InstructionStream`] to a writer, and [`TraceReplay`] streams them
//!   back, looping when the simulator asks for more instructions than
//!   were recorded (matching the generator's infinite-stream contract
//!   for standalone trace files). `TraceReplay` is a looping cursor over
//!   the same [`SharedTrace`] storage.
//!
//! The on-disk encoding is a fixed 27-byte little-endian record per
//! instruction (pc, op, packed registers, address, target, flags) with a
//! small header carrying a magic, version, and count.

use std::io::{self, Read, Write};
use std::sync::Arc;

use gals_isa::{ArchReg, DynInst, InstructionStream, OpClass};

const MAGIC: &[u8; 8] = b"GALSTRC1";
const RECORD_BYTES: usize = 27;

fn op_to_byte(op: OpClass) -> u8 {
    OpClass::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn byte_to_op(b: u8) -> Option<OpClass> {
    OpClass::ALL.get(b as usize).copied()
}

fn reg_to_byte(r: Option<ArchReg>) -> u8 {
    r.map(|r| r.packed()).unwrap_or(0xFF)
}

fn byte_to_reg(b: u8) -> Option<ArchReg> {
    if b == 0xFF {
        None
    } else {
        Some(ArchReg::from_packed(b))
    }
}

fn encode(inst: &DynInst, buf: &mut [u8; RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&inst.pc.to_le_bytes());
    buf[8] = op_to_byte(inst.op);
    buf[9] = reg_to_byte(inst.srcs[0]);
    buf[10] = reg_to_byte(inst.srcs[1]);
    buf[11] = reg_to_byte(inst.dst);
    buf[12..20].copy_from_slice(&inst.mem_addr.to_le_bytes());
    buf[20..28.min(RECORD_BYTES)].copy_from_slice(&inst.target.to_le_bytes()[..7]);
    // Pack the taken bit into the top byte of the (48-bit practical)
    // target space: targets are virtual addresses well below 2^55.
    if inst.taken {
        buf[26] |= 0x80;
    }
}

fn decode(buf: &[u8; RECORD_BYTES]) -> io::Result<DynInst> {
    let pc = u64::from_le_bytes(buf[0..8].try_into().unwrap());
    let op = byte_to_op(buf[8])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad opcode byte"))?;
    if buf[9] != 0xFF && buf[9] >= 64
        || buf[10] != 0xFF && buf[10] >= 64
        || buf[11] != 0xFF && buf[11] >= 64
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad register byte",
        ));
    }
    let mem_addr = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let mut target_bytes = [0u8; 8];
    target_bytes[..7].copy_from_slice(&buf[20..27]);
    let taken = target_bytes[6] & 0x80 != 0;
    target_bytes[6] &= 0x7F;
    let target = u64::from_le_bytes(target_bytes);
    Ok(DynInst {
        pc,
        op,
        srcs: [byte_to_reg(buf[9]), byte_to_reg(buf[10])],
        dst: byte_to_reg(buf[11]),
        mem_addr,
        taken,
        target,
    })
}

/// Records the next `n` instructions of `stream` to `writer`.
///
/// The writer can be a `File`, a `Vec<u8>`, or anything `Write`; pass
/// `&mut writer` to keep ownership.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn record<S, W>(stream: &mut S, n: u64, mut writer: W) -> io::Result<()>
where
    S: InstructionStream + ?Sized,
    W: Write,
{
    writer.write_all(MAGIC)?;
    writer.write_all(&1u32.to_le_bytes())?; // version
    writer.write_all(&n.to_le_bytes())?;
    let mut buf = [0u8; RECORD_BYTES];
    for _ in 0..n {
        let inst = stream.next_inst();
        encode(&inst, &mut buf);
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// An immutable, reference-counted instruction trace shared by many
/// concurrent replays.
///
/// Cloning is an `Arc` bump; the instruction storage is allocated once.
/// This is the storage layer behind both the strict [`SharedReplay`]
/// (sweep trace pooling) and the looping [`TraceReplay`] (trace files).
#[derive(Debug, Clone)]
pub struct SharedTrace {
    name: Arc<str>,
    insts: Arc<[DynInst]>,
}

impl SharedTrace {
    /// Materializes the next `n` instructions of a live stream. The
    /// stream's determinism contract makes the result bit-identical to
    /// what any identically constructed stream would produce, so a
    /// replay is a drop-in substitute for the first `n` instructions.
    pub fn capture<S>(stream: &mut S, n: u64) -> Self
    where
        S: InstructionStream + ?Sized,
    {
        // The range has an exact length, so this collects straight into
        // one allocation of the shared slice, with no `Vec` to copy from.
        let insts: Arc<[DynInst]> = (0..n).map(|_| stream.next_inst()).collect();
        SharedTrace {
            name: Arc::from(stream.name()),
            insts,
        }
    }

    /// Wraps an already-decoded instruction sequence.
    pub fn from_insts(name: impl Into<String>, insts: Vec<DynInst>) -> Self {
        SharedTrace {
            name: Arc::from(name.into().as_str()),
            insts: insts.into(),
        }
    }

    /// Benchmark name reported by replays (must match the source
    /// stream's name for results to be interchangeable).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The recorded instructions.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// A strict replay cursor from the beginning: bit-identical to the
    /// source stream for [`SharedTrace::len`] instructions, panicking on
    /// a read past the end, because a looped instruction would diverge
    /// from the live stream the trace stands in for.
    pub fn replay(&self) -> SharedReplay {
        SharedReplay {
            trace: self.clone(),
            cursor: 0,
        }
    }
}

/// A strict (non-looping) replay cursor over a [`SharedTrace`].
///
/// Construction is allocation-free (two `Arc` bumps), and so is every
/// [`InstructionStream::next_inst`] call — which is what lets the
/// steady-state-allocation regression test run the simulator over one.
#[derive(Debug, Clone)]
pub struct SharedReplay {
    trace: SharedTrace,
    cursor: usize,
}

impl SharedReplay {
    /// Instructions consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }
}

impl InstructionStream for SharedReplay {
    fn next_inst(&mut self) -> DynInst {
        assert!(
            self.cursor < self.trace.insts.len(),
            "shared trace underrun: {} recorded instructions for {:?} all consumed \
             (the trace was captured shorter than this run's fetch demand)",
            self.trace.insts.len(),
            self.trace.name(),
        );
        let inst = self.trace.insts[self.cursor];
        self.cursor += 1;
        inst
    }

    fn name(&self) -> &str {
        self.trace.name()
    }
}

/// Replays a recorded trace as an [`InstructionStream`], looping when
/// exhausted.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: SharedTrace,
    cursor: usize,
}

impl TraceReplay {
    /// Loads a trace from a reader.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a bad magic/version, or corrupt records.
    pub fn load<R: Read>(name: impl Into<String>, mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut word = [0u8; 4];
        reader.read_exact(&mut word)?;
        if u32::from_le_bytes(word) != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unsupported trace version",
            ));
        }
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        let n = u64::from_le_bytes(count_bytes);
        let mut insts = Vec::with_capacity(n.min(1 << 24) as usize);
        let mut buf = [0u8; RECORD_BYTES];
        for _ in 0..n {
            reader.read_exact(&mut buf)?;
            insts.push(decode(&buf)?);
        }
        if insts.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty trace"));
        }
        Ok(TraceReplay {
            trace: SharedTrace::from_insts(name.into(), insts),
            cursor: 0,
        })
    }

    /// Number of recorded instructions (the loop period).
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Always false — loading rejects empty traces.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The shared storage backing this replay (e.g. to hand the same
    /// trace to other threads without re-decoding).
    pub fn shared(&self) -> &SharedTrace {
        &self.trace
    }
}

impl InstructionStream for TraceReplay {
    fn next_inst(&mut self) -> DynInst {
        let inst = self.trace.insts[self.cursor];
        self.cursor = (self.cursor + 1) % self.trace.insts.len();
        inst
    }

    fn name(&self) -> &str {
        self.trace.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn round_trip_preserves_instructions() {
        let spec = suite::by_name("gzip").unwrap();
        let mut original = spec.stream();
        let mut buf = Vec::new();
        record(&mut original, 5_000, &mut buf).unwrap();

        let mut reference = spec.stream();
        let mut replay = TraceReplay::load("gzip-trace", buf.as_slice()).unwrap();
        assert_eq!(replay.len(), 5_000);
        for i in 0..5_000 {
            assert_eq!(replay.next_inst(), reference.next_inst(), "inst {i}");
        }
    }

    #[test]
    fn replay_loops_after_exhaustion() {
        let spec = suite::by_name("power").unwrap();
        let mut buf = Vec::new();
        record(&mut spec.stream(), 100, &mut buf).unwrap();
        let mut replay = TraceReplay::load("loop", buf.as_slice()).unwrap();
        let first: Vec<DynInst> = (0..100).map(|_| replay.next_inst()).collect();
        let second: Vec<DynInst> = (0..100).map(|_| replay.next_inst()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReplay::load("x", &b"NOTATRACE.."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_trace_rejected() {
        let spec = suite::by_name("power").unwrap();
        let mut buf = Vec::new();
        record(&mut spec.stream(), 10, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(TraceReplay::load("x", buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_rejected() {
        let mut buf = Vec::new();
        let spec = suite::by_name("power").unwrap();
        record(&mut spec.stream(), 0, &mut buf).unwrap();
        assert!(TraceReplay::load("x", buf.as_slice()).is_err());
    }

    #[test]
    fn shared_capture_matches_live_stream() {
        let spec = suite::by_name("gzip").unwrap();
        let trace = SharedTrace::capture(&mut spec.stream(), 2_000);
        assert_eq!(trace.len(), 2_000);
        assert_eq!(trace.name(), "gzip");
        let mut live = spec.stream();
        let mut replay = trace.replay();
        assert_eq!(replay.name(), live.name());
        for i in 0..2_000 {
            assert_eq!(replay.next_inst(), live.next_inst(), "inst {i}");
        }
        assert_eq!(replay.consumed(), 2_000);
    }

    #[test]
    fn shared_replays_are_independent_cursors() {
        let spec = suite::by_name("power").unwrap();
        let trace = SharedTrace::capture(&mut spec.stream(), 64);
        let mut a = trace.replay();
        let mut b = trace.replay();
        a.next_inst();
        a.next_inst();
        // b is unaffected by a's progress and matches a fresh stream.
        assert_eq!(b.next_inst(), spec.stream().next_inst());
    }

    #[test]
    #[should_panic(expected = "shared trace underrun")]
    fn shared_replay_refuses_to_loop() {
        let spec = suite::by_name("power").unwrap();
        let trace = SharedTrace::capture(&mut spec.stream(), 10);
        let mut replay = trace.replay();
        for _ in 0..11 {
            replay.next_inst();
        }
    }

    #[test]
    fn trace_replay_exposes_shared_storage() {
        let spec = suite::by_name("power").unwrap();
        let mut buf = Vec::new();
        record(&mut spec.stream(), 50, &mut buf).unwrap();
        let replay = TraceReplay::load("power", buf.as_slice()).unwrap();
        let shared = replay.shared().clone();
        assert_eq!(shared.len(), 50);
        let mut strict = shared.replay();
        let mut live = spec.stream();
        for _ in 0..50 {
            assert_eq!(strict.next_inst(), live.next_inst());
        }
    }

    #[test]
    fn all_op_classes_round_trip() {
        use gals_isa::ArchReg;
        let insts = vec![
            DynInst::alu(
                0x10,
                OpClass::FpSqrt,
                ArchReg::fp(3),
                [Some(ArchReg::fp(1)), None],
            ),
            DynInst::load(0x14, ArchReg::int(5), ArchReg::int(6), 0xDEAD_BEE0),
            DynInst::store(0x18, ArchReg::int(7), ArchReg::int(8), 0xFEED_F00D & !7),
            DynInst::branch(0x1C, ArchReg::int(9), true, 0x40),
            DynInst::jump(0x20, 0x80),
            DynInst::nop(0x24),
        ];
        struct VecStream(Vec<DynInst>, usize);
        impl InstructionStream for VecStream {
            fn next_inst(&mut self) -> DynInst {
                let i = self.1;
                self.1 += 1;
                self.0[i % self.0.len()]
            }
        }
        let mut s = VecStream(insts.clone(), 0);
        let mut buf = Vec::new();
        record(&mut s, insts.len() as u64, &mut buf).unwrap();
        let mut replay = TraceReplay::load("ops", buf.as_slice()).unwrap();
        for expect in &insts {
            assert_eq!(&replay.next_inst(), expect);
        }
    }
}
