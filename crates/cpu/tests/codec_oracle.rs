//! The trace codec against a plain reference oracle.
//!
//! Below is the original codec — `CodecState` as a `HashMap` from
//! `(pc, disepc)` to the last record there, with the `ExecEncoder` and
//! `ExecDecoder` built on it — kept verbatim and used only by these
//! tests. The library's slot-arena codec must write the same bytes and
//! read them back to the same records: the token stream, and with it
//! every stored `.dtrc` file, is unchanged.
//!
//! The properties drive random `Exec` streams through both. The streams
//! revisit positions and reach never-seen ones, jump unpredictably, and
//! carry every `BranchKind` taken and not taken, replacement slots,
//! loads and stores with wrapping addresses and value deltas, and every
//! `FlushKind` and `Event`. Each stream must satisfy three checks: the
//! library encoder's bytes equal the oracle's; the library decoder
//! returns the stream from the oracle's bytes; and `next_chunk` under a
//! random dirty predicate returns the same records as `next`. The six
//! kernels' live streams and a DISE session's stream are checked the
//! same way. Tier-1 runs a small case count; the `#[ignore]`d sweep
//! runs many more:
//!
//! ```text
//! cargo test --release -p dise-cpu --test codec_oracle -- --include-ignored
//! ```

// The oracle is kept whole, including methods these tests never call.
#![allow(dead_code)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dise_cpu::{
    Branch, BranchKind, CpuConfig, Event, Exec, ExecChunk, ExecError, Executor, FlushKind,
    InstrFacts, MemOp, TraceReader, TraceWriter,
};
use dise_debug::{BackendKind, Session};
use dise_isa::{decode as decode_instr, encode as encode_instr, AluOp, Cond, Instr, Operand, Reg};
use dise_isa::{Width, INSTR_BYTES};
use dise_trace::wire::{apply_delta, delta, read_uvarint, write_uvarint};
use dise_workloads::WatchKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const OP_RUN: u8 = 0;
const OP_SAME: u8 = 1;
const OP_FULL: u8 = 2;

/// The position sequential flow predicts after `e`: the taken-branch
/// target, the next slot of an in-progress replacement sequence, or
/// plain fall-through. Both codec sides compute this identically.
fn predicted_next(e: &Exec) -> (u64, u16) {
    if let Some(b) = e.branch {
        if b.taken {
            return (b.target, 0);
        }
    }
    if e.disepc > 0 {
        (e.pc, e.disepc.wrapping_add(1))
    } else {
        (e.pc.wrapping_add(INSTR_BYTES), 0)
    }
}

fn branch_kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

fn branch_kind_from(code: u8) -> Result<BranchKind, String> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Indirect,
        3 => BranchKind::Call,
        4 => BranchKind::Return,
        other => return Err(format!("unknown branch kind {other}")),
    })
}

fn flush_code(kind: FlushKind) -> u8 {
    match kind {
        FlushKind::DiseBranch => 0,
        FlushKind::DiseCall => 1,
        FlushKind::DiseRet => 2,
        FlushKind::ReplacementBranch => 3,
    }
}

fn flush_from(code: u8) -> Result<FlushKind, String> {
    Ok(match code {
        0 => FlushKind::DiseBranch,
        1 => FlushKind::DiseCall,
        2 => FlushKind::DiseRet,
        3 => FlushKind::ReplacementBranch,
        other => return Err(format!("unknown flush kind {other}")),
    })
}

fn exec_error_parts(e: ExecError) -> (u8, u64) {
    match e {
        ExecError::BadInstruction(pc) => (0, pc),
        ExecError::DiseProtection(pc) => (1, pc),
        ExecError::StrayDiseReturn(pc) => (2, pc),
        ExecError::DiseBranchOutOfSequence(pc) => (3, pc),
        ExecError::NestedDiseCall(pc) => (4, pc),
    }
}

fn exec_error_from(code: u8, pc: u64) -> Result<ExecError, String> {
    Ok(match code {
        0 => ExecError::BadInstruction(pc),
        1 => ExecError::DiseProtection(pc),
        2 => ExecError::StrayDiseReturn(pc),
        3 => ExecError::DiseBranchOutOfSequence(pc),
        4 => ExecError::NestedDiseCall(pc),
        other => return Err(format!("unknown exec error {other}")),
    })
}

/// Codec state shared (by construction, not by channel) between the
/// encoder and the decoder.
#[derive(Default)]
struct CodecState {
    /// The last record coded, for PC deltas and run prediction.
    prev: Option<Exec>,
    /// The most recent record seen at each `(pc, disepc)` position.
    last: HashMap<(u64, u16), Exec>,
}

/// Streaming `Exec` → bytes encoder. Feed records with
/// [`ExecEncoder::encode`]; call [`ExecEncoder::finish`] once at end of
/// stream to flush a pending run token.
#[derive(Default)]
pub struct ExecEncoder {
    state: CodecState,
    run: u64,
}

impl ExecEncoder {
    /// A fresh encoder at stream start.
    pub fn new() -> ExecEncoder {
        ExecEncoder::default()
    }

    /// Append the encoding of `e` to `out` (possibly zero bytes now:
    /// run tokens are emitted lazily when the run breaks or the stream
    /// finishes).
    pub fn encode(&mut self, e: &Exec, out: &mut Vec<u8>) {
        let key = (e.pc, e.disepc);
        let predicted = self.state.prev.as_ref().map(predicted_next);
        let same = self.state.last.get(&key) == Some(e);
        if same && predicted == Some(key) {
            self.run += 1;
        } else {
            self.flush_run(out);
            let prev_pc = self.state.prev.map_or(0, |p| p.pc);
            if same {
                out.push(OP_SAME);
                write_uvarint(out, delta(prev_pc, e.pc));
                write_uvarint(out, u64::from(e.disepc));
            } else {
                self.encode_full(e, prev_pc, out);
            }
        }
        self.state.last.insert(key, *e);
        self.state.prev = Some(*e);
    }

    /// Flush the pending run token at end of stream.
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        self.flush_run(out);
    }

    fn flush_run(&mut self, out: &mut Vec<u8>) {
        if self.run > 0 {
            out.push(OP_RUN);
            write_uvarint(out, self.run);
            self.run = 0;
        }
    }

    fn encode_full(&self, e: &Exec, prev_pc: u64, out: &mut Vec<u8>) {
        let base = self.state.last.get(&(e.pc, e.disepc));
        let instr_same = base.is_some_and(|b| b.instr == e.instr);
        let mut flags = 0u8;
        flags |= u8::from(e.fetched);
        flags |= u8::from(e.in_dise_call) << 1;
        flags |= u8::from(e.branch.is_some()) << 2;
        flags |= u8::from(e.mem.is_some()) << 3;
        flags |= u8::from(e.flush.is_some()) << 4;
        flags |= u8::from(e.event.is_some()) << 5;
        flags |= u8::from(instr_same) << 6;
        out.push(OP_FULL);
        out.push(flags);
        write_uvarint(out, delta(prev_pc, e.pc));
        write_uvarint(out, u64::from(e.disepc));
        if !instr_same {
            out.extend_from_slice(&encode_instr(&e.instr).to_le_bytes());
        }
        if let Some(b) = e.branch {
            out.push(branch_kind_code(b.kind) | (u8::from(b.taken) << 3));
            write_uvarint(out, delta(e.pc, b.target));
        }
        if let Some(m) = e.mem {
            out.push(u8::from(m.is_store));
            write_uvarint(out, m.width);
            // Memory operands delta against the previous access at the
            // same position: array walks and counters become one byte.
            if let Some(lm) = base.and_then(|b| b.mem) {
                write_uvarint(out, delta(lm.addr, m.addr));
                write_uvarint(out, delta(lm.old_value, m.old_value));
                write_uvarint(out, delta(lm.new_value, m.new_value));
            } else {
                write_uvarint(out, m.addr);
                write_uvarint(out, m.old_value);
                write_uvarint(out, m.new_value);
            }
        }
        if let Some(fl) = e.flush {
            out.push(flush_code(fl));
        }
        if let Some(ev) = e.event {
            match ev {
                Event::Trap => out.push(0),
                Event::ProtFault { addr } => {
                    out.push(1);
                    write_uvarint(out, addr);
                }
                Event::Halted => out.push(2),
                Event::Error(err) => {
                    out.push(3);
                    let (code, pc) = exec_error_parts(err);
                    out.push(code);
                    write_uvarint(out, pc);
                }
            }
        }
    }
}

/// Streaming bytes → `Exec` decoder — the exact mirror of
/// [`ExecEncoder`]. Errors are returned as human-readable reasons; the
/// caller wraps them in [`TraceError::Malformed`] with the file path.
#[derive(Default)]
pub struct ExecDecoder {
    state: CodecState,
    run: u64,
}

impl ExecDecoder {
    /// A fresh decoder at stream start.
    pub fn new() -> ExecDecoder {
        ExecDecoder::default()
    }

    /// Decode the next record from `buf` at `*pos`, or `Ok(None)` at
    /// end of stream.
    ///
    /// # Errors
    ///
    /// A description of the inconsistency when the byte stream does not
    /// decode — possible only for hand-damaged input, since CRC
    /// validation happens before decoding.
    pub fn next(&mut self, buf: &[u8], pos: &mut usize) -> Result<Option<Exec>, String> {
        if self.run > 0 {
            self.run -= 1;
            return self.replay_predicted().map(Some);
        }
        if *pos >= buf.len() {
            return Ok(None);
        }
        let op = buf[*pos];
        *pos += 1;
        match op {
            OP_RUN => {
                let n = read_uvarint(buf, pos).ok_or("truncated run token")?;
                if n == 0 {
                    return Err("empty run token".to_string());
                }
                self.run = n - 1;
                self.replay_predicted().map(Some)
            }
            OP_SAME => {
                let prev_pc = self.state.prev.map_or(0, |p| p.pc);
                let pc = apply_delta(prev_pc, read_uvarint(buf, pos).ok_or("truncated SAME pc")?);
                let disepc = read_uvarint(buf, pos).ok_or("truncated SAME disepc")?;
                let disepc =
                    u16::try_from(disepc).map_err(|_| format!("disepc {disepc} out of range"))?;
                let e = *self
                    .state
                    .last
                    .get(&(pc, disepc))
                    .ok_or("SAME token for a position never seen")?;
                self.state.prev = Some(e);
                Ok(Some(e))
            }
            OP_FULL => self.decode_full(buf, pos).map(Some),
            other => Err(format!("unknown opcode {other}")),
        }
    }

    fn replay_predicted(&mut self) -> Result<Exec, String> {
        let prev = self.state.prev.as_ref().ok_or("run token before any record")?;
        let key = predicted_next(prev);
        let e = *self.state.last.get(&key).ok_or("run token reached a position never seen")?;
        self.state.prev = Some(e);
        Ok(e)
    }

    #[allow(clippy::too_many_lines)]
    fn decode_full(&mut self, buf: &[u8], pos: &mut usize) -> Result<Exec, String> {
        let flags = *buf.get(*pos).ok_or("truncated FULL flags")?;
        *pos += 1;
        let prev_pc = self.state.prev.map_or(0, |p| p.pc);
        let pc = apply_delta(prev_pc, read_uvarint(buf, pos).ok_or("truncated FULL pc")?);
        let disepc = read_uvarint(buf, pos).ok_or("truncated FULL disepc")?;
        let disepc = u16::try_from(disepc).map_err(|_| format!("disepc {disepc} out of range"))?;
        let base = self.state.last.get(&(pc, disepc)).copied();
        let instr = if flags & (1 << 6) != 0 {
            base.ok_or("instr-same flag for a position never seen")?.instr
        } else {
            if buf.len() - *pos < 4 {
                return Err("truncated FULL instruction word".to_string());
            }
            let word = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
            *pos += 4;
            decode_instr(word).map_err(|e| format!("undecodable instruction word: {e:?}"))?
        };
        let branch = if flags & (1 << 2) != 0 {
            let b = *buf.get(*pos).ok_or("truncated branch byte")?;
            *pos += 1;
            let target = apply_delta(pc, read_uvarint(buf, pos).ok_or("truncated branch target")?);
            Some(Branch { kind: branch_kind_from(b & 0x7)?, taken: b & (1 << 3) != 0, target })
        } else {
            None
        };
        let mem = if flags & (1 << 3) != 0 {
            let m = *buf.get(*pos).ok_or("truncated mem byte")?;
            *pos += 1;
            let width = read_uvarint(buf, pos).ok_or("truncated mem width")?;
            let (addr, old_value, new_value) = if let Some(lm) = base.and_then(|b| b.mem) {
                (
                    apply_delta(lm.addr, read_uvarint(buf, pos).ok_or("truncated mem addr")?),
                    apply_delta(
                        lm.old_value,
                        read_uvarint(buf, pos).ok_or("truncated mem old value")?,
                    ),
                    apply_delta(
                        lm.new_value,
                        read_uvarint(buf, pos).ok_or("truncated mem new value")?,
                    ),
                )
            } else {
                (
                    read_uvarint(buf, pos).ok_or("truncated mem addr")?,
                    read_uvarint(buf, pos).ok_or("truncated mem old value")?,
                    read_uvarint(buf, pos).ok_or("truncated mem new value")?,
                )
            };
            Some(MemOp { addr, width, is_store: m & 1 != 0, old_value, new_value })
        } else {
            None
        };
        let flush = if flags & (1 << 4) != 0 {
            let fl = *buf.get(*pos).ok_or("truncated flush byte")?;
            *pos += 1;
            Some(flush_from(fl)?)
        } else {
            None
        };
        let event = if flags & (1 << 5) != 0 {
            let tag = *buf.get(*pos).ok_or("truncated event tag")?;
            *pos += 1;
            Some(match tag {
                0 => Event::Trap,
                1 => Event::ProtFault {
                    addr: read_uvarint(buf, pos).ok_or("truncated fault address")?,
                },
                2 => Event::Halted,
                3 => {
                    let code = *buf.get(*pos).ok_or("truncated error code")?;
                    *pos += 1;
                    let pc = read_uvarint(buf, pos).ok_or("truncated error pc")?;
                    Event::Error(exec_error_from(code, pc)?)
                }
                other => return Err(format!("unknown event tag {other}")),
            })
        } else {
            None
        };
        let e = Exec {
            pc,
            disepc,
            in_dise_call: flags & (1 << 1) != 0,
            instr,
            fetched: flags & 1 != 0,
            branch,
            mem,
            flush,
            event,
            facts: InstrFacts::of(&instr),
        };
        self.state.last.insert((pc, disepc), e);
        self.state.prev = Some(e);
        Ok(e)
    }
}

// ---------------------------------------------------------------------
// Random streams.
// ---------------------------------------------------------------------

/// One of eight registers.
fn reg(bits: u64) -> Reg {
    Reg::gpr((bits % 8) as u8)
}

/// A data address: a small hot region, a megabyte-wide cold region, or
/// the last bytes below `u64::MAX` (accesses that wrap to address 0).
fn data_addr(bits: u64) -> u64 {
    let off = bits >> 8;
    match bits % 4 {
        0 | 1 => 0x2000 + off % 96,
        2 => 0x10_0000 + off % (1 << 20),
        _ => u64::MAX - off % 16,
    }
}

/// A branch target: mostly a small code region (so control comes back
/// to positions already seen), sometimes far away.
fn code_addr(bits: u64) -> u64 {
    if bits.is_multiple_of(7) {
        0x40_0000 + (bits >> 4) % (1 << 16) * 4
    } else {
        0x1_0000 + (bits >> 4) % 64 * 4
    }
}

const EVENTS: [Event; 8] = [
    Event::Trap,
    Event::ProtFault { addr: 0x2008 },
    Event::Halted,
    Event::Error(ExecError::BadInstruction(0x1_0000)),
    Event::Error(ExecError::DiseProtection(0x1_0004)),
    Event::Error(ExecError::StrayDiseReturn(0x1_0008)),
    Event::Error(ExecError::DiseBranchOutOfSequence(0x1_000c)),
    Event::Error(ExecError::NestedDiseCall(0x1_0010)),
];

const FLUSHES: [FlushKind; 4] =
    [FlushKind::DiseBranch, FlushKind::DiseCall, FlushKind::DiseRet, FlushKind::ReplacementBranch];

/// A new record at `(pc, disepc)`, every field drawn from `bits`.
fn fresh(pc: u64, disepc: u16, bits: u64) -> Exec {
    let mut e = Exec {
        pc,
        disepc,
        in_dise_call: (bits >> 45) & 1 == 1,
        instr: Instr::Nop,
        fetched: disepc == 0,
        branch: None,
        mem: None,
        flush: None,
        event: None,
        facts: InstrFacts::of(&Instr::Nop),
    };
    let width = [1u64, 2, 4, 8][(bits >> 5) as usize % 4];
    let w = Width::ALL[(bits >> 5) as usize % 4];
    let target = code_addr(bits >> 24);
    let taken = (bits >> 7) & 1 == 1;
    match bits % 10 {
        0 | 1 => {
            let op = AluOp::ALL[(bits >> 10) as usize % AluOp::ALL.len()];
            let rb = if bits & 16 == 0 { Operand::Reg(reg(bits >> 20)) } else { Operand::Imm(7) };
            e.instr = Instr::Alu { op, rd: reg(bits), ra: reg(bits >> 15), rb };
        }
        2 | 3 => {
            let is_store = bits % 10 == 3;
            e.instr = if is_store {
                Instr::Store { width: w, rs: reg(bits), base: reg(bits >> 15), disp: 0 }
            } else {
                Instr::Load { width: w, rd: reg(bits), base: reg(bits >> 15), disp: 0 }
            };
            e.mem = Some(MemOp {
                addr: data_addr(bits >> 24),
                width,
                is_store,
                old_value: bits.rotate_left(11),
                new_value: if is_store { bits.rotate_left(29) } else { bits.rotate_left(11) },
            });
        }
        4 => {
            e.instr = Instr::CondBr { cond: Cond::Ne, rs: reg(bits), disp: 4 };
            e.branch = Some(Branch { kind: BranchKind::Conditional, taken, target });
        }
        5 => {
            e.instr = Instr::Br { rd: Reg::ZERO, disp: 4 };
            e.branch = Some(Branch { kind: BranchKind::Direct, taken, target });
        }
        6 => {
            e.instr = Instr::Jmp { rd: Reg::ZERO, base: reg(bits) };
            e.branch = Some(Branch { kind: BranchKind::Indirect, taken, target });
        }
        7 => {
            e.instr = Instr::Br { rd: Reg::RA, disp: 4 };
            e.branch = Some(Branch { kind: BranchKind::Call, taken, target });
        }
        8 => {
            e.instr = Instr::Jmp { rd: Reg::ZERO, base: Reg::RA };
            e.branch = Some(Branch { kind: BranchKind::Return, taken, target });
        }
        _ => {}
    }
    e.facts = InstrFacts::of(&e.instr);
    if (bits >> 51).is_multiple_of(6) {
        e.flush = Some(FLUSHES[(bits >> 54) as usize % 4]);
    }
    if (bits >> 40).is_multiple_of(8) {
        e.event = Some(EVENTS[(bits >> 57) as usize % 8]);
    }
    e
}

/// The record last seen at a position, changed the way a re-execution
/// changes it: new memory values and a moved address, a flipped branch,
/// or a new event — a FULL token that deltas against it.
fn vary(base: &Exec, bits: u64) -> Exec {
    let mut e = *base;
    match bits % 4 {
        0 => {
            if let Some(m) = e.mem.as_mut() {
                m.addr = m.addr.wrapping_add((bits >> 8) % 17).wrapping_sub(8);
                m.old_value = m.old_value.wrapping_sub(1);
                m.new_value = m.new_value.wrapping_add(bits >> 32);
            } else {
                e.in_dise_call = !e.in_dise_call;
            }
        }
        1 => {
            if let Some(b) = e.branch.as_mut() {
                b.taken = !b.taken;
            } else {
                e.fetched = !e.fetched;
            }
        }
        2 => e.event = Some(EVENTS[(bits >> 8) as usize % 8]),
        _ => e = fresh(e.pc, e.disepc, bits >> 3),
    }
    e
}

/// Turn `(kind, bits)` pairs into a stream that mostly follows the flow
/// the codec predicts — so RUN tokens form — with revisits (SAME),
/// changed re-executions and replacement slots (FULL against a base),
/// never-seen positions and unpredictable jumps.
fn build_stream(ops: &[(u8, u64)]) -> Vec<Exec> {
    let mut last: HashMap<(u64, u16), Exec> = HashMap::new();
    let mut seen: Vec<(u64, u16)> = Vec::new();
    let mut out: Vec<Exec> = Vec::with_capacity(ops.len());
    for &(kind, bits) in ops {
        let predicted = out.last().map_or((0x1_0000, 0), predicted_next);
        let e = match kind {
            // Sequential flow: repeat what was there, or change it.
            0..=9 => match last.get(&predicted) {
                Some(base) if bits % 5 != 0 => *base,
                Some(base) => vary(base, bits >> 3),
                None => fresh(predicted.0, predicted.1, bits),
            },
            // Control arrives at a known position unpredictably.
            10 | 11 if !seen.is_empty() => last[&seen[(bits % seen.len() as u64) as usize]],
            // A jump to a position never seen, anywhere in the space.
            12 => fresh(if bits & 1 == 0 { bits } else { code_addr(bits) }, 0, bits >> 1),
            // A replacement sequence starting at the predicted trigger.
            13 => {
                let mut e = fresh(predicted.0, 1 + (bits % 3) as u16, bits >> 2);
                e.fetched = false;
                e
            }
            _ => fresh(predicted.0, predicted.1, bits),
        };
        let key = (e.pc, e.disepc);
        if last.insert(key, e).is_none() {
            seen.push(key);
        }
        out.push(e);
    }
    out
}

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..16, any::<u64>()), 1..max_len)
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

fn oracle_bytes(stream: &[Exec]) -> Vec<u8> {
    let mut enc = ExecEncoder::new();
    let mut out = Vec::new();
    for e in stream {
        enc.encode(e, &mut out);
    }
    enc.finish(&mut out);
    out
}

fn library_bytes(stream: &[Exec]) -> Vec<u8> {
    let mut enc = dise_cpu::ExecEncoder::new();
    let mut out = Vec::new();
    for e in stream {
        enc.encode(e, &mut out);
    }
    enc.finish(&mut out);
    out
}

/// A unique scratch path per check (tests run concurrently).
fn scratch(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dise-codec-oracle-{name}-{}-{}.dtrc",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A dirty verdict drawn from the record and `seed`: about one record
/// in `1 << (seed % 5)` is dirty (every record when `seed % 5 == 0`).
fn dirty(e: &Exec, seed: u64) -> bool {
    let h = (e.pc ^ u64::from(e.disepc) ^ e.mem.map_or(0, |m| m.new_value) ^ seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 40).is_multiple_of(1 << (seed % 5))
}

/// The three codec checks on one stream; `cap`, `max` and `seed` shape
/// the chunked read.
fn check_stream(stream: &[Exec], cap: usize, max: u64, seed: u64) -> Result<(), TestCaseError> {
    // 1. Same bytes.
    let want = oracle_bytes(stream);
    let got = library_bytes(stream);
    let first_diff = want.iter().zip(&got).position(|(a, b)| a != b);
    prop_assert!(
        got == want,
        "encodings differ: {} vs {} oracle bytes, first difference at {:?}",
        got.len(),
        want.len(),
        first_diff
    );

    // 2. The library decoder reads the oracle's bytes back.
    let mut dec = dise_cpu::ExecDecoder::new();
    let mut pos = 0;
    for (i, e) in stream.iter().enumerate() {
        prop_assert_eq!(dec.next(&want, &mut pos), Ok(Some(*e)), "record {}", i);
    }
    prop_assert_eq!(dec.next(&want, &mut pos), Ok(None));
    prop_assert_eq!(pos, want.len(), "every byte consumed");

    // 3. Chunked reads under a dirty predicate equal per-record reads.
    let path = scratch("stream");
    let mut writer = TraceWriter::create(&path, 7).expect("create");
    for e in stream {
        writer.record(e);
    }
    writer.finish().expect("finish");
    let mut scalar = TraceReader::open(&path, Some(7)).expect("opens");
    let mut chunked = TraceReader::open(&path, Some(7)).expect("opens");
    let mut per_record = Vec::with_capacity(stream.len());
    while let Some(e) = scalar.next().expect("decodes") {
        per_record.push(e);
    }
    let mut chunk = ExecChunk::with_capacity(cap);
    let mut by_chunk = Vec::with_capacity(stream.len());
    loop {
        chunk.clear();
        let (n, d) = chunked.next_chunk(&mut chunk, max, |e| dirty(e, seed)).expect("decodes");
        prop_assert!(n <= max, "{} records read past a budget of {}", n, max);
        prop_assert_eq!(n as usize, chunk.len() + usize::from(d.is_some()));
        prop_assert!(chunk.records().iter().all(|e| !dirty(e, seed)), "a dirty record was pushed");
        by_chunk.extend_from_slice(chunk.records());
        if let Some(d) = d {
            prop_assert!(dirty(&d, seed), "a clean record was handed back");
            by_chunk.push(d);
        }
        if n == 0 {
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    prop_assert!(per_record == stream, "per-record reads differ from the stream");
    prop_assert!(by_chunk == per_record, "chunked reads differ from per-record reads");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_matches_oracle(
        ops in stream_strategy(1500),
        cap in 1usize..80,
        max in 1u64..200,
        seed: u64,
    ) {
        check_stream(&build_stream(&ops), cap, max, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn codec_matches_oracle_sweep(
        ops in stream_strategy(12_000),
        cap in 1usize..200,
        max in 1u64..100_000,
        seed: u64,
    ) {
        check_stream(&build_stream(&ops), cap, max, seed)?;
    }
}

/// Token kinds the oracle decoder meets reading `bytes`:
/// `[RUN records, SAME, FULL]`.
fn token_mix(bytes: &[u8]) -> [usize; 3] {
    let mut dec = ExecDecoder::new();
    let mut pos = 0;
    let mut mix = [0; 3];
    loop {
        let (at, pending) = (pos, dec.run);
        if dec.next(bytes, &mut pos).expect("decodes").is_none() {
            return mix;
        }
        let op = if pending > 0 { OP_RUN } else { bytes[at] };
        mix[usize::from(op)] += 1;
    }
}

/// The generator is worth its properties only if its streams reach
/// every token kind and every field shape.
#[test]
fn random_streams_exercise_every_token_and_field() {
    let mut lcg = 0x5eedu64;
    let ops: Vec<(u8, u64)> = (0..20_000)
        .map(|_| {
            lcg =
                lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((lcg >> 60) as u8, lcg.rotate_left(17))
        })
        .collect();
    let stream = build_stream(&ops);
    let [runs, same, full] = token_mix(&oracle_bytes(&stream));
    assert!(runs > 1000 && same > 100 && full > 1000, "token mix {runs}/{same}/{full}");
    let branches: Vec<Branch> = stream.iter().filter_map(|e| e.branch).collect();
    for kind in [
        BranchKind::Conditional,
        BranchKind::Direct,
        BranchKind::Indirect,
        BranchKind::Call,
        BranchKind::Return,
    ] {
        for taken in [false, true] {
            assert!(
                branches.iter().any(|b| b.kind == kind && b.taken == taken),
                "{kind:?} taken={taken}"
            );
        }
    }
    for f in FLUSHES {
        assert!(stream.iter().any(|e| e.flush == Some(f)), "{f:?}");
    }
    for ev in EVENTS {
        assert!(stream.iter().any(|e| e.event == Some(ev)), "{ev:?}");
    }
    assert!(stream.iter().any(|e| e.disepc > 0), "replacement slots");
    assert!(stream.iter().any(|e| e.mem.is_some_and(|m| m.is_store && m.addr > u64::MAX - 8)));
    assert!(stream.iter().any(|e| e.mem.is_some_and(|m| !m.is_store)), "loads");
    check_stream(&stream, 64, u64::MAX, 3).unwrap();
}

fn functional_stream(mut exec: Executor, limit: usize) -> Vec<Exec> {
    let mut stream = Vec::new();
    while !exec.is_halted() && stream.len() < limit {
        stream.push(exec.step());
    }
    stream
}

/// The six kernels' live observer streams (the unmodified program's
/// functional pass) and the stream of a DISE session's machine — its
/// productions installed — at small iteration counts.
#[test]
fn kernel_and_dise_session_streams_match_the_oracle() {
    for (i, w) in dise_workloads::all(3).iter().enumerate() {
        let prog = w.app().program().expect("assembles");
        let stream =
            functional_stream(Executor::from_program(&prog, CpuConfig::default()), 1 << 20);
        assert!(stream.last().is_some_and(|e| e.event == Some(Event::Halted)), "{}", w.name());
        check_stream(&stream, 64, u64::MAX, i as u64).unwrap();
    }
    let w = dise_workloads::by_name("bzip2", 3).expect("bzip2");
    let session =
        Session::new(w.app(), vec![w.watchpoint(WatchKind::Hot)], BackendKind::dise_default())
            .expect("DISE session admits");
    let stream = functional_stream(session.executor().clone(), 1 << 20);
    assert!(stream.iter().any(|e| e.disepc > 0), "the session's productions expand");
    check_stream(&stream, 64, u64::MAX, 9).unwrap();
}
