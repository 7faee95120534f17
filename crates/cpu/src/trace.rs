//! Persistent `Exec` streams: the record codec plus [`TraceWriter`] /
//! [`TraceReader`] over the `dise-trace` container.
//!
//! ## The codec
//!
//! An `Exec` record is large in memory (~100 bytes) but carries almost
//! no information most of the time: kernel inner loops re-execute the
//! same few instructions with the PC advancing predictably and only
//! memory-operand values changing. The codec exploits that with three
//! token kinds over a small amount of shared state (`prev`, the last
//! record coded, and the most recent record seen at each
//! `(pc, disepc)` position):
//!
//! - `RUN n` — the next `n` records are each *exactly* the remembered
//!   record at the position sequential flow predicts from its
//!   predecessor (fall-through, taken-branch target, or the next
//!   replacement-sequence slot). Straight-line re-execution — the
//!   overwhelmingly common case — costs amortised fractions of a byte
//!   per record.
//! - `SAME` — the record equals the remembered record at its position,
//!   but control arrived there unpredictably; costs a PC delta.
//! - `FULL` — anything else: field-by-field delta encoding against the
//!   remembered record at this position, with presence flags so absent
//!   options cost nothing.
//!
//! The decoder maintains the same state machine, so both sides agree on
//! every prediction without any side channel; round-trips are
//! bit-identical by construction and the conformance suite pins it.
//!
//! ## The slot arena
//!
//! Both sides keep that state in a slot arena. Each position owns one
//! dense slot holding its last record, found through an open-addressed
//! index hashed with the multiply-fold [`AddrHasher`] (`dise-mem`'s
//! page-table idiom): positions need spread, not the DoS resistance
//! SipHash pays for, and SipHash was a third of the codec's cost.
//! `prev` is a slot number, and each slot caches a *successor link* —
//! the slot a RUN token moves to, the one at the position sequential
//! flow predicts from its record. A link is resolved on first use and
//! dropped only when a FULL record rewrites its slot (the prediction
//! depends on the record; the successor's own contents may change
//! freely, since a link names a position). So a RUN record decodes
//! with no hashing and encodes with one compare, and
//! [`TraceReader::next_chunk`] copies each record once, from its slot
//! into the fan-out chunk. The hash is unkeyed: traces are this
//! program's own recordings, checked by CRC and fingerprint, and a
//! hand-made file whose positions collide can slow decoding but never
//! change what it returns.
//!
//! The arena changes how the state is held, not what it is: the token
//! stream, and with it every `.dtrc` byte, is the one the plain
//! `HashMap` codec wrote (`tests/codec_oracle.rs` keeps that codec as
//! the oracle, and `tests/data/tight_loop.dtrc` pins the format).
//!
//! ## Fingerprints
//!
//! A trace is only replayable against the exact program image that
//! produced it. [`program_fingerprint`] hashes everything that
//! determines the functional stream (text, data, entry, stack top);
//! the writer stamps it into the container header and
//! [`TraceReader::open`] rejects a mismatch loudly
//! ([`TraceError::FingerprintMismatch`]) — a stale trace must never
//! silently replay wrong.

use std::hash::Hasher;
use std::path::Path;

use dise_asm::Program;
use dise_isa::{decode as decode_instr, encode as encode_instr, INSTR_BYTES};
use dise_mem::AddrHasher;
use dise_trace::wire::{apply_delta, delta, read_uvarint, write_uvarint};
use dise_trace::{read_chunk_file, ChunkWriter, TraceError};

use crate::exec::{
    Branch, BranchKind, Event, Exec, ExecChunk, ExecError, FlushKind, InstrFacts, MemOp,
};

/// Target size of one compressed data chunk. Chunking is pure byte
/// segmentation — the codec state runs straight across chunk seams —
/// so this only bounds the blast radius of a CRC failure.
const CHUNK_BYTES: usize = 64 * 1024;

const OP_RUN: u8 = 0;
const OP_SAME: u8 = 1;
const OP_FULL: u8 = 2;

/// Fingerprint of everything that determines a program's functional
/// `Exec` stream: text placement and words, data placement and bytes,
/// entry point, and initial stack top. (Symbols and statement markers
/// are debugger-side metadata and deliberately excluded.) FNV-1a, 64
/// bits.
pub fn program_fingerprint(prog: &Program) -> u64 {
    let mut h = Fingerprint::new();
    h.eat(&prog.text_base.to_le_bytes());
    for w in &prog.text {
        h.eat(&w.to_le_bytes());
    }
    h.eat(&prog.data_base.to_le_bytes());
    h.eat(&prog.data);
    h.eat(&prog.entry.to_le_bytes());
    h.eat(&prog.stack_top.to_le_bytes());
    h.finish()
}

/// The running state of a [`program_fingerprint`], for a program held
/// in pieces rather than as one [`Program`] (a loaded image, say): feed
/// it the same bytes in the same order and it finishes to the same
/// value.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` on.
    pub fn eat(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The fingerprint of everything eaten so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

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

/// The slot number that names no slot: `prev` before the first record,
/// and a successor link not yet resolved.
const NO_SLOT: u32 = u32::MAX;

/// Initial size of the position index (a power of two).
const INITIAL_INDEX: usize = 256;

/// One `(pc, disepc)` position of the stream.
struct Slot {
    /// The most recent record seen at this position.
    rec: Exec,
    /// The slot a RUN token moves to from here — the slot of
    /// `predicted_next(&rec)` — or [`NO_SLOT`] while unresolved.
    succ: u32,
}

/// Codec state shared (by construction, not by channel) between the
/// encoder and the decoder: the slot arena, its position index, and
/// the slot of the last record coded.
struct CodecState {
    slots: Vec<Slot>,
    /// Open-addressed, linearly probed table of slot numbers keyed by
    /// [`position_hash`]; [`NO_SLOT`] marks an empty entry. Its length
    /// is a power of two kept at least twice the slot count.
    index: Vec<u32>,
    /// The slot holding the last record coded.
    prev: u32,
}

impl Default for CodecState {
    fn default() -> CodecState {
        CodecState { slots: Vec::new(), index: vec![NO_SLOT; INITIAL_INDEX], prev: NO_SLOT }
    }
}

/// Multiply-fold hash of a position (see [`AddrHasher`]): positions
/// need spread, not DoS resistance.
#[inline]
fn position_hash(pc: u64, disepc: u16) -> usize {
    let mut h = AddrHasher::default();
    h.write_u64(pc);
    h.write_u64(u64::from(disepc));
    h.finish() as usize
}

impl CodecState {
    /// The slot at `(pc, disepc)`, or [`NO_SLOT`] for a position never
    /// seen.
    #[inline]
    fn find(&self, pc: u64, disepc: u16) -> u32 {
        let mask = self.index.len() - 1;
        let mut i = position_hash(pc, disepc) & mask;
        loop {
            let s = self.index[i];
            if s == NO_SLOT {
                return NO_SLOT;
            }
            let r = &self.slots[s as usize].rec;
            if r.pc == pc && r.disepc == disepc {
                return s;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot a RUN token reaches from `from`, resolving (and
    /// caching) the successor link on first use. [`NO_SLOT`] when the
    /// predicted position has not been seen yet.
    #[inline]
    fn successor(&mut self, from: u32) -> u32 {
        let slot = &self.slots[from as usize];
        if slot.succ != NO_SLOT {
            return slot.succ;
        }
        let (pc, disepc) = predicted_next(&slot.rec);
        let s = self.find(pc, disepc);
        self.slots[from as usize].succ = s;
        s
    }

    /// The PC of the last record coded (0 at stream start).
    #[inline]
    fn prev_pc(&self) -> u64 {
        if self.prev == NO_SLOT {
            0
        } else {
            self.slots[self.prev as usize].rec.pc
        }
    }

    /// Make `e` the remembered record at its position and the last
    /// record coded. `slot` is its position's slot, or [`NO_SLOT`] to
    /// open a new one. Rewriting a slot drops its successor link: the
    /// predicted position depends on the record.
    fn remember(&mut self, slot: u32, e: &Exec) {
        self.prev = if slot == NO_SLOT {
            let new = u32::try_from(self.slots.len()).expect("fewer than 2^32 - 1 positions");
            self.slots.push(Slot { rec: *e, succ: NO_SLOT });
            if 2 * self.slots.len() > self.index.len() {
                self.index = vec![NO_SLOT; 2 * self.index.len()];
                for s in 0..new {
                    self.insert(s);
                }
            }
            self.insert(new);
            new
        } else {
            let sl = &mut self.slots[slot as usize];
            sl.rec = *e;
            sl.succ = NO_SLOT;
            slot
        };
    }

    fn insert(&mut self, s: u32) {
        let r = &self.slots[s as usize].rec;
        let mask = self.index.len() - 1;
        let mut i = position_hash(r.pc, r.disepc) & mask;
        while self.index[i] != NO_SLOT {
            i = (i + 1) & mask;
        }
        self.index[i] = s;
    }
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
    #[inline]
    pub fn encode(&mut self, e: &Exec, out: &mut Vec<u8>) {
        let st = &mut self.state;
        let mut slot = NO_SLOT;
        if st.prev != NO_SLOT {
            let s = st.successor(st.prev);
            if s != NO_SLOT {
                let r = &st.slots[s as usize].rec;
                if r == e {
                    self.run += 1;
                    st.prev = s;
                    return;
                }
                if r.pc == e.pc && r.disepc == e.disepc {
                    slot = s;
                }
            }
        }
        if slot == NO_SLOT {
            slot = st.find(e.pc, e.disepc);
        }
        self.flush_run(out);
        let st = &mut self.state;
        let prev_pc = st.prev_pc();
        let base = (slot != NO_SLOT).then(|| &st.slots[slot as usize].rec);
        if base == Some(e) {
            out.push(OP_SAME);
            write_uvarint(out, delta(prev_pc, e.pc));
            write_uvarint(out, u64::from(e.disepc));
            st.prev = slot;
        } else {
            encode_full(e, base, prev_pc, out);
            st.remember(slot, e);
        }
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
}

/// A FULL token for `e`, delta-encoded against `base`, the remembered
/// record at its position.
fn encode_full(e: &Exec, base: Option<&Exec>, prev_pc: u64, out: &mut Vec<u8>) {
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

/// Streaming bytes → `Exec` decoder — the exact mirror of
/// [`ExecEncoder`]. Errors are returned as human-readable reasons; the
/// caller wraps them in [`TraceError::Malformed`] with the file path.
///
/// Besides undecodable bytes, the decoder rejects every field value the
/// encoder never writes — an access width outside {1, 2, 4, 8}, a
/// memory byte above 1, FULL flag bit 7, branch-byte bits 4–7 — so a
/// CRC-clean but hand-edited trace fails here, typed, instead of
/// reaching a replayer that trusts the fields.
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
        Ok(self.next_ref(buf, pos)?.copied())
    }

    /// [`ExecDecoder::next`] without the copy: the record is borrowed
    /// from the decoder's slot arena until the next call.
    #[inline]
    pub(crate) fn next_ref(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<Option<&Exec>, String> {
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
                let st = &mut self.state;
                let pc =
                    apply_delta(st.prev_pc(), read_uvarint(buf, pos).ok_or("truncated SAME pc")?);
                let disepc = read_disepc(buf, pos, "truncated SAME disepc")?;
                let s = st.find(pc, disepc);
                if s == NO_SLOT {
                    return Err("SAME token for a position never seen".to_string());
                }
                st.prev = s;
                Ok(Some(&st.slots[s as usize].rec))
            }
            OP_FULL => {
                self.decode_full(buf, pos)?;
                Ok(Some(&self.state.slots[self.state.prev as usize].rec))
            }
            other => Err(format!("unknown opcode {other}")),
        }
    }

    #[inline]
    fn replay_predicted(&mut self) -> Result<&Exec, String> {
        let st = &mut self.state;
        if st.prev == NO_SLOT {
            return Err("run token before any record".to_string());
        }
        let s = st.successor(st.prev);
        if s == NO_SLOT {
            return Err("run token reached a position never seen".to_string());
        }
        st.prev = s;
        Ok(&st.slots[s as usize].rec)
    }

    /// Decode a FULL token into its slot, which becomes `prev`.
    #[allow(clippy::too_many_lines)]
    fn decode_full(&mut self, buf: &[u8], pos: &mut usize) -> Result<(), String> {
        let flags = read_byte(buf, pos, "truncated FULL flags")?;
        if flags & (1 << 7) != 0 {
            return Err(format!("FULL flags {flags:#04x} set reserved bit 7"));
        }
        let st = &mut self.state;
        let pc = apply_delta(st.prev_pc(), read_uvarint(buf, pos).ok_or("truncated FULL pc")?);
        let disepc = read_disepc(buf, pos, "truncated FULL disepc")?;
        let slot = st.find(pc, disepc);
        if slot == NO_SLOT && st.slots.len() >= NO_SLOT as usize {
            return Err("more distinct positions than the codec can index".to_string());
        }
        let base = (slot != NO_SLOT).then(|| st.slots[slot as usize].rec);
        // The slot's facts serve every later record at its position
        // that repeats its instruction; a new word resolves them anew.
        let (instr, facts) = if flags & (1 << 6) != 0 {
            let b = base.ok_or("instr-same flag for a position never seen")?;
            (b.instr, b.facts)
        } else {
            if buf.len() - *pos < 4 {
                return Err("truncated FULL instruction word".to_string());
            }
            let word = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
            *pos += 4;
            let instr =
                decode_instr(word).map_err(|e| format!("undecodable instruction word: {e:?}"))?;
            (instr, InstrFacts::of(&instr))
        };
        let branch = if flags & (1 << 2) != 0 {
            let b = read_byte(buf, pos, "truncated branch byte")?;
            if b & 0xF0 != 0 {
                return Err(format!("branch byte {b:#04x} sets reserved bits 4-7"));
            }
            let target = apply_delta(pc, read_uvarint(buf, pos).ok_or("truncated branch target")?);
            Some(Branch { kind: branch_kind_from(b & 0x7)?, taken: b & (1 << 3) != 0, target })
        } else {
            None
        };
        let mem = if flags & (1 << 3) != 0 {
            let m = read_byte(buf, pos, "truncated mem byte")?;
            if m > 1 {
                return Err(format!("mem byte {m} is neither load (0) nor store (1)"));
            }
            let width = read_uvarint(buf, pos).ok_or("truncated mem width")?;
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(format!("access width {width} is not 1, 2, 4 or 8"));
            }
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
            Some(MemOp { addr, width, is_store: m == 1, old_value, new_value })
        } else {
            None
        };
        let flush = if flags & (1 << 4) != 0 {
            Some(flush_from(read_byte(buf, pos, "truncated flush byte")?)?)
        } else {
            None
        };
        let event = if flags & (1 << 5) != 0 {
            Some(match read_byte(buf, pos, "truncated event tag")? {
                0 => Event::Trap,
                1 => Event::ProtFault {
                    addr: read_uvarint(buf, pos).ok_or("truncated fault address")?,
                },
                2 => Event::Halted,
                3 => {
                    let code = read_byte(buf, pos, "truncated error code")?;
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
            facts,
        };
        st.remember(slot, &e);
        Ok(())
    }
}

fn read_byte(buf: &[u8], pos: &mut usize, what: &str) -> Result<u8, String> {
    let b = *buf.get(*pos).ok_or(what)?;
    *pos += 1;
    Ok(b)
}

fn read_disepc(buf: &[u8], pos: &mut usize, what: &str) -> Result<u16, String> {
    let disepc = read_uvarint(buf, pos).ok_or(what)?;
    u16::try_from(disepc).map_err(|_| format!("disepc {disepc} out of range"))
}

/// Size and throughput accounting for one recorded (or opened) trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceStats {
    /// Records in the stream.
    pub records: u64,
    /// What the stream would occupy uncompressed, at
    /// `size_of::<Exec>()` per record.
    pub raw_bytes: u64,
    /// Actual on-disk file size, container overhead included.
    pub file_bytes: u64,
}

impl TraceStats {
    /// Compression ratio versus the in-memory record size.
    pub fn compression(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.file_bytes as f64
    }
}

fn raw_bytes(records: u64) -> u64 {
    records * std::mem::size_of::<Exec>() as u64
}

/// Records an `Exec` stream to a trace file.
///
/// The session thread calls [`TraceWriter::record`] per step and pays
/// the encoding inline — a run record costs one compare — and each
/// 64 KiB chunk goes to the staged file as it fills. Until
/// [`TraceWriter::finish`] renames it into place the trace exists only
/// as a staged temporary, so an abandoned or failed recording publishes
/// nothing.
pub struct TraceWriter {
    encoder: ExecEncoder,
    /// Encoded bytes not yet written: under one chunk plus one record.
    out: Vec<u8>,
    /// The staged container, or the first I/O error — which dropped
    /// (and so discarded) the staged file.
    store: Result<ChunkWriter, TraceError>,
    records: u64,
}

impl TraceWriter {
    /// Open the staged file, surfacing an unwritable trace directory
    /// immediately, before any simulation work.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the staged file cannot be created.
    pub fn create(path: &Path, fingerprint: u64) -> Result<TraceWriter, TraceError> {
        Ok(TraceWriter {
            encoder: ExecEncoder::new(),
            out: Vec::with_capacity(2 * CHUNK_BYTES),
            store: Ok(ChunkWriter::create(path, fingerprint)?),
            records: 0,
        })
    }

    /// Encode one record, writing out the chunk it fills. After an I/O
    /// error this does nothing: the error is kept for
    /// [`TraceWriter::finish`], so a recording the caller asked for
    /// never silently becomes a non-recording.
    #[inline]
    pub fn record(&mut self, e: &Exec) {
        if self.store.is_err() {
            return;
        }
        self.records += 1;
        self.encoder.encode(e, &mut self.out);
        if self.out.len() >= CHUNK_BYTES {
            self.write_chunk();
        }
    }

    fn write_chunk(&mut self) {
        if let Ok(store) = &mut self.store {
            if let Err(e) = store.chunk(&self.out) {
                self.store = Err(e);
            }
        }
        self.out.clear();
    }

    /// Seal the stream: write the last chunk and the terminal record
    /// count, and rename the staged file into place.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] — the first one, if [`TraceWriter::record`]
    /// already hit one — when persisting failed; the staged file is
    /// discarded and nothing is published.
    pub fn finish(mut self) -> Result<TraceStats, TraceError> {
        self.encoder.finish(&mut self.out);
        if !self.out.is_empty() {
            self.write_chunk();
        }
        let file_bytes = self.store?.finish(self.records)?;
        Ok(TraceStats { records: self.records, raw_bytes: raw_bytes(self.records), file_bytes })
    }
}

/// Replays an `Exec` stream from a trace file.
///
/// [`TraceReader::open`] validates everything eagerly — magic, version,
/// kernel fingerprint, every chunk CRC, terminal record count — so a
/// damaged or stale trace is rejected before a single record is
/// delivered; [`TraceReader::next`] then decodes lazily.
pub struct TraceReader {
    path: String,
    payload: Vec<u8>,
    pos: usize,
    decoder: ExecDecoder,
    delivered: u64,
    records: u64,
    fingerprint: u64,
    file_bytes: u64,
}

impl TraceReader {
    /// Open and validate `path`. Pass the fingerprint of the program
    /// about to be replayed to reject stale traces; `None` skips that
    /// check (inspection tools only — replayers must pass it).
    ///
    /// # Errors
    ///
    /// Every [`TraceError`] variant, per its documentation; notably
    /// [`TraceError::FingerprintMismatch`] for a well-formed trace of
    /// the wrong kernel.
    pub fn open(path: &Path, expected_fingerprint: Option<u64>) -> Result<TraceReader, TraceError> {
        let file = read_chunk_file(path)?;
        if let Some(expected) = expected_fingerprint {
            if expected != file.fingerprint {
                return Err(TraceError::FingerprintMismatch {
                    path: path.display().to_string(),
                    expected,
                    found: file.fingerprint,
                });
            }
        }
        Ok(TraceReader {
            path: path.display().to_string(),
            payload: file.payload,
            pos: 0,
            decoder: ExecDecoder::new(),
            delivered: 0,
            records: file.record_count,
            fingerprint: file.fingerprint,
            file_bytes: file.file_bytes,
        })
    }

    /// Decode the next record, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] when the (CRC-clean) bytes do not
    /// decode or the stream length disagrees with the terminal record
    /// count.
    // Not `Iterator`: decoding is fallible, and callers must not be
    // able to skip a mid-stream error and keep iterating.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Exec>, TraceError> {
        Ok(self.advance()?.copied())
    }

    /// Decode the next record in place: it is borrowed from the
    /// decoder's slot arena, so delivering it costs no copy here.
    #[inline]
    fn advance(&mut self) -> Result<Option<&Exec>, TraceError> {
        let malformed = |reason: String| TraceError::Malformed { path: self.path.clone(), reason };
        match self.decoder.next_ref(&self.payload, &mut self.pos) {
            Ok(Some(e)) => {
                self.delivered += 1;
                if self.delivered > self.records {
                    return Err(malformed(format!(
                        "stream holds more than the {} records its end chunk declares",
                        self.records
                    )));
                }
                Ok(Some(e))
            }
            Ok(None) => {
                if self.delivered != self.records {
                    return Err(malformed(format!(
                        "stream ended after {} of {} declared records",
                        self.delivered, self.records
                    )));
                }
                Ok(None)
            }
            Err(reason) => Err(malformed(reason)),
        }
    }

    /// Decode up to `max` records into `chunk` — the bulk-decode twin
    /// of [`TraceReader::next`] for slice-based fan-out. The chunk is a
    /// caller-owned scratch buffer reused across the whole replay, so
    /// decoding a stream costs no per-record heap traffic: each record
    /// is copied once, from the decoder's slot straight into the chunk.
    ///
    /// `dirty` is consulted once per record, in decode order, and
    /// doubles as a per-record tee hook (the replay shadow memory rides
    /// on it). A record it claims is **not** pushed; decoding stops and
    /// the record is handed back so the caller can flush the buffered
    /// clean prefix first. Decoding also stops when the chunk fills or
    /// the stream ends — end of stream is the `(0, None)` return with
    /// an empty pushed prefix, and like [`TraceReader::next`] it is
    /// idempotent.
    ///
    /// Returns `(records decoded, dirty record if any)`; the dirty
    /// record counts toward the decoded total.
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`], per [`TraceReader::next`].
    pub fn next_chunk(
        &mut self,
        chunk: &mut ExecChunk,
        max: u64,
        mut dirty: impl FnMut(&Exec) -> bool,
    ) -> Result<(u64, Option<Exec>), TraceError> {
        let mut n = 0u64;
        while n < max && !chunk.is_full() {
            let Some(e) = self.advance()? else { break };
            n += 1;
            if dirty(e) {
                return Ok((n, Some(*e)));
            }
            chunk.push(*e);
        }
        Ok((n, None))
    }

    /// Total records the trace declares.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The kernel fingerprint stamped in the header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Size accounting for the opened trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            records: self.records,
            raw_bytes: raw_bytes(self.records),
            file_bytes: self.file_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::{Instr, Reg, Width};

    fn nop(pc: u64) -> Exec {
        Exec {
            pc,
            disepc: 0,
            in_dise_call: false,
            instr: Instr::Nop,
            fetched: true,
            branch: None,
            mem: None,
            flush: None,
            event: None,
            facts: InstrFacts::of(&Instr::Nop),
        }
    }

    /// Give `e` a new instruction, with its facts.
    fn set_instr(e: &mut Exec, instr: Instr) {
        e.instr = instr;
        e.facts = InstrFacts::of(&instr);
    }

    fn roundtrip(stream: &[Exec]) -> Vec<u8> {
        let mut enc = ExecEncoder::new();
        let mut out = Vec::new();
        for e in stream {
            enc.encode(e, &mut out);
        }
        enc.finish(&mut out);
        let mut dec = ExecDecoder::new();
        let mut pos = 0;
        for (i, e) in stream.iter().enumerate() {
            assert_eq!(dec.next(&out, &mut pos).expect("decodes"), Some(*e), "record {i}");
        }
        assert_eq!(dec.next(&out, &mut pos).expect("clean end"), None);
        assert_eq!(pos, out.len(), "every byte must be consumed");
        out
    }

    #[test]
    fn codec_round_trips_every_field_shape() {
        let mut stream = vec![nop(0x1000)];
        // A branch of every kind, taken and not.
        for (i, kind) in [
            BranchKind::Conditional,
            BranchKind::Direct,
            BranchKind::Indirect,
            BranchKind::Call,
            BranchKind::Return,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = nop(0x1000 + 4 * (i as u64 + 1));
            e.branch =
                Some(Branch { kind, taken: i % 2 == 0, target: 0x1000 + 4 * (i as u64 + 2) });
            stream.push(e);
        }
        // Memory ops: load, store, silent store; replacement sequence
        // positions; DISE-called code; every flush kind; every event.
        let mut e = nop(0x2000);
        e.mem = Some(MemOp { addr: 0x8000, width: 8, is_store: false, old_value: 7, new_value: 7 });
        stream.push(e);
        let mut e = nop(0x2000);
        e.mem = Some(MemOp { addr: 0x8008, width: 4, is_store: true, old_value: 7, new_value: 9 });
        stream.push(e);
        for (i, flush) in [
            FlushKind::DiseBranch,
            FlushKind::DiseCall,
            FlushKind::DiseRet,
            FlushKind::ReplacementBranch,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = nop(0x3000);
            e.disepc = i as u16 + 1;
            e.fetched = false;
            e.in_dise_call = i % 2 == 1;
            e.flush = Some(flush);
            stream.push(e);
        }
        for event in [
            Event::Trap,
            Event::ProtFault { addr: 0x9990 },
            Event::Halted,
            Event::Error(ExecError::BadInstruction(0x4000)),
            Event::Error(ExecError::DiseProtection(0x4004)),
            Event::Error(ExecError::StrayDiseReturn(0x4008)),
            Event::Error(ExecError::DiseBranchOutOfSequence(0x400c)),
            Event::Error(ExecError::NestedDiseCall(0x4010)),
        ] {
            let mut e = nop(0x4000);
            e.event = Some(event);
            stream.push(e);
        }
        roundtrip(&stream);
    }

    #[test]
    fn straight_line_reexecution_collapses_to_run_tokens() {
        // A two-instruction loop body repeated: after the first
        // iteration teaches the codec the loop, every later iteration
        // should cost only run-token bytes.
        let mut body = Vec::new();
        let mut e = nop(0x1000);
        e.branch = None;
        body.push(e);
        let mut e = nop(0x1004);
        e.branch = Some(Branch { kind: BranchKind::Conditional, taken: true, target: 0x1000 });
        body.push(e);
        let mut stream = Vec::new();
        for _ in 0..1000 {
            stream.extend_from_slice(&body);
        }
        let out = roundtrip(&stream);
        assert!(
            out.len() < 32,
            "1000 identical iterations must collapse to a handful of bytes, got {}",
            out.len()
        );
    }

    #[test]
    fn same_position_different_values_delta_cheaply() {
        // A store loop whose stored value changes every iteration: the
        // store record can never join a run, but its FULL encoding must
        // stay small via per-position deltas.
        let mut stream = Vec::new();
        for i in 0..1000u64 {
            let mut st = nop(0x1000);
            set_instr(
                &mut st,
                Instr::Store { width: Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 },
            );
            st.mem = Some(MemOp {
                addr: 0x8000,
                width: 8,
                is_store: true,
                old_value: 1000 - i,
                new_value: 1000 - i - 1,
            });
            stream.push(st);
            let mut br = nop(0x1004);
            br.branch = Some(Branch { kind: BranchKind::Conditional, taken: true, target: 0x1000 });
            stream.push(br);
        }
        let out = roundtrip(&stream);
        let per_iteration = out.len() as f64 / 1000.0;
        assert!(
            per_iteration < 12.0,
            "a counting store loop must cost ~order-10 bytes/iteration, got {per_iteration}"
        );
    }

    #[test]
    fn fingerprint_distinguishes_programs_and_is_stable() {
        use dise_asm::{parse_asm, Layout};
        let assemble = |src: &str| {
            parse_asm(src).expect("parses").assemble(Layout::default()).expect("assembles")
        };
        let a = assemble("start: halt\n");
        let b = assemble("start: nop\n halt\n");
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }
}
