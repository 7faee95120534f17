//! The functional half of the machine: architectural state, DISE
//! replacement context, and per-instruction execution records.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dise_asm::Program;
use dise_engine::Engine;
use dise_isa::{decode, AluOp, Instr, Reg, INSTR_BYTES};
use dise_mem::Memory;

use crate::CpuConfig;

/// Size of the physical register file (32 GPRs + 16 DISE registers).
pub const NUM_REGS: usize = Reg::NUM;

/// Why the pipeline must be flushed after an instruction.
///
/// All of these are implemented with the mis-prediction recovery
/// mechanism (§3 "DISE control flow"), so they share the refill cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushKind {
    /// A taken DISE branch (`d_beq`/`d_bne`): replacement sequences are
    /// expanded in full with DISE control transfers predicted not-taken.
    DiseBranch,
    /// A (taken) DISE call into a debugger-generated function.
    DiseCall,
    /// A `d_ret` back into the replacement sequence.
    DiseRet,
    /// A taken *conventional* control transfer inside a replacement
    /// sequence (to `⟨newPC:0⟩`), e.g. Fig. 2f's branch to the error
    /// handler. Not fetched, so not predicted, so it always flushes.
    ReplacementBranch,
}

/// Control-transfer classification, for the branch predictor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchKind {
    /// Conditional direct branch: direction predicted.
    Conditional,
    /// Unconditional direct branch or call: statically determined, never
    /// mispredicts (beyond BTB compulsory effects we do not model).
    Direct,
    /// Indirect jump through a register: target predicted by the BTB.
    Indirect,
    /// Call (direct or indirect, with link): pushes the RAS.
    Call,
    /// Return (`jmp (ra)` without link): target predicted by the RAS.
    Return,
}

/// A resolved control transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Branch {
    /// Classification for prediction.
    pub kind: BranchKind,
    /// Whether it was taken.
    pub taken: bool,
    /// The resolved target (next PC when taken).
    pub target: u64,
}

/// A resolved memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemOp {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// True for stores.
    pub is_store: bool,
    /// For stores, the value previously in memory (silent-store
    /// detection); for loads, the value loaded.
    pub old_value: u64,
    /// For stores, the value written; for loads, equals `old_value`.
    pub new_value: u64,
}

impl MemOp {
    /// A store that overwrote a value with the same value
    /// ("silent store" — the common source of spurious *value*
    /// transitions, §2).
    pub fn is_silent_store(&self) -> bool {
        self.is_store && self.old_value == self.new_value
    }
}

/// Functional execution errors (all terminal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The PC pointed at an undecodable word.
    BadInstruction(u64),
    /// Conventionally fetched code used a DISE-only instruction or named
    /// a DISE register (the OS/controller protection of §3).
    DiseProtection(u64),
    /// `d_ret` executed with no DISE call outstanding.
    StrayDiseReturn(u64),
    /// A DISE branch left its replacement sequence.
    DiseBranchOutOfSequence(u64),
    /// Nested DISE call (DISE is disabled inside called functions;
    /// a second call cannot occur, so this flags a malformed handler).
    NestedDiseCall(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadInstruction(pc) => write!(f, "undecodable instruction at {pc:#x}"),
            ExecError::DiseProtection(pc) => {
                write!(f, "DISE-only resource used by conventional code at {pc:#x}")
            }
            ExecError::StrayDiseReturn(pc) => write!(f, "d_ret without DISE call at {pc:#x}"),
            ExecError::DiseBranchOutOfSequence(pc) => {
                write!(f, "DISE branch left its replacement sequence at {pc:#x}")
            }
            ExecError::NestedDiseCall(pc) => write!(f, "nested DISE call at {pc:#x}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Notable outcomes of one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// `trap` (or a satisfied `ctrap`): control should pass to the
    /// debugger. The driver decides whether the transition is spurious.
    Trap,
    /// A store hit a write-protected page. The simulator no longer
    /// produces this event — virtual-memory watchpoints compute their
    /// page traps from the store stream — but the variant and its
    /// `.dtrc` tag stay because the trace format is pinned.
    ProtFault {
        /// The faulting address.
        addr: u64,
    },
    /// `halt` retired; the machine stops.
    Halted,
    /// A terminal execution error.
    Error(ExecError),
}

/// The record of one executed instruction — everything the timing model
/// and the debugger backends need to know.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exec {
    /// PC of the instruction (for replacement instructions, the PC of
    /// their trigger).
    pub pc: u64,
    /// DISEPC: 0 for unexpanded instructions, else the 1-based index
    /// within the replacement sequence.
    pub disepc: u16,
    /// Executed inside a DISE-called function.
    pub in_dise_call: bool,
    /// The instruction.
    pub instr: Instr,
    /// True if this instruction came through fetch (consumes fetch
    /// bandwidth and I-cache); replacement instructions are generated at
    /// decode instead.
    pub fetched: bool,
    /// Control transfer, if any.
    pub branch: Option<Branch>,
    /// Memory access, if any.
    pub mem: Option<MemOp>,
    /// Pipeline flush caused by DISE mechanics, if any.
    pub flush: Option<FlushKind>,
    /// Debugger-visible event, if any.
    pub event: Option<Event>,
    /// The timing facts of `instr`, resolved once per static
    /// instruction: always `InstrFacts::of(&instr)`.
    pub facts: InstrFacts,
}

/// What the timing model needs to know of a static instruction — its
/// two source registers, its destination and its ALU latency — resolved
/// once when the executor decodes a block or fuses a replacement
/// sequence (and once per position by the trace decoder), so
/// [`Timing::consume`](crate::Timing::consume) never matches on
/// [`Instr`].
///
/// Packed into three bytes, which fit in [`Exec`]'s padding: bits 0–5
/// and 6–11 hold the source-register indices, bits 12–17 the
/// destination's, bits 18–22 the latency and bit 23 marks a `jmp`. A
/// missing source reads register slot [`NO_SOURCE`], which never holds
/// a ready time; a missing destination (or the zero register) writes
/// slot [`NO_DEST`], which is never read.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InstrFacts([u8; 3]);

/// Register slot an absent source reads (always ready at cycle 0).
pub(crate) const NO_SOURCE: usize = NUM_REGS;
/// Register slot an absent destination writes (never read).
pub(crate) const NO_DEST: usize = NUM_REGS + 1;

const _: () = {
    assert!(NO_DEST < 64, "register slots fit in six bits");
    let mut i = 0;
    while i < AluOp::ALL.len() {
        assert!(AluOp::ALL[i].latency() < 32, "ALU latencies fit in five bits");
        i += 1;
    }
    // The facts ride in padding: the record stays 96 bytes.
    assert!(std::mem::size_of::<Exec>() == 96);
};

impl InstrFacts {
    /// The facts of `nop`.
    const NOP: InstrFacts = InstrFacts::pack([NO_SOURCE, NO_SOURCE], NO_DEST, 1, false);

    /// The facts of `instr`.
    pub fn of(instr: &Instr) -> InstrFacts {
        let sources = instr.sources().map(|r| r.map_or(NO_SOURCE, Reg::index));
        let latency = match instr {
            Instr::Alu { op, .. } => op.latency(),
            _ => 1,
        };
        let dest = instr.dest().map_or(NO_DEST, Reg::index);
        InstrFacts::pack(sources, dest, latency, matches!(instr, Instr::Jmp { .. }))
    }

    const fn pack(sources: [usize; 2], dest: usize, latency: u64, jmp: bool) -> InstrFacts {
        let bits = sources[0] as u32
            | (sources[1] as u32) << 6
            | (dest as u32) << 12
            | (latency as u32) << 18
            | (jmp as u32) << 23;
        let [b0, b1, b2, _] = bits.to_le_bytes();
        InstrFacts([b0, b1, b2])
    }

    #[inline]
    fn bits(self) -> u32 {
        let [b0, b1, b2] = self.0;
        u32::from_le_bytes([b0, b1, b2, 0])
    }

    /// Register slots of the two sources ([`NO_SOURCE`] when absent).
    #[inline]
    pub(crate) fn sources(self) -> [usize; 2] {
        let bits = self.bits();
        [(bits & 63) as usize, (bits >> 6 & 63) as usize]
    }

    /// Register slot of the destination ([`NO_DEST`] when absent).
    #[inline]
    pub(crate) fn dest(self) -> usize {
        (self.bits() >> 12 & 63) as usize
    }

    /// Execution latency when the instruction accesses no memory: the
    /// ALU operation's, else 1.
    #[inline]
    pub(crate) fn latency(self) -> u64 {
        u64::from(self.bits() >> 18 & 31)
    }

    /// True for `jmp`: a call through it predicts its target.
    #[inline]
    pub(crate) fn is_jmp(self) -> bool {
        self.bits() >> 23 != 0
    }
}

/// Do the byte footprints `[a, a + a_len)` and `[b, b + b_len)` share a
/// byte? Addresses wrap past `u64::MAX` exactly as memory accesses do,
/// and a zero length counts as one byte. Two footprints overlap iff one
/// starts inside the other, so the test compares start offsets against
/// lengths and never forms a one-past-the-end address — which does not
/// exist for a footprint ending at the top of the address space.
pub fn footprints_overlap(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    b.wrapping_sub(a) < a_len.max(1) || a.wrapping_sub(b) < b_len.max(1)
}

/// The inclusive `(first, last)` byte span of `[addr, addr + len)` (a
/// zero length counts as one byte). A footprint that wraps past
/// `u64::MAX` is widened to the whole address space — the conservative
/// hull that summaries and bounding boxes need.
pub fn byte_span(addr: u64, len: u64) -> (u64, u64) {
    match addr.checked_add(len.max(1) - 1) {
        Some(last) => (addr, last),
        None => (0, u64::MAX),
    }
}

/// A cheap digest of one chunk's records, maintained incrementally by
/// [`ExecChunk::push`]: the union of store footprints (min/max byte
/// interval plus a 64-bit page-occupancy mask) and whether any record
/// carries a debugger-visible event. A consumer whose watched
/// intervals cannot intersect the summary — and sees no event flag —
/// knows without looking at a single record that no store in the chunk
/// touched anything it watches.
///
/// The summary is conservative by construction: the min/max interval
/// and the page mask both over-approximate the true footprint union,
/// so a miss proves absence while a hit only licenses a scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkSummary {
    /// Lowest byte address any store in the chunk touched
    /// (`u64::MAX` when the chunk holds no stores).
    store_lo: u64,
    /// Highest byte address any store touched, inclusive (0 when the
    /// chunk holds no stores, so `store_lo > store_last` means empty).
    store_last: u64,
    /// Bloom mask of touched pages: bit `(addr / PAGE_SIZE) % 64` is
    /// set for every page some store wrote.
    page_mask: u64,
    /// Some record carries an [`Event`] (trap, halt, or error).
    any_event: bool,
    /// Some record carries [`Event::Trap`].
    any_trap: bool,
}

impl ChunkSummary {
    /// The summary of zero records.
    pub fn empty() -> ChunkSummary {
        ChunkSummary {
            store_lo: u64::MAX,
            store_last: 0,
            page_mask: 0,
            any_event: false,
            any_trap: false,
        }
    }

    /// Fold one record into the summary. A store wrapping past the top
    /// of the address space widens the interval to everything.
    #[inline]
    fn note(&mut self, e: &Exec) {
        if let Some(ev) = e.event {
            self.any_event = true;
            self.any_trap |= matches!(ev, Event::Trap);
        }
        if let Some(m) = e.mem {
            if m.is_store {
                let (first, last) = byte_span(m.addr, m.width);
                self.store_lo = self.store_lo.min(first);
                self.store_last = self.store_last.max(last);
                self.page_mask |= Self::page_bits(m.addr, m.width);
            }
        }
    }

    /// The page-occupancy bits of a `[addr, addr + len)` footprint. An
    /// access of at most 8 bytes spans at most two pages; long
    /// intervals (range watchpoints) walk page by page and saturate to
    /// all-ones past 64 pages, as does a footprint that wraps past the
    /// top of the address space.
    #[inline]
    pub fn page_bits(addr: u64, len: u64) -> u64 {
        let (first, last) = byte_span(addr, len);
        let (first, last) = (first / dise_mem::PAGE_SIZE, last / dise_mem::PAGE_SIZE);
        if last - first >= 63 {
            return u64::MAX;
        }
        // Pages `first..=last` set consecutive bits mod 64: a run of
        // `last - first + 1` ones rotated to bit `first % 64`.
        let run = (1u64 << (last - first + 1)) - 1;
        run.rotate_left((first & 63) as u32)
    }

    /// The union of the chunk's store footprints as one conservative
    /// inclusive byte span `(first, last)`, or `None` when the chunk
    /// stored nothing.
    pub fn stores(&self) -> Option<(u64, u64)> {
        (self.store_lo <= self.store_last).then_some((self.store_lo, self.store_last))
    }

    /// The page-occupancy Bloom mask of every store in the chunk.
    pub fn page_mask(&self) -> u64 {
        self.page_mask
    }

    /// True when some record carries a debugger-visible event — chunk
    /// consumers must not skip records they would otherwise classify.
    pub fn any_event(&self) -> bool {
        self.any_event
    }

    /// True when some record carries [`Event::Trap`].
    pub fn any_trap(&self) -> bool {
        self.any_trap
    }

    /// Could a store in the chunk have touched `[base, base + len)`?
    /// Conservative: `false` proves no store overlapped the interval;
    /// `true` means the consumer must scan the records.
    pub fn may_touch(&self, base: u64, len: u64) -> bool {
        let (first, last) = byte_span(base, len);
        first <= self.store_last
            && self.store_lo <= last
            && self.page_mask & Self::page_bits(base, len) != 0
    }
}

/// A fixed-capacity buffer of consecutive [`Exec`] records carrying a
/// running [`ChunkSummary`] — the unit of slice-based fan-out. One
/// chunk is allocated per run ([`ExecChunk::clear`] keeps the
/// allocation), so a replay touches no per-record heap traffic.
#[derive(Clone, Debug)]
pub struct ExecChunk {
    records: Vec<Exec>,
    cap: usize,
    summary: ChunkSummary,
}

impl ExecChunk {
    /// An empty chunk holding at most `cap` records (at least one).
    pub fn with_capacity(cap: usize) -> ExecChunk {
        let cap = cap.max(1);
        ExecChunk { records: Vec::with_capacity(cap), cap, summary: ChunkSummary::empty() }
    }

    /// The fixed record capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True when the chunk holds `capacity` records and must be flushed
    /// before another push.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.records.len() >= self.cap
    }

    /// The buffered records, in emission order.
    pub fn records(&self) -> &[Exec] {
        &self.records
    }

    /// The running summary of the buffered records.
    pub fn summary(&self) -> &ChunkSummary {
        &self.summary
    }

    /// Append a record and fold it into the summary.
    ///
    /// # Panics
    ///
    /// Panics when the chunk is full — the caller owns the flush
    /// cadence and a silent overflow would break its capacity
    /// accounting.
    #[inline]
    pub fn push(&mut self, e: Exec) {
        assert!(!self.is_full(), "ExecChunk::push on a full chunk (capacity {})", self.cap);
        self.summary.note(&e);
        self.records.push(e);
    }

    /// Drop the records and reset the summary, keeping the allocation —
    /// the scratch buffer is reused across the whole run.
    pub fn clear(&mut self) {
        self.records.clear();
        self.summary = ChunkSummary::empty();
    }

    /// The underlying buffer's allocated capacity in records — exposed
    /// so tests can pin that a warm buffer never grows.
    pub fn buffer_capacity(&self) -> usize {
        self.records.capacity()
    }
}

/// A static instruction and its timing facts, resolved together when a
/// block is decoded or a replacement sequence fused.
#[derive(Clone, Copy, Debug)]
struct Decoded {
    instr: Instr,
    facts: InstrFacts,
}

impl Decoded {
    const NOP: Decoded = Decoded { instr: Instr::Nop, facts: InstrFacts::NOP };

    fn new(instr: Instr) -> Decoded {
        Decoded { instr, facts: InstrFacts::of(&instr) }
    }
}

/// A replacement sequence. The block that fused it and every
/// replacement context running it share one allocation, so executing
/// a trigger copies a pointer, never the instructions.
type Seq = Arc<[Decoded]>;

/// Saved resume point for a DISE call: the replacement sequence to
/// re-enter at `⟨trigger_pc : idx⟩`.
#[derive(Clone, Debug)]
struct CallReturn {
    trigger_pc: u64,
    seq: Seq,
    idx: usize,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Conventional fetch; DISE expansion armed.
    Normal,
    /// Inside a replacement sequence: executing `seq[idx]` for the
    /// trigger at `trigger_pc`. Each step advances `idx` in place.
    Replacing { trigger_pc: u64, seq: Seq, idx: usize },
    /// Inside a DISE-called function: conventional fetch at `pc`, DISE
    /// expansion disabled, with the replacement context saved.
    InCall { ret: CallReturn },
}

/// Maximum decoded steps per cached block — and the record capacity of
/// the `ExecChunk`s the observer fan-out and trace replay dispatch, so
/// a chunk boundary never splits a replayed block it could have held.
pub const MAX_BLOCK_STEPS: usize = 64;

/// Granularity of the block invalidation index (power of two). A block
/// covers at most `MAX_BLOCK_STEPS * 4` bytes, so it spans at most two
/// regions.
const BLOCK_REGION_BYTES: u64 = 512;

/// Slots of the direct-mapped entry table in front of `block_index`
/// (power of two).
const ENTRY_SLOTS: usize = 128;

/// Multiply-xor hasher for the PC-keyed block maps. These maps sit on
/// the per-instruction replay path, where SipHash alone would cost more
/// than the decode it replaces; PCs are word-aligned addresses, so a
/// single multiply spreads them fine.
#[derive(Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PcHasher is only used with integer keys");
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type PcMap<K, V> = HashMap<K, V, BuildHasherDefault<PcHasher>>;

/// A block's cache key: its entry PC and the fetch mode it was built
/// for. Application code (DISE armed) and DISE-called code (disarmed)
/// never share a block, even when both enter at the same PC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct BlockKey {
    pc: u64,
    in_call: bool,
}

impl BlockKey {
    /// This key's slot in the entry table.
    #[inline]
    fn entry(self) -> usize {
        ((self.pc >> 2) as usize ^ (usize::from(self.in_call) * (ENTRY_SLOTS / 2)))
            & (ENTRY_SLOTS - 1)
    }
}

/// A decoded straight-line trace: conventionally decoded instructions
/// at consecutive PCs from the entry, optionally ended by a DISE
/// trigger whose instantiated replacement sequence is fused in at
/// build time (a trigger is an expansion boundary).
#[derive(Debug)]
struct Block {
    /// Entry PC and fetch mode: the cache key, kept here so an
    /// entry-table hit can be checked against the live block.
    key: BlockKey,
    /// Inclusive last byte of the instruction words the block decodes
    /// (`entry ..= last` is the byte range store invalidation tests
    /// against). A cached block never wraps past the top of the
    /// address space, so `entry <= last`.
    last: u64,
    /// The conventional steps, at `entry`, `entry + 4`, ...
    plain: Box<[Decoded]>,
    /// How many leading `plain` steps passed the DISE protection check
    /// at build time and so run without it. Only a block's last step
    /// can fail it (DISE-only instructions and DISE register operands
    /// end a block), so this is `plain.len()` or one less.
    vetted: usize,
    /// The fused replacement sequence of a trigger after `plain`.
    fused: Option<Seq>,
}

/// What one block step does, copied out of the block so the block can
/// be borrowed again (or invalidated) while the step executes.
enum StepOp {
    /// A vetted conventional instruction.
    Vetted(Decoded),
    /// A conventional instruction that must pass the protection check.
    Checked(Decoded),
    /// A DISE trigger: run its fused replacement sequence.
    Fused(Seq),
}

impl Block {
    /// Steps in the block.
    fn len(&self) -> usize {
        self.plain.len() + usize::from(self.fused.is_some())
    }

    /// PC of step `idx`.
    #[inline]
    fn pc_of(&self, idx: usize) -> u64 {
        self.key.pc.wrapping_add(idx as u64 * INSTR_BYTES)
    }

    /// Step `idx` (`idx < len()`).
    #[inline]
    fn op(&self, idx: usize) -> StepOp {
        match self.plain.get(idx) {
            Some(&i) if idx < self.vetted => StepOp::Vetted(i),
            Some(&i) => StepOp::Checked(i),
            None => {
                StepOp::Fused(Arc::clone(self.fused.as_ref().expect("step past the plain run")))
            }
        }
    }
}

/// Counters for the block cache ([`Executor::block_cache_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BlockCacheStats {
    /// Entry-PC lookups: one per block *entered*, not per replayed step
    /// (so `hits + misses == lookups` always holds).
    pub lookups: u64,
    /// Lookups served by a cached block.
    pub hits: u64,
    /// Lookups that had to (re)build a block.
    pub misses: u64,
    /// Blocks dropped by overlapping stores or code patches (wholesale
    /// flushes via [`Executor::mem_mut`] or [`Executor::engine_mut`]
    /// are not counted per block).
    pub invalidations: u64,
}

/// The functional machine: register file (GPRs + DISE registers), PC,
/// memory, the DISE engine, and the replacement-sequence context.
///
/// Every conventional fetch — application code and DISE-called
/// functions alike — is served by one block cache: decoded
/// straight-line runs keyed by entry PC and fetch mode, with DISE
/// expansions fused in at build time for application code and none for
/// DISE-called code (expansion is disabled inside calls). Replacement
/// instructions are never fetched; they come from the replacement
/// context.
#[derive(Clone, Debug)]
pub struct Executor {
    regs: [u64; NUM_REGS],
    pc: u64,
    mem: Memory,
    engine: Engine,
    mode: Mode,
    halted: bool,
    instructions: u64,
    /// Block arena: live blocks in `Some` slots, invalidated slots
    /// recycled through `free_blocks`. An arena rather than a map so
    /// the cursor continuation — the per-instruction hot path — is a
    /// bounds-checked index, not a hash probe. Blocks are immutable
    /// once built and shared (`Arc`) with forks and clones. They
    /// are invalidated range-wise by overlapping stores and code
    /// patches, and flushed wholesale by [`Executor::mem_mut`] and
    /// [`Executor::engine_mut`] (production changes alter what a block
    /// would fuse).
    blocks: Vec<Option<Arc<Block>>>,
    /// Entry key → arena slot, consulted once per block *entered*.
    block_index: PcMap<BlockKey, u32>,
    /// Direct-mapped memo of `block_index`: the slot last found for
    /// keys hashing to each entry. Never invalidated — an entry counts
    /// only while its slot holds a live block with the probed key, and
    /// every live block is exactly the one `block_index` names for its
    /// key, so the table answers every lookup as the index would.
    entries: [u32; ENTRY_SLOTS],
    free_blocks: Vec<u32>,
    /// Conservative inclusive byte span covered by any block ever
    /// cached since the last flush (`lo..=last`, never shrunk by
    /// invalidation), so the common store — data, nowhere near decoded
    /// text — skips block invalidation with two compares.
    block_bounds: (u64, u64),
    /// Region base → keys of blocks overlapping that region, so a store
    /// invalidates by range without scanning every block. Stale entries
    /// (blocks already dropped via another region) are cleaned lazily.
    block_regions: PcMap<u64, Vec<BlockKey>>,
    /// Replay position: arena slot and next step of the block being
    /// executed. `step` validates it against slot liveness and the
    /// current PC, so jumps, invalidations, and rebuilds simply drop
    /// it. (The PC check alone makes validation robust to slot reuse:
    /// any live step at the current PC decodes current memory.) A block
    /// never spans a mode change — DISE calls and returns end blocks —
    /// so a continuation always runs in the mode its block was built
    /// for.
    cursor: Option<(u32, usize)>,
    block_stats: BlockCacheStats,
}

impl Executor {
    /// A machine with zeroed state and an empty engine.
    pub fn new(config: CpuConfig) -> Executor {
        Executor {
            regs: [0; NUM_REGS],
            pc: 0,
            mem: Memory::new(),
            engine: Engine::new(config.engine),
            mode: Mode::Normal,
            halted: false,
            instructions: 0,
            blocks: Vec::new(),
            block_index: PcMap::default(),
            entries: [u32::MAX; ENTRY_SLOTS],
            free_blocks: Vec::new(),
            block_bounds: (u64::MAX, 0),
            block_regions: PcMap::default(),
            cursor: None,
            block_stats: BlockCacheStats::default(),
        }
    }

    /// A machine with `prog` loaded, PC at its entry, and SP at its
    /// stack top.
    pub fn from_program(prog: &Program, config: CpuConfig) -> Executor {
        let mut e = Executor::new(config);
        prog.load(&mut e.mem);
        e.pc = prog.entry;
        e.regs[Reg::SP.index()] = prog.stack_top;
        e
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Set the PC (debugger "jump").
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Read a register (the zero register reads 0: nothing writes its
    /// slot, since [`Executor::set_reg`] discards writes to it).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Write a register (writes to the zero register are discarded).
    /// The debugger uses this to load DISE registers like
    /// [`Reg::DAR`].
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The memory (for the debugger's expression evaluation).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory (loading, debugger writes).
    ///
    /// The caller may rewrite code behind the executor's back, so the
    /// block cache is dropped wholesale; use [`Executor::patch_code`]
    /// for single-word code patches instead.
    pub fn mem_mut(&mut self) -> &mut Memory {
        self.flush_blocks();
        &mut self.mem
    }

    /// Overwrite one code word (breakpoint planting/restoring),
    /// invalidating only the cached blocks it overlaps — unlike
    /// [`Executor::mem_mut`], the rest of the warm cache survives.
    pub fn patch_code(&mut self, addr: u64, word: u32) {
        self.mem.write_u(addr, 4, word as u64);
        self.invalidate_blocks(addr, 4);
    }

    /// The DISE engine (production installation).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable DISE engine.
    ///
    /// Cached blocks bake in the engine's matching and instantiation
    /// decisions, so handing out mutable engine access (production
    /// installation, activation toggles) flushes them.
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.flush_blocks();
        &mut self.engine
    }

    /// True once `halt` or an error has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed (including replacement
    /// instructions).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Counters of the block cache since construction. Replacement
    /// instructions never touch the cache (they are generated at
    /// decode, not fetched).
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_stats
    }

    /// Fork a copy-on-write twin of this machine in O(page-table) time.
    ///
    /// The child is state-identical to `self` — registers, PC, DISE
    /// engine (productions and statistics), replacement context,
    /// instruction counter, and the block cache (it describes the
    /// identical memory image and engine, so it remains valid as-is) —
    /// except that memory pages are shared copy-on-write and unshare on
    /// first write by either side. Takes `&mut self` only to account
    /// the fork in the parent's [`dise_mem::CowStats`]; no
    /// architectural state changes.
    pub fn fork(&mut self) -> Executor {
        let mem = self.mem.fork();
        let mut child = self.clone();
        child.mem = mem;
        child
    }

    /// Drop every cached block whose byte range overlaps the
    /// `width`-byte store at `addr`. Both store execution and
    /// [`Executor::patch_code`] funnel through here. A patched
    /// instruction anywhere inside a block kills the whole block —
    /// replaying the untouched prefix would be correct, but the
    /// cursor's PC validation cannot distinguish a stale suffix, so
    /// invalidation is all-or-nothing per block.
    #[inline]
    fn invalidate_blocks(&mut self, addr: u64, width: u64) {
        let last = addr.wrapping_add(width.max(1) - 1);
        if last < addr {
            // The store wraps past the top of the address space; no
            // block does, so each half is checked on its own.
            self.invalidate_span(addr, u64::MAX);
            self.invalidate_span(0, last);
        } else {
            self.invalidate_span(addr, last);
        }
    }

    /// Drop every cached block overlapping the inclusive byte span
    /// `first..=last` (`first <= last`).
    fn invalidate_span(&mut self, first: u64, last: u64) {
        if self.block_index.is_empty() || first > self.block_bounds.1 || last < self.block_bounds.0
        {
            return;
        }
        let mut region = first & !(BLOCK_REGION_BYTES - 1);
        let last_region = last & !(BLOCK_REGION_BYTES - 1);
        loop {
            if let Some(mut keys) = self.block_regions.remove(&region) {
                keys.retain(|&key| match self.block_index.get(&key) {
                    // Already dropped through another region.
                    None => false,
                    Some(&slot) => {
                        let b = self.blocks[slot as usize]
                            .as_ref()
                            .expect("indexed block slot is live");
                        if key.pc <= last && first <= b.last {
                            self.blocks[slot as usize] = None;
                            self.free_blocks.push(slot);
                            self.block_index.remove(&key);
                            self.block_stats.invalidations += 1;
                            false
                        } else {
                            true
                        }
                    }
                });
                if !keys.is_empty() {
                    self.block_regions.insert(region, keys);
                }
            }
            if region == last_region {
                break;
            }
            region += BLOCK_REGION_BYTES;
        }
    }

    /// Drop all cached blocks (memory or engine changed wholesale).
    fn flush_blocks(&mut self) {
        self.blocks.clear();
        self.block_index.clear();
        self.free_blocks.clear();
        self.block_bounds = (u64::MAX, 0);
        self.block_regions.clear();
        self.cursor = None;
    }

    /// Register a block's inclusive byte span in the region index.
    fn index_block(&mut self, key: BlockKey, last: u64) {
        self.block_bounds.0 = self.block_bounds.0.min(key.pc);
        self.block_bounds.1 = self.block_bounds.1.max(last);
        let mut region = key.pc & !(BLOCK_REGION_BYTES - 1);
        let last_region = last & !(BLOCK_REGION_BYTES - 1);
        loop {
            let list = self.block_regions.entry(region).or_default();
            if !list.contains(&key) {
                list.push(key);
            }
            if region == last_region {
                break;
            }
            region += BLOCK_REGION_BYTES;
        }
    }

    fn halt_with(&mut self, exec: &mut Exec, err: ExecError) {
        exec.event = Some(Event::Error(err));
        self.halted = true;
    }

    /// Move the replacement cursor to `next`, or — past the end of the
    /// sequence — fall back to conventional fetch at `trigger_pc + 4`.
    fn advance_replacement(&mut self, next: usize) {
        if let Mode::Replacing { trigger_pc, seq, idx } = &mut self.mode {
            if next >= seq.len() {
                self.pc = trigger_pc.wrapping_add(INSTR_BYTES);
                self.mode = Mode::Normal;
            } else {
                *idx = next;
            }
        }
    }

    /// The index of the replacement instruction executing now, and the
    /// length of its sequence.
    fn replacement_pos(&self) -> (usize, usize) {
        match &self.mode {
            Mode::Replacing { idx, seq, .. } => (*idx, seq.len()),
            _ => unreachable!("DISE control transfer outside a replacement sequence"),
        }
    }

    /// One conventional fetch that does not continue the block under
    /// the cursor: look up / build the block keyed by `pc` and the
    /// fetch mode and execute its first step. An undecodable word at
    /// `pc` halts with [`ExecError::BadInstruction`].
    fn block_step(&mut self, pc: u64, in_call: bool, out: &mut Exec) {
        self.block_stats.lookups += 1;
        let key = BlockKey { pc, in_call };
        if let Some(slot) = self.lookup(key) {
            self.block_stats.hits += 1;
            return self.run_step(slot, 0, out);
        }
        self.block_stats.misses += 1;
        let Some(block) = self.build_block(pc, in_call) else {
            *out = Exec::blank(pc, 0, in_call, Decoded::NOP, true);
            return self.halt_with(out, ExecError::BadInstruction(pc));
        };
        if block.last < pc {
            // The entry word itself wraps past the top of the address
            // space (an unaligned PC): run it once, uncached.
            return self.exec_op(pc, block.op(0), in_call, out);
        }
        self.index_block(key, block.last);
        let block = Some(Arc::new(block));
        let slot = match self.free_blocks.pop() {
            Some(s) => {
                self.blocks[s as usize] = block;
                s
            }
            None => {
                self.blocks.push(block);
                (self.blocks.len() - 1) as u32
            }
        };
        self.block_index.insert(key, slot);
        self.entries[key.entry()] = slot;
        self.run_step(slot, 0, out);
    }

    /// The arena slot of the live block keyed `key`: the entry table
    /// first, then `block_index` (refilling the table's entry).
    #[inline]
    fn lookup(&mut self, key: BlockKey) -> Option<u32> {
        let e = key.entry();
        let slot = self.entries[e];
        let live = self.blocks.get(slot as usize).and_then(Option::as_ref);
        if live.is_some_and(|b| b.key == key) {
            return Some(slot);
        }
        let slot = *self.block_index.get(&key)?;
        self.entries[e] = slot;
        Some(slot)
    }

    /// Execute step `idx` of the live block in `slot`, in the block's
    /// fetch mode, leaving the cursor on the step after it.
    #[inline]
    fn run_step(&mut self, slot: u32, idx: usize, out: &mut Exec) {
        let b = self.blocks[slot as usize].as_deref().expect("cursor and index name live blocks");
        let (pc, op, in_call) = (b.pc_of(idx), b.op(idx), b.key.in_call);
        self.cursor = (idx + 1 < b.len()).then_some((slot, idx + 1));
        self.exec_op(pc, op, in_call, out);
    }

    /// Execute one block step fetched at `pc`.
    #[inline]
    fn exec_op(&mut self, pc: u64, op: StepOp, in_call: bool, out: &mut Exec) {
        match op {
            StepOp::Vetted(step) => {
                *out = Exec::blank(pc, 0, in_call, step, true);
                self.execute::<false>(out);
            }
            StepOp::Checked(step) => {
                // Protection: conventional application code may not use
                // DISE resources; DISE-called functions access DISE
                // registers only through d_mfr/d_mtr.
                let legal_in_call = matches!(
                    step.instr,
                    Instr::DRet | Instr::DMfr { .. } | Instr::DMtr { .. } | Instr::CTrap { .. }
                );
                *out = Exec::blank(pc, 0, in_call, step, true);
                if !(in_call && legal_in_call) && needs_dise_resources(&step.instr) {
                    self.halt_with(out, ExecError::DiseProtection(pc));
                } else {
                    self.execute::<false>(out);
                }
            }
            StepOp::Fused(seq) => {
                // The fused sequence was instantiated statistics-free at
                // build time; account for this replay so engine stats
                // count one expansion per executed trigger.
                self.engine.count_expansion(seq.len() as u64);
                let first = seq[0];
                self.mode = Mode::Replacing { trigger_pc: pc, seq, idx: 0 };
                *out = Exec::blank(pc, 1, false, first, true);
                self.execute::<true>(out);
            }
        }
    }

    /// Decode a straight-line run starting at `entry` into a block.
    /// Application code (`in_call == false`) is built armed: a word
    /// that triggers a DISE production is fused with its instantiated
    /// sequence, because the paper expands at decode, before execution.
    /// DISE-called code is built disarmed, since expansion is disabled
    /// inside calls. The run ends at control transfers, `halt`, `trap`,
    /// DISE-only instructions (which fault in application code and end
    /// a call), the first fused expansion, `MAX_BLOCK_STEPS`, an
    /// undecodable word, or the top of the address space. Returns
    /// `None` when even the first word is undecodable.
    fn build_block(&self, entry: u64, in_call: bool) -> Option<Block> {
        let mut plain = Vec::new();
        let mut fused = None;
        let mut at = entry;
        let mut last = entry;
        while let Ok(instr) = decode(self.mem.read_u(at, 4) as u32) {
            last = at.wrapping_add(INSTR_BYTES - 1);
            let expansion = if in_call { None } else { self.engine.peek_expand(at, &instr) };
            let terminal = match expansion {
                Some(seq) => {
                    fused = Some(seq.into_iter().map(Decoded::new).collect::<Seq>());
                    true
                }
                None => {
                    plain.push(Decoded::new(instr));
                    matches!(
                        instr,
                        Instr::Br { .. }
                            | Instr::CondBr { .. }
                            | Instr::Jmp { .. }
                            | Instr::Halt
                            | Instr::Trap
                    ) || needs_dise_resources(&instr)
                }
            };
            // Stop before a next word that would wrap past `u64::MAX`,
            // so a block's byte span never crosses the top.
            let next_fits = at.checked_add(2 * INSTR_BYTES - 1).is_some();
            if terminal || plain.len() == MAX_BLOCK_STEPS || !next_fits {
                break;
            }
            at += INSTR_BYTES;
        }
        if plain.is_empty() && fused.is_none() {
            return None;
        }
        let vetted = plain.iter().take_while(|d| !needs_dise_resources(&d.instr)).count();
        Some(Block {
            key: BlockKey { pc: entry, in_call },
            last,
            plain: plain.into(),
            vetted,
            fused,
        })
    }

    /// Execute up to `max` instructions, buffering *clean* records into
    /// `chunk` — the bulk-emission twin of [`Executor::step`] for
    /// slice-based fan-out.
    ///
    /// `dirty` is consulted once per record, in emission order, and
    /// doubles as a per-record tee hook (trace recording rides on it).
    /// A record it claims is **not** pushed; stepping stops and the
    /// record is handed back so the caller can flush the buffered clean
    /// prefix first and then dispatch the dirty record with memory
    /// exactly as of that record. Stepping also stops when the chunk
    /// fills or the machine halts.
    ///
    /// Returns `(records stepped, dirty record if any)`; the dirty
    /// record counts toward the stepped total.
    pub fn step_chunk(
        &mut self,
        chunk: &mut ExecChunk,
        max: u64,
        mut dirty: impl FnMut(&Exec) -> bool,
    ) -> (u64, Option<Exec>) {
        let mut n = 0u64;
        while n < max && !chunk.is_full() && !self.halted {
            // Step straight into the chunk; the summary takes the record
            // only once `dirty` has passed it.
            chunk.records.push(Exec::default());
            let e = chunk.records.last_mut().expect("just pushed");
            self.step_into(e);
            n += 1;
            if dirty(e) {
                return (n, chunk.records.pop());
            }
            chunk.summary.note(e);
            // Block at a time: when `step` entered or continued a cached
            // block, run the block's remaining vetted steps here, with
            // no per-step mode dispatch, PC check or cursor update. The
            // cursor is set only while its block's mode is the current
            // one, and only after a step that fell through to the
            // cursor's PC (every transfer, halt, trap and unvetted
            // instruction ends a block).
            let Some((slot, mut idx)) = self.cursor else { continue };
            // The block is looked up again for every step, so a store
            // that rewrote it (self-modifying code) ends the run: `step`
            // then finds the slot dead and rebuilds from current memory.
            while let Some(b) = self.blocks[slot as usize].as_deref() {
                if idx >= b.vetted || n >= max || chunk.is_full() {
                    break;
                }
                debug_assert_eq!(b.pc_of(idx), self.pc);
                // Execute straight into the chunk; the summary takes the
                // record only once `dirty` has passed it.
                chunk.records.push(Exec::blank(b.pc_of(idx), 0, b.key.in_call, b.plain[idx], true));
                let e = chunk.records.last_mut().expect("just pushed");
                idx += 1;
                self.instructions += 1;
                self.execute::<false>(e);
                n += 1;
                if dirty(e) {
                    self.cursor = Some((slot, idx));
                    return (n, chunk.records.pop());
                }
                chunk.summary.note(e);
            }
            // A cursor past its block's end, or on a dropped block, fails
            // validation in `step`.
            self.cursor = Some((slot, idx));
        }
        (n, None)
    }

    /// Execute one instruction and report what happened.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step(&mut self) -> Exec {
        let mut e = Exec::default();
        self.step_into(&mut e);
        e
    }

    /// [`Executor::step`], writing the record over `out`. A loop that
    /// reuses one record this way never copies it: the record is built
    /// where the caller reads it.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step_into(&mut self, out: &mut Exec) {
        assert!(!self.halted, "step() on a halted machine");
        self.instructions += 1;

        // Continue the block under the cursor: valid only if the slot
        // is still live and its next step sits exactly at the current
        // PC (branches out, `set_pc`, and invalidations all fail this
        // check). The cursor is never set inside a replacement
        // sequence, since a fused trigger or a `d_ret` ends its block,
        // and a block never spans a mode change.
        if let Some((slot, idx)) = self.cursor {
            if let Some(b) = self.blocks[slot as usize].as_deref() {
                if idx < b.vetted && b.pc_of(idx) == self.pc {
                    // The per-instruction hot path, inline.
                    *out = Exec::blank(self.pc, 0, b.key.in_call, b.plain[idx], true);
                    self.cursor = (idx + 1 < b.len()).then_some((slot, idx + 1));
                    return self.execute::<false>(out);
                }
                if idx < b.len() && b.pc_of(idx) == self.pc {
                    return self.run_step(slot, idx, out);
                }
            }
            self.cursor = None;
        }

        // The next replacement instruction, or a conventional fetch
        // (application code or a DISE-called function) from a block.
        match self.mode {
            Mode::Replacing { trigger_pc, ref seq, idx } => {
                *out = Exec::blank(trigger_pc, (idx + 1) as u16, false, seq[idx], false);
                self.execute::<true>(out);
            }
            Mode::Normal => self.block_step(self.pc, false, out),
            Mode::InCall { .. } => self.block_step(self.pc, true, out),
        }
    }

    /// Execute the instruction of the blank record `exec` in the
    /// established context, filling in what it did: a replacement
    /// instruction (`REPL`, with the replacement cursor in
    /// `self.mode`) or a conventional fetch that passed the protection
    /// check.
    #[inline]
    fn execute<const REPL: bool>(&mut self, exec: &mut Exec) {
        let Exec { pc, in_dise_call: in_call, instr, .. } = *exec;

        // Helper: where conventional execution resumes if no transfer.
        // (For replacement instructions the sequence index advances
        // instead; `self.pc` is only meaningful outside replacements.)
        let next_pc = self.pc.wrapping_add(INSTR_BYTES);

        // `advance`: what to do after a non-transfer instruction.
        macro_rules! advance {
            () => {
                if REPL {
                    self.advance_replacement(self.replacement_pos().0 + 1)
                } else {
                    self.pc = next_pc
                }
            };
        }

        match instr {
            Instr::Nop | Instr::Codeword(_) => advance!(),
            Instr::Halt => {
                exec.event = Some(Event::Halted);
                self.halted = true;
            }
            Instr::Trap => {
                exec.event = Some(Event::Trap);
                advance!();
            }
            Instr::CTrap { cond, rs } => {
                if cond.holds(self.reg(rs)) {
                    exec.event = Some(Event::Trap);
                }
                advance!();
            }
            Instr::Alu { op, rd, ra, rb } => {
                let b = match rb {
                    dise_isa::Operand::Reg(r) => self.reg(r),
                    dise_isa::Operand::Imm(i) => i as u64,
                };
                let v = op.apply(self.reg(ra), b);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Lda { rd, base, disp } => {
                let v = self.reg(base).wrapping_add(disp as i64 as u64);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Ldah { rd, base, disp } => {
                let v = self.reg(base).wrapping_add(((disp as i64) << 14) as u64);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::Load { width, rd, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let w = width.bytes();
                let v = self.mem.read_u(addr, w);
                self.set_reg(rd, v);
                exec.mem =
                    Some(MemOp { addr, width: w, is_store: false, old_value: v, new_value: v });
                advance!();
            }
            Instr::Store { width, rs, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let w = width.bytes();
                let new = self.reg(rs) & width_mask(w);
                let old = self.mem.swap_u(addr, w, new);
                self.invalidate_blocks(addr, w);
                exec.mem =
                    Some(MemOp { addr, width: w, is_store: true, old_value: old, new_value: new });
                advance!();
            }
            Instr::Br { rd, disp } => {
                let ret = pc.wrapping_add(INSTR_BYTES);
                let target = branch_target(pc, disp);
                self.set_reg(rd, ret);
                exec.branch = Some(Branch {
                    kind: if rd.is_zero() { BranchKind::Direct } else { BranchKind::Call },
                    taken: true,
                    target,
                });
                if REPL {
                    exec.flush = Some(FlushKind::ReplacementBranch);
                    self.mode = Mode::Normal;
                }
                self.pc = target;
            }
            Instr::CondBr { cond, rs, disp } => {
                let taken = cond.holds(self.reg(rs));
                let target = branch_target(pc, disp);
                exec.branch = Some(Branch { kind: BranchKind::Conditional, taken, target });
                if taken {
                    if REPL {
                        exec.flush = Some(FlushKind::ReplacementBranch);
                        self.mode = Mode::Normal;
                    }
                    self.pc = target;
                } else {
                    advance!();
                }
            }
            Instr::Jmp { rd, base } => {
                let target = self.reg(base) & !3;
                let ret = pc.wrapping_add(INSTR_BYTES);
                let kind = if !rd.is_zero() {
                    BranchKind::Call
                } else if base == Reg::RA {
                    BranchKind::Return
                } else {
                    BranchKind::Indirect
                };
                self.set_reg(rd, ret);
                exec.branch = Some(Branch { kind, taken: true, target });
                if REPL {
                    exec.flush = Some(FlushKind::ReplacementBranch);
                    self.mode = Mode::Normal;
                }
                self.pc = target;
            }
            Instr::DBr { cond, rs, disp } => {
                let (idx, len) = self.replacement_pos();
                if cond.holds(self.reg(rs)) {
                    exec.flush = Some(FlushKind::DiseBranch);
                    let next = idx as i64 + 1 + disp as i64;
                    if next < 0 || next as usize > len {
                        self.halt_with(exec, ExecError::DiseBranchOutOfSequence(pc));
                        return;
                    }
                    self.advance_replacement(next as usize);
                } else {
                    self.advance_replacement(idx + 1);
                }
            }
            Instr::DCall { target } | Instr::DCCall { target, .. } => {
                let taken = match instr {
                    Instr::DCCall { cond, rs, .. } => cond.holds(self.reg(rs)),
                    _ => true,
                };
                let (idx, _) = self.replacement_pos();
                if taken {
                    if in_call {
                        self.halt_with(exec, ExecError::NestedDiseCall(pc));
                        return;
                    }
                    exec.flush = Some(FlushKind::DiseCall);
                    let callee = self.reg(target);
                    let Mode::Replacing { trigger_pc, seq, .. } =
                        std::mem::replace(&mut self.mode, Mode::Normal)
                    else {
                        unreachable!("replacement_pos checked the mode")
                    };
                    self.mode = Mode::InCall { ret: CallReturn { trigger_pc, seq, idx: idx + 1 } };
                    self.pc = callee;
                } else {
                    self.advance_replacement(idx + 1);
                }
            }
            Instr::DRet => match std::mem::replace(&mut self.mode, Mode::Normal) {
                Mode::InCall { ret } => {
                    exec.flush = Some(FlushKind::DiseRet);
                    let CallReturn { trigger_pc, seq, idx } = ret;
                    self.mode = Mode::Replacing { trigger_pc, seq, idx };
                    self.advance_replacement(idx);
                }
                _ => {
                    self.halt_with(exec, ExecError::StrayDiseReturn(pc));
                }
            },
            Instr::DMfr { rd, dr } => {
                let v = self.reg(dr);
                self.set_reg(rd, v);
                advance!();
            }
            Instr::DMtr { dr, rs } => {
                let v = self.reg(rs);
                self.set_reg(dr, v);
                advance!();
            }
        }
    }
}

impl Default for Exec {
    /// A `nop` at PC 0 that did nothing: a buffer for
    /// [`Executor::step_into`].
    fn default() -> Exec {
        Exec::blank(0, 0, false, Decoded::NOP, false)
    }
}

impl Exec {
    /// A record of `step` with no branch, access, flush or event yet.
    #[inline]
    fn blank(pc: u64, disepc: u16, in_dise_call: bool, step: Decoded, fetched: bool) -> Exec {
        Exec {
            pc,
            disepc,
            in_dise_call,
            instr: step.instr,
            fetched,
            branch: None,
            mem: None,
            flush: None,
            event: None,
            facts: step.facts,
        }
    }
}

/// Does `instr` use a DISE-only opcode or name a DISE register — the
/// resources conventional code may not touch (§3)?
#[inline]
fn needs_dise_resources(instr: &Instr) -> bool {
    instr.is_dise_only() || instr.touches_dise_regs()
}

/// The target of a PC-relative branch at `pc`: `disp` instruction words
/// past the next one, wrapping like every other PC computation.
#[inline]
fn branch_target(pc: u64, disp: i32) -> u64 {
    pc.wrapping_add(INSTR_BYTES).wrapping_add((4 * disp as i64) as u64)
}

#[inline]
fn width_mask(bytes: u64) -> u64 {
    if bytes == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_asm::{parse_asm, Layout};
    use dise_engine::{Pattern, Production, TemplateInst};
    use dise_isa::Cond;
    use dise_isa::{OpClass, Width};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The facts of a decodable word agree with the instruction they
    /// summarise: sources, destination and latency as `Instr` reports
    /// them, absent ones mapped to the slots nothing writes or reads.
    fn facts_agree(word: u32) -> Result<(), TestCaseError> {
        let Ok(instr) = decode(word) else { return Ok(()) };
        let f = InstrFacts::of(&instr);
        let slot = |r: Option<Reg>, absent: usize| r.map_or(absent, Reg::index);
        let [a, b] = instr.sources();
        prop_assert_eq!(f.sources(), [slot(a, NO_SOURCE), slot(b, NO_SOURCE)], "{:?}", instr);
        prop_assert_eq!(f.dest(), slot(instr.dest(), NO_DEST), "{:?}", instr);
        let latency = match instr {
            Instr::Alu { op, .. } => op.latency(),
            _ => 1,
        };
        prop_assert_eq!(f.latency(), latency, "{:?}", instr);
        prop_assert_eq!(f.is_jmp(), matches!(instr, Instr::Jmp { .. }), "{:?}", instr);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn facts_match_the_instruction(word: u32) {
            facts_agree(word)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000_000))]

        #[test]
        #[ignore = "large sweep; run with --include-ignored"]
        fn facts_match_the_instruction_sweep(word: u32) {
            facts_agree(word)?;
        }
    }

    /// Every record the executor emits carries its instruction's facts.
    #[test]
    fn executed_records_carry_their_facts() {
        let prog = parse_asm(
            "start: lda r1, 50(zero)
             loop:  mulq r1, r1, r2
                    stq r2, 0(sp)
                    ldq r3, 0(sp)
                    subq r1, 1, r1
                    bgt r1, loop
                    halt",
        )
        .unwrap()
        .assemble(Layout::default())
        .unwrap();
        let mut exec = Executor::from_program(&prog, CpuConfig::default());
        while !exec.is_halted() {
            let e = exec.step();
            assert_eq!(e.facts, InstrFacts::of(&e.instr), "{e:?}");
        }
        assert_eq!(Exec::default().facts, InstrFacts::of(&Instr::Nop));
    }

    fn machine(src: &str) -> Executor {
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        Executor::from_program(&prog, CpuConfig::default())
    }

    fn run(e: &mut Executor, max: u64) -> Vec<Exec> {
        let mut out = Vec::new();
        let mut n = 0;
        while !e.is_halted() {
            out.push(e.step());
            n += 1;
            assert!(n < max, "did not halt in {max} steps");
        }
        out
    }

    #[test]
    fn countdown_loop_executes() {
        let mut m = machine(
            "start: lda r1, 3(zero)
             loop:  subq r1, 1, r1
                    bgt r1, loop
                    halt",
        );
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(1)), 0);
        // lda + 3*(subq+bgt) + halt
        assert_eq!(trace.len(), 1 + 6 + 1);
        assert!(matches!(trace.last().unwrap().event, Some(Event::Halted)));
    }

    /// `step_chunk` is `step` with buffering: the concatenation of the
    /// pushed prefixes and handed-back dirty records reproduces the
    /// scalar stream exactly, for every chunk capacity.
    #[test]
    fn step_chunk_reproduces_the_scalar_stream() {
        let src = "start: la r1, v
                          lda r2, 5(zero)
                   loop:  stq r2, 0(r1)
                          subq r2, 1, r2
                          bgt r2, loop
                          halt
                   .data
                   v: .quad 0";
        let mut scalar = machine(src);
        let reference = run(&mut scalar, 1000);
        for cap in [1usize, 2, 3, 64] {
            let mut m = machine(src);
            let mut chunk = ExecChunk::with_capacity(cap);
            let mut stream = Vec::new();
            // Mark every third record dirty to exercise the hand-back.
            let mut i = 0u64;
            while !m.is_halted() {
                let (stepped, dirty) = m.step_chunk(&mut chunk, u64::MAX, |_| {
                    i += 1;
                    i.is_multiple_of(3)
                });
                assert!(stepped <= cap as u64);
                stream.extend_from_slice(chunk.records());
                chunk.clear();
                stream.extend(dirty);
            }
            assert_eq!(stream, reference, "capacity {cap}");
        }
    }

    /// The chunk summary is a sound over-approximation: every store's
    /// footprint and every event is covered, and `may_touch` never
    /// returns false for a genuinely overlapped interval.
    #[test]
    fn chunk_summary_covers_all_stores_and_events() {
        let mut m = machine(
            "start: la r1, v
                    lda r2, 7(zero)
                    stq r2, 0(r1)
                    stl r2, 16(r1)
                    halt
             .data
             v: .quad 0
               .quad 0
               .quad 0",
        );
        let mut chunk = ExecChunk::with_capacity(64);
        let (_, dirty) = m.step_chunk(&mut chunk, u64::MAX, |_| false);
        assert!(dirty.is_none());
        let s = *chunk.summary();
        assert!(s.any_event(), "the halt record is an event");
        assert!(!s.any_trap());
        let (lo, last) = s.stores().expect("two stores buffered");
        for e in chunk.records() {
            let Some(mo) = e.mem.filter(|m| m.is_store) else { continue };
            assert!(mo.addr >= lo && mo.addr + mo.width - 1 <= last, "inclusive span");
            assert!(s.may_touch(mo.addr, mo.width));
            assert!(s.may_touch(mo.addr + mo.width - 1, 1), "last byte covered");
        }
        assert!(!s.may_touch(0, 1), "address zero is far from the data segment");
        assert_eq!(ChunkSummary::empty().stores(), None);
        assert!(!ChunkSummary::empty().may_touch(0, u64::MAX));
    }

    /// Store footprints at the top of the address space: a byte at
    /// `u64::MAX` stays in the summary (no exclusive end saturates onto
    /// it), and a store wrapping past the top widens the summary to the
    /// whole address space, so page 0 is covered too.
    #[test]
    fn chunk_summary_covers_the_top_of_the_address_space() {
        let store = |addr, width| Exec {
            pc: 0,
            disepc: 0,
            in_dise_call: false,
            instr: Instr::Nop,
            fetched: true,
            branch: None,
            mem: Some(MemOp { addr, width, is_store: true, old_value: 0, new_value: 1 }),
            flush: None,
            event: None,
            facts: InstrFacts::of(&Instr::Nop),
        };
        let mut chunk = ExecChunk::with_capacity(4);
        chunk.push(store(u64::MAX, 1));
        let s = *chunk.summary();
        assert_eq!(s.stores(), Some((u64::MAX, u64::MAX)));
        assert!(s.may_touch(u64::MAX, 1));
        assert!(s.may_touch(u64::MAX - 7, 8), "a quad ending at the top");
        assert!(!s.may_touch(0, 1), "no spill across the wrap");
        chunk.push(store(u64::MAX - 3, 8));
        let s = *chunk.summary();
        assert_eq!(s.stores(), Some((0, u64::MAX)));
        assert!(s.may_touch(0, 1), "the wrapped bytes land in page 0");
    }

    #[test]
    fn footprints_overlap_at_both_ends() {
        assert!(footprints_overlap(u64::MAX, 1, u64::MAX, 1));
        assert!(footprints_overlap(u64::MAX - 7, 8, u64::MAX, 1));
        assert!(!footprints_overlap(u64::MAX, 1, 0, 1), "adjacent, not overlapping");
        assert!(footprints_overlap(u64::MAX - 3, 8, 0, 1), "a wrapping store reaches byte 0");
        assert!(footprints_overlap(0x100, 4, 0x103, 8));
        assert!(!footprints_overlap(0x100, 4, 0x104, 8));
        assert_eq!(byte_span(u64::MAX, 1), (u64::MAX, u64::MAX));
        assert_eq!(byte_span(u64::MAX - 3, 8), (0, u64::MAX), "wrapping footprints widen");
    }

    /// The scratch-buffer contract: clearing keeps the allocation, so a
    /// warm chunk never grows however many fill/clear cycles it serves.
    #[test]
    fn chunk_buffer_capacity_is_stable_after_warmup() {
        let src = "start: lda r1, 200(zero)
                   loop:  subq r1, 1, r1
                          bgt r1, loop
                          halt";
        let mut m = machine(src);
        let mut chunk = ExecChunk::with_capacity(16);
        // Warm-up: one full fill.
        m.step_chunk(&mut chunk, u64::MAX, |_| false);
        let warm = chunk.buffer_capacity();
        chunk.clear();
        while !m.is_halted() {
            m.step_chunk(&mut chunk, u64::MAX, |_| false);
            assert_eq!(chunk.buffer_capacity(), warm, "no growth after warm-up");
            chunk.clear();
        }
        assert_eq!(chunk.buffer_capacity(), warm);
    }

    #[test]
    #[should_panic(expected = "full chunk")]
    fn pushing_to_a_full_chunk_panics() {
        let mut chunk = ExecChunk::with_capacity(1);
        let e = Exec {
            pc: 0,
            disepc: 0,
            in_dise_call: false,
            instr: Instr::Nop,
            fetched: true,
            branch: None,
            mem: None,
            flush: None,
            event: None,
            facts: InstrFacts::of(&Instr::Nop),
        };
        chunk.push(e);
        chunk.push(e);
    }

    #[test]
    fn memory_round_trip_and_memop_record() {
        let mut m = machine(
            "start: la r1, v
                    ldq r2, 0(r1)
                    addq r2, 5, r2
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 37",
        );
        let trace = run(&mut m, 100);
        let store = trace.iter().find(|e| e.mem.is_some_and(|m| m.is_store)).unwrap();
        let mo = store.mem.unwrap();
        assert_eq!(mo.old_value, 37);
        assert_eq!(mo.new_value, 42);
        assert!(!mo.is_silent_store());
        let addr = mo.addr;
        assert_eq!(m.mem().read_u(addr, 8), 42);
    }

    #[test]
    fn silent_store_detected() {
        let mut m = machine(
            "start: la r1, v
                    ldq r2, 0(r1)
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 9",
        );
        let trace = run(&mut m, 100);
        let store = trace.iter().find(|e| e.mem.is_some_and(|m| m.is_store)).unwrap();
        assert!(store.mem.unwrap().is_silent_store());
    }

    #[test]
    fn calls_and_returns() {
        let mut m = machine(
            "start: bsr ra, f
                    halt
             f:     lda r5, 7(zero)
                    ret",
        );
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 7);
        let kinds: Vec<_> = trace.iter().filter_map(|e| e.branch.map(|b| b.kind)).collect();
        assert_eq!(kinds, vec![BranchKind::Call, BranchKind::Return]);
    }

    #[test]
    fn trap_event_and_resume() {
        let mut m = machine("start: trap\n lda r1, 1(zero)\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Trap)));
        assert_eq!(m.reg(Reg::gpr(1)), 1, "execution resumed after trap");
    }

    #[test]
    fn app_code_cannot_touch_dise_state() {
        // `d_ret` in conventional code.
        let mut m = machine("start: d_ret\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Error(ExecError::DiseProtection(_)))));

        // ALU naming a DISE register in conventional code.
        let mut m = machine("start: addq dr1, 1, dr1\n halt");
        let trace = run(&mut m, 10);
        assert!(matches!(trace[0].event, Some(Event::Error(ExecError::DiseProtection(_)))));
    }

    /// Install the paper's Fig. 2a naive watchpoint production.
    fn install_fig2a(m: &mut Executor) {
        let dr1 = Reg::dise(1);
        m.engine_mut()
            .install(Production::new(
                "fig2a",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Load {
                        width: Width::Q,
                        rd: dise_engine::TReg::Lit(dr1),
                        base: dise_engine::TReg::Lit(Reg::DAR),
                        disp: dise_engine::TDisp::Lit(0),
                    },
                    TemplateInst::Alu {
                        op: AluOp::CmpEq,
                        rd: dise_engine::TReg::Lit(dr1),
                        ra: dise_engine::TReg::Lit(dr1),
                        rb: dise_engine::TOperand::Reg(dise_engine::TReg::Lit(Reg::DPV)),
                    },
                    TemplateInst::Fixed(Instr::DBr { cond: Cond::Ne, rs: dr1, disp: 1 }),
                    TemplateInst::Fixed(Instr::Trap),
                ],
            ))
            .unwrap();
    }

    #[test]
    fn fig2a_expansion_traps_on_value_change() {
        let mut m = machine(
            "start: la r1, w
                    lda r2, 5(zero)
                    stq r2, 0(r1)       # changes w: should trap
                    halt
             .data
             w: .quad 0",
        );
        let w = 0x0100_0000u64;
        install_fig2a(&mut m);
        m.set_reg(Reg::DAR, w);
        m.set_reg(Reg::DPV, 0); // previous value of w
        let trace = run(&mut m, 100);
        // Expansion: store(disepc1), ldq(2), cmpeq(3), d_bne(4) not taken, trap(5)
        let expanded: Vec<_> = trace.iter().filter(|e| e.disepc > 0).collect();
        assert_eq!(expanded.len(), 5);
        assert!(expanded.iter().all(|e| e.pc == expanded[0].pc), "same trigger PC");
        assert_eq!(expanded[0].disepc, 1);
        assert!(!expanded[1].fetched, "replacement instructions are not fetched");
        assert!(matches!(expanded[4].event, Some(Event::Trap)));
        // DISE branch not taken => no flush on it.
        assert_eq!(expanded[3].flush, None);
    }

    #[test]
    fn fig2a_dise_branch_skips_trap_when_value_unchanged() {
        let mut m = machine(
            "start: la r1, w
                    lda r2, 0(zero)
                    stq r2, 0(r1)       # silent store: w stays 0
                    halt
             .data
             w: .quad 0",
        );
        install_fig2a(&mut m);
        m.set_reg(Reg::DAR, 0x0100_0000);
        m.set_reg(Reg::DPV, 0);
        let trace = run(&mut m, 100);
        assert!(
            !trace.iter().any(|e| matches!(e.event, Some(Event::Trap))),
            "no trap for unchanged value"
        );
        // The taken DISE branch must flush.
        let dbr = trace.iter().find(|e| matches!(e.instr, Instr::DBr { .. })).unwrap();
        assert_eq!(dbr.flush, Some(FlushKind::DiseBranch));
        // 4 replacement instructions executed (trap skipped).
        assert_eq!(trace.iter().filter(|e| e.disepc > 0).count(), 4);
    }

    #[test]
    fn dise_call_runs_function_and_returns() {
        // Production: store => store; d_call (dhdlr). Handler: set r9=1,
        // d_ret. After the call, execution continues after the store.
        let mut m = machine(
            "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    lda r8, 1(zero)    # runs after the expansion finishes
                    halt
             handler:
                    lda r9, 1(zero)
                    d_ret
             .data
             v: .quad 0",
        );
        let handler = {
            // Resolve label: re-assemble to find it.
            let prog = parse_asm(
                "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    lda r8, 1(zero)
                    halt
             handler:
                    lda r9, 1(zero)
                    d_ret
             .data
             v: .quad 0",
            )
            .unwrap()
            .assemble(Layout::default())
            .unwrap();
            prog.symbol("handler").unwrap()
        };
        m.engine_mut()
            .install(Production::new(
                "call",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                ],
            ))
            .unwrap();
        m.set_reg(Reg::DHDLR, handler);
        let trace = run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(9)), 1, "handler ran");
        assert_eq!(m.reg(Reg::gpr(8)), 1, "fall-through after expansion");
        assert_eq!(m.mem().read_u(0x0100_0000, 8), 3, "store retired");
        let flushes: Vec<_> = trace.iter().filter_map(|e| e.flush).collect();
        assert_eq!(flushes, vec![FlushKind::DiseCall, FlushKind::DiseRet]);
        // Handler instructions are conventional fetches inside the call.
        let in_call: Vec<_> = trace.iter().filter(|e| e.in_dise_call).collect();
        assert_eq!(in_call.len(), 2);
        assert!(in_call.iter().all(|e| e.fetched));
    }

    #[test]
    fn dise_disabled_inside_called_function() {
        // The handler itself contains a store; it must NOT re-expand.
        let src = "start: la r1, v
                    lda r2, 3(zero)
                    stq r2, 0(r1)
                    halt
             handler:
                    stq r2, 8(r1)
                    d_ret
             .data
             v: .quad 0
                .quad 0";
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        let handler = prog.symbol("handler").unwrap();
        let mut m = Executor::from_program(&prog, CpuConfig::default());
        m.engine_mut()
            .install(Production::new(
                "call",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                ],
            ))
            .unwrap();
        m.set_reg(Reg::DHDLR, handler);
        let trace = run(&mut m, 100);
        // Exactly one DISE call, not two.
        let calls = trace.iter().filter(|e| e.flush == Some(FlushKind::DiseCall)).count();
        assert_eq!(calls, 1);
        assert_eq!(m.mem().read_u(0x0100_0008, 8), 3, "handler store executed plainly");
    }

    #[test]
    fn ctrap_fires_conditionally() {
        // ctrap in a replacement sequence (Fig. 2b): trap iff value
        // changed (cmpeq result 0).
        let dr1 = Reg::dise(1);
        let prod = Production::new(
            "fig2b",
            Pattern::opclass(OpClass::Store),
            vec![
                TemplateInst::Trigger,
                TemplateInst::Load {
                    width: Width::Q,
                    rd: dise_engine::TReg::Lit(dr1),
                    base: dise_engine::TReg::Lit(Reg::DAR),
                    disp: dise_engine::TDisp::Lit(0),
                },
                TemplateInst::Alu {
                    op: AluOp::CmpEq,
                    rd: dise_engine::TReg::Lit(dr1),
                    ra: dise_engine::TReg::Lit(dr1),
                    rb: dise_engine::TOperand::Reg(dise_engine::TReg::Lit(Reg::DPV)),
                },
                TemplateInst::Fixed(Instr::CTrap { cond: Cond::Eq, rs: dr1 }),
            ],
        );
        let mut m = machine(
            "start: la r1, w
                    lda r2, 5(zero)
                    stq r2, 0(r1)
                    halt
             .data
             w: .quad 0",
        );
        m.engine_mut().install(prod).unwrap();
        m.set_reg(Reg::DAR, 0x0100_0000);
        m.set_reg(Reg::DPV, 0);
        let trace = run(&mut m, 100);
        let traps = trace.iter().filter(|e| matches!(e.event, Some(Event::Trap))).count();
        assert_eq!(traps, 1);
        // No flush anywhere: ctrap avoids the DISE branch.
        assert!(trace.iter().all(|e| e.flush.is_none()));
    }

    /// Run to halt with a cold block cache: `mem_mut` before every step
    /// flushes every block, so each fetch builds a fresh block from
    /// current memory — a plain read, decode and expansion check per
    /// instruction, the reference the warm cache must reproduce.
    fn run_cold(e: &mut Executor, max: u64) -> Vec<Exec> {
        let mut out = Vec::new();
        while !e.is_halted() {
            e.mem_mut();
            out.push(e.step());
            assert!((out.len() as u64) < max, "did not halt in {max} steps");
        }
        out
    }

    #[test]
    fn block_cache_hits_dominate_on_warm_loop() {
        let mut m = machine(
            "start: lda r1, 50(zero)
             loop:  subq r1, 1, r1
                    bgt r1, loop
                    halt",
        );
        run(&mut m, 200);
        let s = m.block_cache_stats();
        assert_eq!(s.hits + s.misses, s.lookups, "every lookup is a hit or a miss");
        // One build each for the blocks at `start` (which runs the
        // first iteration), `loop` and `halt`; the other 48 iterations
        // replay the `loop` block.
        assert_eq!(s.misses, 3, "{s:?}");
        assert_eq!(s.hits, 48, "{s:?}");
        assert_eq!(s.invalidations, 0, "nothing writes code here");
    }

    #[test]
    fn exec_streams_identical_warm_and_cold() {
        // A DISE-expanding loop with a trap: the fused replay must
        // reproduce the cold stream byte for byte, including engine
        // statistics and instruction counts.
        let src = "start: la r1, w
                    lda r9, 3(zero)
             loop:  stq r9, 0(r1)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt
             .data
             w: .quad 0";
        let mk = || {
            let mut m = machine(src);
            install_fig2a(&mut m);
            m.set_reg(Reg::DAR, 0x0100_0000);
            m.set_reg(Reg::DPV, 0);
            m
        };
        let mut cold = mk();
        let mut warm = mk();
        let trace_cold = run_cold(&mut cold, 200);
        let trace_warm = run(&mut warm, 200);
        assert_eq!(trace_cold, trace_warm, "Exec streams must be byte-identical");
        assert_eq!(cold.engine().stats(), warm.engine().stats(), "fused replays count as triggers");
        assert_eq!(cold.instructions(), warm.instructions());
        assert!(warm.block_cache_stats().hits > 0, "the warm run replayed cached blocks");
    }

    /// One subroutine, two ways in: a plain `bsr` (application code,
    /// DISE armed) and the `d_call` of the production its own store
    /// triggers (DISE-called code, disarmed). The two entries at `sub`
    /// must get separate blocks: the store expands when reached by
    /// `bsr` and runs plainly inside the call, warm or cold.
    #[test]
    fn dise_called_code_gets_its_own_disarmed_blocks() {
        let src = "start:  la r1, v
                            lda r2, 5(zero)
                            lda r9, 2(zero)
                    loop:   bsr ra, sub
                            subq r9, 1, r9
                            bgt r9, loop
                            halt
                    sub:    stq r2, 0(r1)
                            bne r8, called
                            ret
                    called: lda r8, 0(zero)
                            d_ret
                    .data
                    v: .quad 0";
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        let sub = prog.symbol("sub").unwrap();
        let mk = || {
            let mut m = Executor::from_program(&prog, CpuConfig::default());
            m.engine_mut()
                .install(Production::new(
                    "call-on-store",
                    Pattern::opclass(OpClass::Store),
                    vec![
                        TemplateInst::Trigger,
                        // Tell `sub` it was entered by the call.
                        TemplateInst::Fixed(Instr::Lda {
                            rd: Reg::gpr(8),
                            base: Reg::ZERO,
                            disp: 1,
                        }),
                        TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                    ],
                ))
                .unwrap();
            m.set_reg(Reg::DHDLR, sub);
            m
        };
        let mut cold = mk();
        let mut warm = mk();
        let reference = run_cold(&mut cold, 200);
        let trace = run(&mut warm, 200);
        assert_eq!(trace, reference, "warm stream == cold stream");
        assert_eq!(warm.engine().stats(), cold.engine().stats());
        assert_eq!(warm.engine().stats(), (2, 6), "one expansion per bsr entry, none in the call");
        let stores: Vec<_> =
            trace.iter().filter(|e| e.pc == sub && e.mem.is_some_and(|m| m.is_store)).collect();
        assert_eq!(stores.len(), 4, "two entries by bsr, two by d_call");
        for pair in stores.chunks(2) {
            assert_eq!((pair[0].disepc, pair[0].in_dise_call), (1, false), "bsr: expanded");
            assert_eq!((pair[1].disepc, pair[1].in_dise_call), (0, true), "d_call: plain");
        }
        let s = warm.block_cache_stats();
        assert!(s.hits >= 2, "the second pass replays both blocks at `sub`: {s:?}");
    }

    /// An undecodable first word halts with `BadInstruction`, in
    /// application code and inside a DISE-called function alike.
    #[test]
    fn undecodable_word_halts_with_bad_instruction() {
        let mut m = machine("start: halt");
        let pc = m.pc();
        m.mem_mut().write_u(pc, 4, 0xFFFF_FFFF);
        let e = m.step();
        assert_eq!(e.event, Some(Event::Error(ExecError::BadInstruction(pc))));
        assert_eq!((e.instr, e.fetched, e.in_dise_call), (Instr::Nop, true, false));
        assert!(m.is_halted());

        let prog = parse_asm("start: la r1, v\n stq r2, 0(r1)\n halt\n .data\n v: .quad 0")
            .unwrap()
            .assemble(Layout::default())
            .unwrap();
        let mut m = Executor::from_program(&prog, CpuConfig::default());
        m.engine_mut()
            .install(Production::new(
                "call",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
                ],
            ))
            .unwrap();
        let handler = 0x4000;
        m.mem_mut().write_u(handler, 4, 0xFFFF_FFFF);
        m.set_reg(Reg::DHDLR, handler);
        let trace = run(&mut m, 100);
        let last = trace.last().unwrap();
        assert_eq!(last.event, Some(Event::Error(ExecError::BadInstruction(handler))));
        assert!(last.in_dise_call && last.fetched);
    }

    /// Jumping to the last word of the address space runs it and wraps
    /// the PC to 0; a call from there links a wrapped return address.
    #[test]
    fn jump_to_the_last_word_wraps_the_pc() {
        let top = u64::MAX - 3;
        let mut m = machine("start: lda r1, -4(zero)\n jmp (r1)");
        m.step();
        assert_eq!(m.step().branch.map(|b| b.target), Some(top));
        let e = m.step();
        assert_eq!((e.pc, e.instr), (top, Instr::Nop), "the zero word at the top is a nop");
        assert_eq!(m.pc(), 0, "the PC wraps past the top");
        assert_eq!(m.step().pc, 0);

        let mut m = machine("start: lda r1, -4(zero)\n jmp (r1)");
        m.mem_mut().write_u(top, 4, dise_isa::encode(&Instr::Br { rd: Reg::RA, disp: 1 }) as u64);
        m.step();
        m.step();
        let e = m.step();
        assert_eq!(e.branch.map(|b| b.target), Some(4), "PC-relative target wraps");
        assert_eq!(m.reg(Reg::RA), 0, "the return address wraps");
        assert_eq!(m.pc(), 4);

        // An unaligned PC whose word itself wraps (bytes `MAX - 1`,
        // `MAX`, 0, 1) runs uncached; no block crosses the top.
        let mut m = machine("start: halt");
        m.set_pc(u64::MAX - 1);
        assert_eq!(m.step().instr, Instr::Nop);
        assert_eq!(m.step().instr, Instr::Nop);
        assert_eq!(m.pc(), 6);
        assert_eq!(m.block_cache_stats().hits, 0, "the wrapping word was never cached");
    }

    #[test]
    fn self_modifying_store_invalidates_decoded_cache() {
        // Pass 1 executes `slot` (caching its decode) and then patches it
        // with `lda r5, 77(zero)`; pass 2 must see the new instruction.
        let patched = dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 });
        let mut m = machine(&format!(
            "start: la r1, slot
                    la r3, patch
                    ldl r2, 0(r3)
                    lda r9, 2(zero)
             slot:  lda r5, 111(zero)
                    subq r9, 1, r9
                    beq r9, done
                    stl r2, 0(r1)      # self-modify: overwrite slot
                    br slot
             done:  halt
             .data
             patch: .quad {patched}"
        ));
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale decode served after self-modification");
    }

    /// Regression for the store-overlap boundary audit: an unaligned
    /// 8-byte store that *starts in the word before* a cached
    /// instruction and straddles into it (and one byte beyond) must
    /// invalidate the cached decode — the invalidation walks every
    /// instruction word the store's byte range overlaps, up to three.
    #[test]
    fn straddling_store_invalidates_decoded_cache_across_word_boundaries() {
        let nop = dise_isa::encode(&Instr::Nop) as u64;
        let patched =
            dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 }) as u64;
        // The stq at `slot - 3` rewrites: the last 3 bytes of the nop
        // word before `slot` (with their original bytes), all 4 bytes of
        // `slot`, and the first byte of the nop word after it (also with
        // its original byte). Only `slot` actually changes.
        let value = (nop >> 8) | (patched << 24) | ((nop & 0xff) << 56);
        let mut m = machine(&format!(
            "start: la r1, slot
                    la r3, patch
                    ldq r2, 0(r3)
                    lda r9, 2(zero)
             loop:  nop
             slot:  lda r5, 111(zero)
                    nop
                    subq r9, 1, r9
                    beq r9, done
                    stq r2, -3(r1)     # straddles into slot's word
                    br loop
             done:  halt
             .data
             patch: .quad {value}"
        ));
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale decode served after boundary-straddling store");
    }

    /// Block-cache counterpart of the straddling-store regression: a
    /// `patch_code` patch (the breakpoint path) landing in the *middle*
    /// of a cached block must invalidate the whole block, not just the
    /// patched word's decode slot — the block is keyed by its entry PC,
    /// which the patch does not touch.
    #[test]
    fn patch_code_invalidates_whole_cached_block() {
        let src = "start: lda r9, 4(zero)
             loop:  nop
             slot:  lda r5, 111(zero)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt";
        let prog = parse_asm(src).unwrap().assemble(Layout::default()).unwrap();
        let slot = prog.symbol("slot").unwrap();
        let mut m = Executor::from_program(&prog, CpuConfig::default());
        // Three loop iterations: the second builds a block keyed at
        // `loop` — with `slot` in its *middle* — and the third replays
        // it from cache.
        for _ in 0..13 {
            m.step();
        }
        assert!(m.block_cache_stats().hits > 0, "the `loop` block replayed from cache");
        m.patch_code(
            slot,
            dise_isa::encode(&Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 77 }),
        );
        assert!(m.block_cache_stats().invalidations > 0, "patch dropped the enclosing block(s)");
        run(&mut m, 100);
        assert_eq!(m.reg(Reg::gpr(5)), 77, "stale block replayed after a mid-block patch");
    }

    /// Cached blocks bake in expansion decisions, so installing a
    /// production through `engine_mut` after a block is warm must drop
    /// it — the store must expand on the next pass.
    #[test]
    fn engine_changes_flush_cached_blocks() {
        let mut m = machine(
            "start: la r1, v
                    lda r9, 2(zero)
             loop:  stq r9, 0(r1)
                    subq r9, 1, r9
                    bgt r9, loop
                    halt
             .data
             v: .quad 0",
        );
        // First iteration: the store's block caches it as a plain step
        // (no productions installed yet).
        for _ in 0..5 {
            m.step();
        }
        m.engine_mut()
            .install(Production::new(
                "pad",
                Pattern::opclass(OpClass::Store),
                vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
            ))
            .unwrap();
        let trace = run(&mut m, 100);
        assert!(
            trace.iter().any(|e| e.disepc > 0),
            "second pass must expand the store after the engine changed"
        );
    }

    #[test]
    fn mem_mut_drops_decoded_cache() {
        let mut m = machine(
            "start: lda r5, 1(zero)
                    halt",
        );
        let first = m.step();
        assert_eq!(first.instr, Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 1 });
        // Patch the next word (the halt) behind the executor's back, as
        // the breakpoint backend does, then re-point the PC at it.
        let pc = m.pc();
        m.mem_mut().write_u(pc, 4, dise_isa::encode(&Instr::Nop) as u64);
        let e = m.step();
        assert_eq!(e.instr, Instr::Nop, "patched word must be re-decoded");
    }

    #[test]
    fn zero_register_discards_writes() {
        let mut m = machine("start: lda r31, 5(zero)\n halt");
        run(&mut m, 10);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn alu_immediate_and_register_forms() {
        let mut m = machine(
            "start: lda r1, 10(zero)
                    addq r1, 5, r2
                    addq r2, r2, r3
                    halt",
        );
        run(&mut m, 10);
        assert_eq!(m.reg(Reg::gpr(2)), 15);
        assert_eq!(m.reg(Reg::gpr(3)), 30);
    }

    #[test]
    fn instruction_count_includes_expansions() {
        let mut m = machine(
            "start: la r1, v
                    stq r2, 0(r1)
                    halt
             .data
             v: .quad 0",
        );
        m.engine_mut()
            .install(Production::new(
                "pad",
                Pattern::opclass(OpClass::Store),
                vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
            ))
            .unwrap();
        run(&mut m, 100);
        // la(2) + store-expansion(2) + halt(1)
        assert_eq!(m.instructions(), 5);
    }

    /// A self-modifying countdown: each iteration stores a changing
    /// value over data *and* patches its own loop body — the worst case
    /// for anything sharing pages or cached decodes across a fork.
    fn self_modifying_src() -> &'static str {
        "start: lda r1, 6(zero)
                la r2, v
                la r3, patch
                ldq r4, 0(r3)
         loop:  stq r1, 0(r2)
         patch: addq r1, 0, r5
                stq r4, 0(r3)      # rewrite the addq with itself... or not
                addq r4, 1, r4     # drift the stored word (stays decodable: imm grows)
                subq r1, 1, r1
                bgt r1, loop
                halt
         .data
         v: .quad 0"
    }

    /// Forked continuation == fresh continuation, byte for byte — even
    /// with self-modifying stores landing on still-shared pages.
    #[test]
    fn fork_is_invisible_mid_run() {
        let src = self_modifying_src();
        let reference = {
            let mut m = machine(src);
            run(&mut m, 1000)
        };
        for fork_at in [0usize, 1, 7, 13, 26] {
            let mut parent = machine(src);
            for _ in 0..fork_at.min(reference.len()) {
                parent.step();
            }
            let mut child = parent.fork();
            assert_eq!(child.pc(), parent.pc());
            assert_eq!(child.instructions(), parent.instructions());
            // The child continues exactly as the unforked run did...
            let tail = run(&mut child, 1000);
            assert_eq!(tail, reference[fork_at.min(reference.len())..], "fork at {fork_at}");
            // ...and so does the parent, whose pages the child wrote.
            let parent_tail = run(&mut parent, 1000);
            assert_eq!(parent_tail, tail, "parent diverged after fork at {fork_at}");
        }
    }

    /// The fork shares pages instead of copying them, and the parent's
    /// memory is untouched by child stores.
    #[test]
    fn fork_shares_memory_copy_on_write() {
        let mut parent = machine(self_modifying_src());
        let resident = parent.mem().resident_pages();
        let mut child = parent.fork();
        assert_eq!(parent.mem().cow_stats().forks, 1);
        assert_eq!(child.mem().cow_stats().pages_shared, resident as u64);
        assert_eq!(child.mem().shared_pages(), resident);
        run(&mut child, 1000);
        let cs = child.mem().cow_stats();
        assert!(cs.pages_copied >= 1, "child stores must unshare pages");
        assert!(cs.pages_copied <= cs.pages_shared, "only shared pages can be copied");
        assert_eq!(
            cs.pages_copied + child.mem().shared_pages() as u64,
            cs.pages_shared,
            "copied + still-shared == shared-at-fork while the parent is idle"
        );
        assert_eq!(parent.mem().cow_stats().pages_copied, 0, "parent never wrote");
    }
}
