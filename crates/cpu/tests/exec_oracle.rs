//! The functional step against a plain reference oracle.
//!
//! Below is the original executor — a `Vec<BlockStep>` per block with
//! the replacement sequence cloned into `Mode` on every trigger, every
//! block step through one generic `execute` with its DISE protection
//! check, and a `HashMap<u64, Arc<Page>>` memory resolving every access
//! (a store twice) — kept verbatim and used only by these tests. The
//! changes are the oracle memory's `write_bytes`, which wraps past
//! `u64::MAX` as every other access does instead of overflowing, and
//! [`load`], `Program::load` retyped for the oracle memory.
//!
//! The properties run random machines under the library executor and
//! the oracle side by side. The programs mix ALU work, loads and
//! stores (sub-quad, unaligned, and wrapping past the top of the
//! address space), self-modifying stores into their own text, branches,
//! calls and indirect jumps, traps, halts, undecodable words and DISE
//! resources used by application code. Their DISE productions fuse
//! replacement sequences with `d_br` (in and out of range), `d_call` /
//! `d_ccall` into a handler that returns with `d_ret`, conventional
//! branches, traps and stray `d_ret`s. Text may sit at the top of the
//! address space so fetch wraps to address 0. A random script drives
//! both machines identically: `step`, `step_chunk` with random
//! capacities, budgets and dirty records, `patch_code` breakpoints,
//! debugger writes through `mem_mut`, `set_pc`, production toggles,
//! mid-run `fork`, and resuming from a saved `clone`. The `Exec`
//! streams, chunk summaries, `instructions()`, `block_cache_stats()`,
//! `engine().stats()`, registers, memory images and `cow_stats()` must
//! be identical for every machine, forked parents included. Tier-1
//! runs a small case count; the `#[ignore]`d sweep runs many more:
//!
//! ```text
//! cargo test --release -p dise-cpu --test exec_oracle -- --include-ignored
//! ```

// The oracle is kept whole, including methods these tests never call.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dise_asm::Program;
use dise_cpu::{
    BlockCacheStats, Branch, BranchKind, CpuConfig, Event, Exec, ExecChunk, ExecError, FlushKind,
    MemOp, MAX_BLOCK_STEPS, NUM_REGS,
};
use dise_engine::{Engine, Pattern, Production, ProductionId, TDisp, TOperand, TReg, TemplateInst};
use dise_isa::{decode, encode, AluOp, Cond, Instr, OpClass, Operand, Reg, Width, INSTR_BYTES};
use dise_mem::{AddrHasher, CowStats, PAGE_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

// ---------------------------------------------------------------------
// The oracle memory: one `HashMap` probe per access.
// ---------------------------------------------------------------------

type Page = [u8; PAGE_SIZE as usize];
type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<AddrHasher>>;

/// An O(page-table) snapshot of a [`Memory`].
///
/// Holds reference-counted pages; restoring never copies page bytes —
/// pages become shared again and unshare lazily on the next write to
/// either side.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pages: PageMap,
}

impl Checkpoint {
    /// Number of pages captured by this checkpoint.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled. Accesses never
/// fault, and addresses wrap at `u64::MAX`.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: PageMap,
    cow: CowStats,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// Read one byte (zero if the page was never written).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&Self::page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Resolve page number `pn` for writing: allocate a zero page on
    /// first touch, unshare (physically copy) a page still shared with
    /// a fork or checkpoint.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        let page = self.pages.entry(pn).or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
        if Arc::strong_count(page) > 1 {
            self.cow.pages_copied += 1;
        }
        Arc::make_mut(page)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self.page_mut(Self::page_of(addr));
        page[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Read `width` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_u(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            return match self.pages.get(&Self::page_of(addr)) {
                Some(p) => {
                    let mut v = 0u64;
                    for i in 0..width as usize {
                        v |= (p[off + i] as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..width {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `width` bytes of `val` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_u(&mut self, addr: u64, width: u64, val: u64) {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            let page = self.page_mut(Self::page_of(addr));
            for i in 0..width as usize {
                page[off + i] = (val >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..width {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Copy a byte slice into memory (loader use).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Per-page chunks: one lookup (and at most one unshare) per
        // page instead of one per byte.
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            let page = self.page_mut(Self::page_of(a));
            page[off..off + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
        }
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        // Per-page chunks: one lookup per page instead of one per byte.
        // Counting bytes rather than comparing against an end address
        // lets a read end exactly at the top of the address space (and
        // wrap past it, as `read_u` does).
        while out.len() < len {
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(len - out.len());
            match self.pages.get(&Self::page_of(a)) {
                Some(p) => out.extend_from_slice(&p[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            a = a.wrapping_add(take as u64);
        }
        out
    }

    /// Number of distinct pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes backed by resident pages (`resident_pages * PAGE_SIZE`).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Pages currently shared with at least one fork or checkpoint.
    ///
    /// O(page-table); intended for tests and ablation reporting, not
    /// hot paths.
    pub fn shared_pages(&self) -> usize {
        self.pages.values().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// Copy-on-write counters for this memory (see [`CowStats`]).
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Fork a copy-on-write child in O(page-table) time.
    ///
    /// The child shares every resident page with `self`; either side
    /// copies a page only when it first writes it. The child starts
    /// with fresh [`CowStats`] (`pages_shared` = resident pages now);
    /// the parent's `forks` counter is bumped and its `pages_shared`
    /// re-anchored to the same value.
    pub fn fork(&mut self) -> Memory {
        let n = self.pages.len() as u64;
        self.cow.forks += 1;
        self.cow.pages_shared = n;
        Memory {
            pages: self.pages.clone(),
            cow: CowStats { pages_shared: n, pages_copied: 0, forks: 0 },
        }
    }

    /// Snapshot the current contents in O(page-table) time without
    /// copying page bytes.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint { pages: self.pages.clone() }
    }

    /// Restore contents from a checkpoint.
    ///
    /// O(page-table): pages become shared with the checkpoint again
    /// and unshare lazily on the next write. `pages_shared` is
    /// re-anchored to the restored page count; `pages_copied` and
    /// `forks` remain lifetime counters.
    pub fn restore(&mut self, ck: &Checkpoint) {
        self.pages = ck.pages.clone();
        self.cow.pages_shared = self.pages.len() as u64;
    }
}

/// `Program::load` into the oracle memory: text word by word, then the
/// data segment.
fn load(prog: &Program, mem: &mut Memory) {
    for (i, word) in prog.text.iter().enumerate() {
        mem.write_u(prog.text_base + i as u64 * INSTR_BYTES, 4, *word as u64);
    }
    mem.write_bytes(prog.data_base, &prog.data);
}

// ---------------------------------------------------------------------
// The oracle executor.
// ---------------------------------------------------------------------

/// Saved resume point for a DISE call: the replacement sequence to
/// re-enter at `⟨trigger_pc : idx⟩`.
#[derive(Clone, Debug)]
struct CallReturn {
    trigger_pc: u64,
    seq: Vec<Instr>,
    idx: usize,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Conventional fetch; DISE expansion armed.
    Normal,
    /// Inside a replacement sequence: executing `seq[idx]` for the
    /// trigger at `trigger_pc`.
    Replacing { trigger_pc: u64, seq: Vec<Instr>, idx: usize },
    /// Inside a DISE-called function: conventional fetch at `pc`, DISE
    /// expansion disabled, with the replacement context saved.
    InCall { ret: CallReturn },
}

/// Granularity of the block invalidation index (power of two). A block
/// covers at most `MAX_BLOCK_STEPS * 4` bytes, so it spans at most two
/// regions.
const BLOCK_REGION_BYTES: u64 = 512;

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

/// One decoded step of a cached block.
#[derive(Clone, Debug)]
enum BlockStep {
    /// A conventionally decoded instruction.
    Plain { pc: u64, instr: Instr },
    /// A DISE trigger with its instantiated replacement sequence fused
    /// in at build time (always a block's last step — a trigger is an
    /// expansion boundary).
    Fused { pc: u64, seq: Vec<Instr> },
}

impl BlockStep {
    fn pc(&self) -> u64 {
        match self {
            BlockStep::Plain { pc, .. } | BlockStep::Fused { pc, .. } => *pc,
        }
    }
}

/// A decoded straight-line trace; its entry PC and mode are the cache
/// key.
#[derive(Clone, Debug)]
struct Block {
    /// Inclusive last byte of the instruction words the block decodes
    /// (`entry ..= last` is the byte range store invalidation tests
    /// against). A cached block never wraps past the top of the
    /// address space, so `entry <= last`.
    last: u64,
    steps: Vec<BlockStep>,
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
    /// bounds-checked index, not a hash probe. Blocks are invalidated
    /// range-wise by overlapping stores and code patches, and flushed
    /// wholesale by [`Executor::mem_mut`] and [`Executor::engine_mut`]
    /// (production changes alter what a block would fuse).
    blocks: Vec<Option<Block>>,
    /// Entry key → arena slot, consulted once per block *entered*.
    block_index: PcMap<BlockKey, u32>,
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
    /// executed. Validated against slot liveness and the current PC
    /// every step, so jumps, invalidations, and rebuilds simply drop
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
        load(prog, &mut e.mem);
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

    /// Read a register (the zero register reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write a register (writes to the zero register are discarded).
    /// The debugger uses this to load DISE registers like
    /// [`Reg::DAR`].
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

    /// After finishing a replacement instruction at `idx`, advance the
    /// sequence or fall back to conventional fetch at `trigger_pc + 4`.
    fn advance_replacement(&mut self, trigger_pc: u64, seq: Vec<Instr>, next_idx: usize) {
        if next_idx >= seq.len() {
            self.mode = Mode::Normal;
            self.pc = trigger_pc.wrapping_add(INSTR_BYTES);
        } else {
            self.mode = Mode::Replacing { trigger_pc, seq, idx: next_idx };
        }
    }

    /// One conventional fetch, served by the block cache: continue the
    /// block under the cursor, or look up / build the block keyed by
    /// `pc` and the fetch mode and execute its first step. An
    /// undecodable word at `pc` halts with
    /// [`ExecError::BadInstruction`].
    fn block_step(&mut self, pc: u64, in_call: bool) -> Exec {
        if let Some((slot, idx)) = self.cursor.take() {
            // Continuation: valid only if the slot is still live and
            // its next step sits exactly at the current PC (branches
            // out, `set_pc`, and invalidations all fail this check).
            // One arena index covers both the check and the fetch; the
            // `Plain` case — the per-instruction hot path — copies the
            // two words straight out and skips the generic replay.
            if let Some(b) = self.blocks[slot as usize].as_ref() {
                match b.steps.get(idx) {
                    Some(&BlockStep::Plain { pc: step_pc, instr }) if step_pc == pc => {
                        if idx + 1 < b.steps.len() {
                            self.cursor = Some((slot, idx + 1));
                        }
                        return self.execute(pc, 0, in_call, instr, true, None);
                    }
                    Some(s @ BlockStep::Fused { .. }) if s.pc() == pc => {
                        let step = s.clone();
                        // A fused step is always a block's last; no
                        // continuation to record.
                        return self.replay(step, None, in_call);
                    }
                    _ => {}
                }
            }
        }
        self.block_stats.lookups += 1;
        let key = BlockKey { pc, in_call };
        if let Some(&slot) = self.block_index.get(&key) {
            self.block_stats.hits += 1;
            let b = self.blocks[slot as usize].as_ref().expect("indexed block slot is live");
            let step = b.steps[0].clone();
            let next = (b.steps.len() > 1).then_some((slot, 1));
            return self.replay(step, next, in_call);
        }
        self.block_stats.misses += 1;
        let Some(block) = self.build_block(pc, in_call) else {
            let mut exec = Exec {
                pc,
                disepc: 0,
                in_dise_call: in_call,
                instr: Instr::Nop,
                fetched: true,
                branch: None,
                mem: None,
                flush: None,
                event: None,
            };
            self.halt_with(&mut exec, ExecError::BadInstruction(pc));
            return exec;
        };
        let step = block.steps[0].clone();
        if block.last < pc {
            // The entry word itself wraps past the top of the address
            // space (an unaligned PC): run it once, uncached.
            return self.replay(step, None, in_call);
        }
        self.index_block(key, block.last);
        let next = (block.steps.len() > 1).then_some(1usize);
        let slot = match self.free_blocks.pop() {
            Some(s) => {
                self.blocks[s as usize] = Some(block);
                s
            }
            None => {
                self.blocks.push(Some(block));
                (self.blocks.len() - 1) as u32
            }
        };
        self.block_index.insert(key, slot);
        self.replay(step, next.map(|i| (slot, i)), in_call)
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
        let mut steps = Vec::new();
        let mut at = entry;
        let mut last = entry;
        while let Ok(instr) = decode(self.mem.read_u(at, 4) as u32) {
            last = at.wrapping_add(INSTR_BYTES - 1);
            let fused = if in_call { None } else { self.engine.peek_expand(at, &instr) };
            let terminal = match fused {
                Some(seq) => {
                    steps.push(BlockStep::Fused { pc: at, seq });
                    true
                }
                None => {
                    steps.push(BlockStep::Plain { pc: at, instr });
                    matches!(
                        instr,
                        Instr::Br { .. }
                            | Instr::CondBr { .. }
                            | Instr::Jmp { .. }
                            | Instr::Halt
                            | Instr::Trap
                    ) || instr.is_dise_only()
                        || instr.touches_dise_regs()
                }
            };
            // Stop before a next word that would wrap past `u64::MAX`,
            // so a block's byte span never crosses the top.
            let next_fits = at.checked_add(2 * INSTR_BYTES - 1).is_some();
            if terminal || steps.len() == MAX_BLOCK_STEPS || !next_fits {
                break;
            }
            at += INSTR_BYTES;
        }
        (!steps.is_empty()).then_some(Block { last, steps })
    }

    /// Execute an already-fetched block step, leaving the cursor at
    /// `next`.
    fn replay(&mut self, step: BlockStep, next: Option<(u32, usize)>, in_call: bool) -> Exec {
        self.cursor = next;
        match step {
            BlockStep::Plain { pc, instr } => self.execute(pc, 0, in_call, instr, true, None),
            BlockStep::Fused { pc, seq } => {
                // The fused sequence was instantiated statistics-free at
                // build time; account for this replay so engine stats
                // count one expansion per executed trigger.
                self.engine.count_expansion(seq.len() as u64);
                let i = seq[0];
                self.execute(pc, 1, false, i, true, Some((pc, seq, 0)))
            }
        }
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
        while n < max && !chunk.is_full() && !self.is_halted() {
            let e = self.step();
            n += 1;
            if dirty(&e) {
                return (n, Some(e));
            }
            chunk.push(e);
        }
        (n, None)
    }

    /// Execute one instruction and report what happened.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step(&mut self) -> Exec {
        assert!(!self.halted, "step() on a halted machine");
        self.instructions += 1;

        // The next replacement instruction, or a conventional fetch
        // (application code or a DISE-called function) from a block.
        match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Replacing { trigger_pc, seq, idx } => {
                let i = seq[idx];
                let repl = Some((trigger_pc, seq, idx));
                self.execute(trigger_pc, (idx + 1) as u16, false, i, false, repl)
            }
            m => {
                let in_call = matches!(m, Mode::InCall { .. });
                self.mode = m;
                self.block_step(self.pc, in_call)
            }
        }
    }

    /// Execute `instr` in the established context.
    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        pc: u64,
        disepc: u16,
        in_call: bool,
        instr: Instr,
        fetched: bool,
        repl: Option<(u64, Vec<Instr>, usize)>,
    ) -> Exec {
        let mut exec = Exec {
            pc,
            disepc,
            in_dise_call: in_call,
            instr,
            fetched,
            branch: None,
            mem: None,
            flush: None,
            event: None,
        };
        let in_replacement = repl.is_some();

        // Protection: conventional application code may not use DISE
        // resources; DISE-called functions access DISE registers only
        // through d_mfr/d_mtr.
        if !in_replacement {
            let legal_in_call = matches!(
                instr,
                Instr::DRet | Instr::DMfr { .. } | Instr::DMtr { .. } | Instr::CTrap { .. }
            );
            let allowed = in_call && legal_in_call;
            if !allowed && (instr.is_dise_only() || instr.touches_dise_regs()) {
                self.halt_with(&mut exec, ExecError::DiseProtection(pc));
                return exec;
            }
        }

        // Helper: where conventional execution resumes if no transfer.
        // (For replacement instructions the sequence index advances
        // instead; `self.pc` is only meaningful outside replacements.)
        let next_pc = self.pc.wrapping_add(INSTR_BYTES);

        // `advance`: what to do after a non-transfer instruction.
        macro_rules! advance {
            () => {
                match repl {
                    Some((tpc, seq, idx)) => self.advance_replacement(tpc, seq, idx + 1),
                    None => self.pc = next_pc,
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
                let old = self.mem.read_u(addr, w);
                let new = self.reg(rs) & width_mask(w);
                self.mem.write_u(addr, w, new);
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
                if in_replacement {
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
                    if in_replacement {
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
                if in_replacement {
                    exec.flush = Some(FlushKind::ReplacementBranch);
                    self.mode = Mode::Normal;
                }
                self.pc = target;
            }
            Instr::DBr { cond, rs, disp } => {
                let (tpc, seq, idx) = repl.expect("DBr only in replacement");
                if cond.holds(self.reg(rs)) {
                    exec.flush = Some(FlushKind::DiseBranch);
                    let next = idx as i64 + 1 + disp as i64;
                    if next < 0 || next as usize > seq.len() {
                        self.halt_with(&mut exec, ExecError::DiseBranchOutOfSequence(pc));
                        return exec;
                    }
                    self.advance_replacement(tpc, seq, next as usize);
                } else {
                    self.advance_replacement(tpc, seq, idx + 1);
                }
            }
            Instr::DCall { target } | Instr::DCCall { target, .. } => {
                let taken = match instr {
                    Instr::DCCall { cond, rs, .. } => cond.holds(self.reg(rs)),
                    _ => true,
                };
                let (tpc, seq, idx) = repl.expect("DISE call only in replacement");
                if taken {
                    if in_call {
                        self.halt_with(&mut exec, ExecError::NestedDiseCall(pc));
                        return exec;
                    }
                    exec.flush = Some(FlushKind::DiseCall);
                    let callee = self.reg(target);
                    self.mode =
                        Mode::InCall { ret: CallReturn { trigger_pc: tpc, seq, idx: idx + 1 } };
                    self.pc = callee;
                } else {
                    self.advance_replacement(tpc, seq, idx + 1);
                }
            }
            Instr::DRet => match std::mem::replace(&mut self.mode, Mode::Normal) {
                Mode::InCall { ret } => {
                    exec.flush = Some(FlushKind::DiseRet);
                    self.advance_replacement(ret.trigger_pc, ret.seq, ret.idx);
                }
                _ => {
                    self.halt_with(&mut exec, ExecError::StrayDiseReturn(pc));
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
        exec
    }
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

// ---------------------------------------------------------------------
// Random machines.
// ---------------------------------------------------------------------

/// SplitMix64: every random choice of a case comes from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Initialised data: the target of most loads and stores.
const DATA: u64 = 0x0100_0000;
const DATA_BYTES: usize = 512;
/// The DISE-called handler, in page 0.
const HANDLER: u64 = 0x800;
/// Text base unless the case puts its text at the top of memory.
const TEXT: u64 = 0x1000;
/// Base of the accesses that wrap past `u64::MAX` into page 0.
const TOP: u64 = u64::MAX - 3;

/// Register roles: r1–r8 are the working set; the rest hold bases.
const R_WORD: Reg = Reg::gpr(9);
const R_DATA: Reg = Reg::gpr(10);
const R_TEXT: Reg = Reg::gpr(11);
const R_TOP: Reg = Reg::gpr(12);
const R_JUMP: Reg = Reg::gpr(13);

fn work(rng: &mut Rng) -> Reg {
    Reg::gpr(1 + rng.below(8) as u8)
}

fn dest(rng: &mut Rng) -> Reg {
    if rng.chance(5) {
        Reg::ZERO
    } else {
        work(rng)
    }
}

/// A memory operand: mostly the data segment, sometimes wrapping past
/// the top, the program's own text (self-modifying code), the stack,
/// or wherever a working register points.
fn mem_operand(rng: &mut Rng, text_words: usize) -> (Reg, i16) {
    match rng.below(100) {
        0..=64 => (R_DATA, rng.range(0, DATA_BYTES as i64 - 1) as i16),
        65..=76 => (R_TOP, rng.range(-8, 8) as i16),
        77..=86 => (R_TEXT, rng.range(-1, 4 * text_words as i64) as i16),
        87..=93 => (Reg::SP, rng.range(-64, 64) as i16),
        _ => (work(rng), rng.range(-16, 16) as i16),
    }
}

/// Application code: ordinary instructions with a sprinkling of
/// everything that ends or breaks a block.
fn gen_instr(rng: &mut Rng, text_words: usize) -> Instr {
    match rng.below(100) {
        0..=25 | 93.. => Instr::Alu {
            op: rng.pick(&AluOp::ALL),
            rd: dest(rng),
            ra: work(rng),
            rb: if rng.chance(50) {
                Operand::Reg(work(rng))
            } else {
                Operand::Imm(rng.below(256) as u8)
            },
        },
        26..=31 => Instr::Lda {
            rd: dest(rng),
            base: if rng.chance(70) { work(rng) } else { Reg::ZERO },
            disp: rng.range(-64, 64) as i16,
        },
        32..=33 => Instr::Ldah { rd: dest(rng), base: work(rng), disp: rng.range(-2, 2) as i16 },
        34..=47 => {
            let (base, disp) = mem_operand(rng, text_words);
            Instr::Load { width: rng.pick(&Width::ALL), rd: dest(rng), base, disp }
        }
        48..=63 => {
            let (base, disp) = mem_operand(rng, text_words);
            let rs = if base == R_TEXT && rng.chance(70) { R_WORD } else { work(rng) };
            Instr::Store { width: rng.pick(&Width::ALL), rs, base, disp }
        }
        64..=75 => Instr::CondBr {
            cond: rng.pick(&Cond::ALL),
            rs: work(rng),
            disp: rng.range(-6, 6) as i32,
        },
        76..=78 => Instr::Br { rd: rng.pick(&[Reg::ZERO, Reg::RA]), disp: rng.range(-6, 6) as i32 },
        79..=81 => {
            Instr::Jmp { rd: rng.pick(&[Reg::ZERO, Reg::RA]), base: rng.pick(&[R_JUMP, Reg::RA]) }
        }
        82..=84 => Instr::Trap,
        85 => Instr::Halt,
        86 => Instr::Codeword(rng.below(8) as u16),
        87..=91 => Instr::Nop,
        // DISE resources in application code: protection faults.
        92 => rng.pick(&[
            Instr::DRet,
            Instr::DMfr { rd: Reg::gpr(1), dr: Reg::dise(1) },
            Instr::CTrap { cond: Cond::Eq, rs: Reg::gpr(2) },
            Instr::Alu { op: AluOp::Add, rd: Reg::dise(2), ra: Reg::gpr(1), rb: Operand::Imm(1) },
        ]),
    }
}

/// One word of application code: an instruction, or (rarely) a word
/// that does not decode.
fn gen_word(rng: &mut Rng, text_words: usize) -> u32 {
    if rng.chance(1) {
        u32::MAX
    } else {
        encode(&gen_instr(rng, text_words))
    }
}

/// A DISE production over stores, loads, ALU operations or one PC,
/// whose replacement mixes the trigger with DISE-register arithmetic,
/// the watched-value check, DISE branches (some out of range), DISE
/// calls, traps, conventional branches and stray `d_ret`s.
fn gen_production(rng: &mut Rng, n: usize, text_pcs: &[u64]) -> Production {
    let pattern = match rng.below(6) {
        0..=2 => Pattern::opclass(OpClass::Store),
        3 => Pattern::opclass(OpClass::Load),
        4 => Pattern::opclass(OpClass::Alu),
        _ => Pattern::at_pc(rng.pick(text_pcs)),
    };
    let (d1, d2, d3) = (Reg::dise(1), Reg::dise(2), Reg::dise(3));
    let mut seq = Vec::new();
    if rng.chance(90) {
        seq.push(TemplateInst::Trigger);
    }
    for _ in 0..rng.range(1, 4) {
        seq.push(match rng.below(13) {
            0 => TemplateInst::Fixed(Instr::Nop),
            1 => TemplateInst::Alu {
                op: AluOp::Add,
                rd: TReg::Lit(d1),
                ra: TReg::Lit(d1),
                rb: TOperand::Imm(1),
            },
            2 => TemplateInst::Load {
                width: Width::Q,
                rd: TReg::Lit(d2),
                base: TReg::Lit(Reg::DAR),
                disp: TDisp::Lit(0),
            },
            3 => TemplateInst::Alu {
                op: AluOp::CmpEq,
                rd: TReg::Lit(d3),
                ra: TReg::Lit(d2),
                rb: TOperand::Reg(TReg::Lit(Reg::DPV)),
            },
            4 => TemplateInst::Fixed(Instr::DBr {
                cond: rng.pick(&Cond::ALL),
                rs: d3,
                disp: if rng.chance(10) { rng.pick(&[-3, 9]) } else { rng.range(0, 2) as i8 },
            }),
            5 => TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
            6 => TemplateInst::Fixed(Instr::DCCall {
                cond: rng.pick(&Cond::ALL),
                rs: d3,
                target: Reg::DHDLR,
            }),
            7 => TemplateInst::Fixed(Instr::CTrap { cond: rng.pick(&Cond::ALL), rs: d3 }),
            8 => TemplateInst::Fixed(Instr::Trap),
            9 => TemplateInst::Fixed(Instr::CondBr {
                cond: rng.pick(&Cond::ALL),
                rs: d3,
                disp: rng.range(-4, 4) as i32,
            }),
            10 => TemplateInst::Lda { rd: TReg::Lit(d1), base: TReg::Rs1, disp: TDisp::Imm },
            11 => TemplateInst::Store {
                width: Width::L,
                rs: TReg::Lit(d1),
                base: TReg::Lit(Reg::DAR),
                disp: TDisp::Lit(8),
            },
            _ if rng.chance(30) => TemplateInst::Fixed(Instr::DRet),
            _ => TemplateInst::Fixed(Instr::Nop),
        });
    }
    Production::new(&format!("p{n}"), pattern, seq)
}

/// The DISE-called handler: a few ordinary instructions and DISE
/// register moves, usually ended by `d_ret`.
fn gen_handler(rng: &mut Rng) -> Vec<u32> {
    let mut words = Vec::new();
    for _ in 0..rng.range(0, 4) {
        let i = match rng.below(5) {
            0 => Instr::DMfr { rd: work(rng), dr: Reg::dise(1) },
            1 => Instr::DMtr { dr: Reg::dise(2), rs: work(rng) },
            2 => Instr::Store {
                width: Width::Q,
                rs: work(rng),
                base: R_DATA,
                disp: 8 * rng.range(0, 8) as i16,
            },
            _ => Instr::Alu { op: AluOp::Add, rd: work(rng), ra: work(rng), rb: Operand::Imm(3) },
        };
        words.push(encode(&i));
    }
    if rng.chance(92) {
        words.push(encode(&Instr::DRet));
    }
    words
}

/// What the script does to both machines between runs.
#[derive(Clone, Debug)]
enum Op {
    /// `step` up to this many times.
    Steps(u32),
    /// One `step_chunk` call; every `dirty_every`-th record is claimed
    /// dirty (0: none).
    Chunk { cap: usize, max: u64, dirty_every: u64 },
    /// `patch_code` (a breakpoint planted or lifted).
    Patch { addr: u64, word: u32 },
    /// A debugger write through `mem_mut`.
    Poke { addr: u64, width: u64, val: u64 },
    /// A debugger jump.
    SetPc(u64),
    /// `engine_mut().set_active` on one installed production.
    Toggle { production: usize, active: bool },
    /// Continue with a `fork`ed child; the parent runs to the end later.
    Fork,
    /// Save a `clone` of both machines.
    Checkpoint,
    /// Resume both machines from the saved clones, which must re-execute
    /// byte-identically.
    Restore,
}

/// One generated case: the image, the initial registers, the DISE
/// productions and the script.
#[derive(Debug)]
struct Case {
    text_base: u64,
    text: Vec<u32>,
    handler: Vec<u32>,
    /// Code at address 0 that branches back to the text, when the text
    /// ends at the top of the address space.
    low: Vec<u32>,
    data: Vec<u8>,
    regs: Vec<(Reg, u64)>,
    productions: Vec<Production>,
    script: Vec<Op>,
    /// Instructions each machine may execute in total.
    budget: u64,
}

fn gen_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let len = rng.range(4, 40) as usize;
    let at_top = rng.chance(15);
    let text_base = if at_top { 0u64.wrapping_sub(4 * len as u64) } else { TEXT };
    let text: Vec<u32> = (0..len).map(|_| gen_word(&mut rng, len)).collect();
    let text_pcs: Vec<u64> =
        (0..len as u64).map(|i| text_base.wrapping_add(INSTR_BYTES * i)).collect();
    let low = if at_top {
        let mut low: Vec<u32> = (0..rng.range(0, 4)).map(|_| gen_word(&mut rng, len)).collect();
        // br back to the text: target = pc + 4 + 4 * disp.
        let disp = -(len as i32 + low.len() as i32 + 1);
        low.push(encode(&Instr::Br { rd: Reg::ZERO, disp }));
        low
    } else {
        Vec::new()
    };
    let handler = gen_handler(&mut rng);
    let data: Vec<u8> = (0..DATA_BYTES).map(|_| rng.below(256) as u8).collect();
    let word =
        Instr::Alu { op: AluOp::Add, rd: work(&mut rng), ra: work(&mut rng), rb: Operand::Imm(7) };
    let mut regs = vec![
        (R_WORD, encode(&word) as u64),
        (R_DATA, DATA),
        (R_TEXT, text_base),
        (R_TOP, TOP),
        (R_JUMP, rng.pick(&text_pcs)),
        (Reg::RA, rng.pick(&text_pcs)),
        (Reg::SP, DATA + 0x400),
        (Reg::DAR, DATA + 8 * rng.below(8)),
        (Reg::DPV, rng.below(4)),
        (Reg::DHDLR, HANDLER),
    ];
    for i in 1..=8 {
        let v = if rng.chance(80) { rng.below(12) } else { rng.next() };
        regs.push((Reg::gpr(i), v));
    }
    let productions =
        (0..rng.below(3) as usize).map(|n| gen_production(&mut rng, n, &text_pcs)).collect();
    let mut script = Vec::new();
    for _ in 0..rng.range(2, 10) {
        script.push(match rng.below(100) {
            0..=24 => Op::Steps(rng.range(1, 60) as u32),
            25..=59 => Op::Chunk {
                cap: rng.range(1, MAX_BLOCK_STEPS as i64) as usize,
                max: rng.range(1, 300) as u64,
                dirty_every: rng.pick(&[0, 0, 1, 2, 3, 7, 20]),
            },
            60..=69 => Op::Patch {
                addr: rng.pick(&text_pcs),
                word: if rng.chance(60) { encode(&Instr::Trap) } else { gen_word(&mut rng, len) },
            },
            70..=72 => Op::Poke {
                addr: match rng.below(3) {
                    0 => rng.pick(&text_pcs),
                    1 => DATA + rng.below(DATA_BYTES as u64),
                    _ => TOP,
                },
                width: rng.pick(&[1, 2, 4, 8]),
                val: if rng.chance(50) { gen_word(&mut rng, len) as u64 } else { rng.next() },
            },
            73..=75 => Op::SetPc(match rng.below(4) {
                0 => u64::MAX - 1,
                1 => HANDLER,
                _ => rng.pick(&text_pcs),
            }),
            76..=79 => Op::Toggle { production: rng.below(2) as usize, active: rng.chance(50) },
            80..=87 => Op::Fork,
            88..=93 => Op::Checkpoint,
            _ => Op::Restore,
        });
    }
    Case {
        text_base,
        text,
        handler,
        low,
        data,
        regs,
        productions,
        script,
        budget: rng.range(200, 3000) as u64,
    }
}

/// The library executor and the oracle, driven in lockstep.
struct Pair {
    new: dise_cpu::Executor,
    old: Executor,
    /// Instructions left before the case's budget ends the run.
    budget: u64,
}

fn build(case: &Case) -> (Pair, Vec<(ProductionId, ProductionId)>) {
    let mut new = dise_cpu::Executor::new(CpuConfig::default());
    let mut old = Executor::new(CpuConfig::default());
    let words = |base: u64, words: &[u32]| -> Vec<(u64, u32)> {
        words.iter().enumerate().map(|(i, &w)| (base.wrapping_add(4 * i as u64), w)).collect()
    };
    let mut image = words(case.text_base, &case.text);
    image.extend(words(0, &case.low));
    image.extend(words(HANDLER, &case.handler));
    for (addr, w) in image {
        new.mem_mut().write_u(addr, 4, w as u64);
        old.mem_mut().write_u(addr, 4, w as u64);
    }
    new.mem_mut().write_bytes(DATA, &case.data);
    old.mem_mut().write_bytes(DATA, &case.data);
    for &(r, v) in &case.regs {
        new.set_reg(r, v);
        old.set_reg(r, v);
    }
    new.set_pc(case.text_base);
    old.set_pc(case.text_base);
    // Install on both; a production the engine rejects is rejected on
    // both.
    let installed = case
        .productions
        .iter()
        .filter_map(|p| {
            let a = new.engine_mut().install(p.clone());
            let b = old.engine_mut().install(p.clone());
            assert_eq!(a.is_ok(), b.is_ok(), "same engine, same verdict");
            Some((a.ok()?, b.ok()?))
        })
        .collect();
    (Pair { new, old, budget: case.budget }, installed)
}

/// Pages whose bytes the final comparison reads: the image, the top
/// page, and every page a store touched.
fn image_pages(case: &Case) -> BTreeSet<u64> {
    // Page 0 holds the handler (and the low code), the data page holds
    // the stack too.
    let mut pages: BTreeSet<u64> = [0, u64::MAX / PAGE_SIZE, DATA / PAGE_SIZE].into();
    for i in 0..case.text.len() as u64 {
        pages.insert(case.text_base.wrapping_add(4 * i) / PAGE_SIZE);
    }
    pages
}

fn note_stores(records: &[Exec], pages: &mut BTreeSet<u64>) {
    for e in records {
        if let Some(m) = e.mem.filter(|m| m.is_store) {
            pages.insert(m.addr / PAGE_SIZE);
            pages.insert(m.addr.wrapping_add(m.width - 1) / PAGE_SIZE);
        }
    }
}

/// Every observable of the two machines, compared.
fn assert_same_state(p: &Pair, pages: &BTreeSet<u64>, what: &str) -> Result<(), TestCaseError> {
    let (n, o) = (&p.new, &p.old);
    prop_assert_eq!(n.instructions(), o.instructions(), "instructions {}", what);
    prop_assert_eq!(n.pc(), o.pc(), "pc {}", what);
    prop_assert_eq!(n.is_halted(), o.is_halted(), "halted {}", what);
    for i in 0..NUM_REGS as u8 {
        let r = Reg::from_index(i).expect("register index");
        prop_assert_eq!(n.reg(r), o.reg(r), "{:?} {}", r, what);
    }
    prop_assert_eq!(n.block_cache_stats(), o.block_cache_stats(), "block stats {}", what);
    prop_assert_eq!(n.engine().stats(), o.engine().stats(), "engine stats {}", what);
    let (nm, om) = (n.mem(), o.mem());
    prop_assert_eq!(nm.cow_stats(), om.cow_stats(), "cow stats {}", what);
    prop_assert_eq!(nm.resident_pages(), om.resident_pages(), "resident pages {}", what);
    prop_assert_eq!(nm.shared_pages(), om.shared_pages(), "shared pages {}", what);
    for &page in pages {
        let base = page * PAGE_SIZE;
        prop_assert!(
            nm.read_bytes(base, PAGE_SIZE as usize) == om.read_bytes(base, PAGE_SIZE as usize),
            "page {:#x} differs {}",
            base,
            what
        );
    }
    Ok(())
}

/// A dirty predicate claiming every `every`-th record (never for 0).
fn every(every: u64) -> impl FnMut(&Exec) -> bool {
    let mut seen = 0u64;
    move |_| {
        seen += 1;
        every != 0 && seen.is_multiple_of(every)
    }
}

/// `step_chunk` on both machines with the same capacity, budget and
/// dirty pattern: the same count, buffered records, summary and
/// handed-back record.
fn chunk_both(
    p: &mut Pair,
    cap: usize,
    max: u64,
    dirty_every: u64,
    pages: &mut BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    let max = max.min(p.budget);
    if p.new.is_halted() || max == 0 {
        return Ok(());
    }
    let (mut cn, mut co) = (ExecChunk::with_capacity(cap), ExecChunk::with_capacity(cap));
    let (sn, dn) = p.new.step_chunk(&mut cn, max, every(dirty_every));
    let (so, d_o) = p.old.step_chunk(&mut co, max, every(dirty_every));
    prop_assert_eq!(sn, so, "records stepped");
    prop_assert_eq!(cn.records(), co.records(), "buffered records");
    prop_assert_eq!(cn.summary(), co.summary(), "chunk summary");
    prop_assert_eq!(dn, d_o, "handed-back record");
    note_stores(cn.records(), pages);
    note_stores(dn.as_slice(), pages);
    p.budget -= sn;
    Ok(())
}

/// Run both machines to their halt or the budget, a chunk at a time.
fn finish(p: &mut Pair, pages: &mut BTreeSet<u64>) -> Result<(), TestCaseError> {
    while !p.new.is_halted() && p.budget > 0 {
        chunk_both(p, MAX_BLOCK_STEPS, u64::MAX, 0, pages)?;
    }
    Ok(())
}

/// Build the case on both executors, play its script, run every machine
/// (forked parents included) to the end and compare everything.
fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let (mut p, installed) = build(case);
    let mut pages = image_pages(case);
    let mut parents: Vec<Pair> = Vec::new();
    let mut saved = None;
    assert_same_state(&p, &pages, "after loading")?;
    for (i, op) in case.script.iter().enumerate() {
        let what = format!("after script op {i} {op:?}");
        match *op {
            Op::Steps(n) => {
                for _ in 0..n {
                    if p.new.is_halted() || p.budget == 0 {
                        break;
                    }
                    let (en, eo) = (p.new.step(), p.old.step());
                    prop_assert_eq!(en, eo, "step {}", what);
                    note_stores(&[en], &mut pages);
                    p.budget -= 1;
                }
            }
            Op::Chunk { cap, max, dirty_every } => {
                chunk_both(&mut p, cap, max, dirty_every, &mut pages)?;
            }
            Op::Patch { addr, word } => {
                p.new.patch_code(addr, word);
                p.old.patch_code(addr, word);
            }
            Op::Poke { addr, width, val } => {
                p.new.mem_mut().write_u(addr, width, val);
                p.old.mem_mut().write_u(addr, width, val);
                pages.insert(addr / PAGE_SIZE);
                pages.insert(addr.wrapping_add(width - 1) / PAGE_SIZE);
            }
            Op::SetPc(pc) => {
                p.new.set_pc(pc);
                p.old.set_pc(pc);
            }
            Op::Toggle { production, active } => {
                if let Some(&(n, o)) = installed.get(production) {
                    p.new.engine_mut().set_active(n, active);
                    p.old.engine_mut().set_active(o, active);
                }
            }
            Op::Fork => {
                let child = Pair { new: p.new.fork(), old: p.old.fork(), budget: p.budget };
                parents.push(std::mem::replace(&mut p, child));
            }
            Op::Checkpoint => saved = Some((p.new.clone(), p.old.clone(), p.budget)),
            Op::Restore => {
                if let Some((n, o, budget)) = &saved {
                    p.new = n.clone();
                    p.old = o.clone();
                    p.budget = *budget;
                }
            }
        }
        assert_same_state(&p, &pages, &what)?;
    }
    finish(&mut p, &mut pages)?;
    assert_same_state(&p, &pages, "at the end")?;
    for (i, mut parent) in parents.into_iter().enumerate() {
        finish(&mut parent, &mut pages)?;
        assert_same_state(&parent, &pages, &format!("at the end of forked parent {i}"))?;
    }
    Ok(())
}

/// The six kernels, optionally under a DISE watchpoint-style store
/// production, stepped a chunk at a time by both executors (with a
/// fork part-way): identical streams, block-cache counters, engine
/// statistics and copy-on-write counters.
fn check_kernels(iters: u32) {
    for w in dise_workloads::all(iters) {
        let prog = w.app().program().expect("kernel assembles");
        for watched in [false, true] {
            let mut new = dise_cpu::Executor::from_program(&prog, CpuConfig::default());
            let mut old = Executor::from_program(&prog, CpuConfig::default());
            if watched {
                let prod = Production::new(
                    "watch",
                    Pattern::opclass(OpClass::Store),
                    vec![
                        TemplateInst::Trigger,
                        TemplateInst::Load {
                            width: Width::Q,
                            rd: TReg::Lit(Reg::dise(1)),
                            base: TReg::Lit(Reg::DAR),
                            disp: TDisp::Lit(0),
                        },
                        TemplateInst::Alu {
                            op: AluOp::CmpEq,
                            rd: TReg::Lit(Reg::dise(1)),
                            ra: TReg::Lit(Reg::dise(1)),
                            rb: TOperand::Reg(TReg::Lit(Reg::DPV)),
                        },
                        TemplateInst::Fixed(Instr::DBr {
                            cond: Cond::Ne,
                            rs: Reg::dise(1),
                            disp: 1,
                        }),
                        TemplateInst::Fixed(Instr::Trap),
                    ],
                );
                new.engine_mut().install(prod.clone()).unwrap();
                old.engine_mut().install(prod).unwrap();
                new.set_reg(Reg::DAR, prog.data_base);
                old.set_reg(Reg::DAR, prog.data_base);
            }
            let mut p = Pair { new, old, budget: u64::MAX };
            let mut pages: BTreeSet<u64> = BTreeSet::new();
            for _ in 0..100 {
                chunk_both(&mut p, MAX_BLOCK_STEPS, u64::MAX, 0, &mut pages).unwrap();
            }
            let mut parent = Pair { new: p.new.fork(), old: p.old.fork(), budget: u64::MAX };
            finish(&mut p, &mut pages).unwrap();
            finish(&mut parent, &mut pages).unwrap();
            for m in [&p, &parent] {
                assert!(m.new.is_halted(), "{} ran to its halt", w.name());
                assert_same_state(m, &pages, w.name()).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executor_matches_oracle(seed: u64) {
        check_case(&gen_case(seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16000))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn executor_matches_oracle_sweep(seed: u64) {
        check_case(&gen_case(seed))?;
    }
}

#[test]
fn kernels_match_oracle() {
    check_kernels(10);
}

#[test]
#[ignore = "benchmark scale; run with --include-ignored"]
fn kernels_match_oracle_at_benchmark_scale() {
    check_kernels(100);
}
