//! The timing layer against a plain reference oracle.
//!
//! Below is the original, straightforward implementation of the timing
//! model — per-set `Vec` caches, `%`-indexed predictor tables, a
//! `Vec`-backed return stack, `VecDeque` windows, fixed 128K-slot usage
//! tables and a never-pruned store-dependence map — kept here verbatim
//! and used only by these tests. The one change is [`quads`], which
//! widens addresses to 128 bits so that accesses wrapping past
//! `u64::MAX` name both quadwords they touch instead of overflowing.
//!
//! The properties drive random `Exec` streams (sub-quad, straddling and
//! wrapping loads and stores; conditional, indirect, call and return
//! branches; every `FlushKind`; unfetched replacement records;
//! interleaved debugger stalls) through the library model and the
//! oracle under random `CpuConfig`s, and require bit-identical commit
//! cycles, `RunStats`, cache/TLB statistics and predictor counters,
//! including for a `TimingBatch` cloned mid-stream and for batches
//! whose configurations differ only in their transition cost, on both
//! sides of the bound above which such configurations share one model.
//! Tier-1 runs a small
//! case count; the `#[ignore]`d sweep runs many more:
//!
//! ```text
//! cargo test --release -p dise-cpu --test timing_oracle -- --include-ignored
//! ```

// The oracle is kept whole, including methods these tests never call.
#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use dise_cpu::{
    BpredConfig, Branch, BranchKind, CpuConfig, Exec, FlushKind, InstrFacts, MemOp, RunStats,
    TimingBatch, NUM_REGS,
};
use dise_isa::{AluOp, Cond, Instr, Operand, Reg, Width};
use dise_mem::{AddrHasher, CacheConfig, CacheStats, MemConfig, PAGE_SIZE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The quadwords an access touches, found by widening to 128 bits: the
/// executor's addresses wrap, so bytes past `u64::MAX` land at 0.
fn quads(m: &MemOp) -> Vec<u64> {
    let first = u128::from(m.addr) / 8;
    let last = (u128::from(m.addr) + u128::from(m.width) - 1) / 8;
    (first..=last).map(|q| (q % (1 << 61)) as u64).collect()
}

/// A set-associative cache with true-LRU replacement.
///
/// Only tags are modeled (data lives in `dise_mem::Memory`); the cache
/// answers hit/miss and maintains its own state, which is all the timing
/// model needs.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `assoc` tags in LRU order (front = MRU).
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry does
    /// not divide evenly into sets.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line.is_power_of_two(), "line size must be a power of two");
        assert!(config.assoc >= 1, "associativity must be at least 1");
        let sets = config.sets();
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two (size/line/assoc mismatch)"
        );
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.assoc); sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.config.line;
        let set = (line_addr % self.config.sets()) as usize;
        (set, line_addr)
    }

    /// Access the line containing `addr`; returns `true` on hit.
    /// Misses allocate (write-allocate policy for stores too).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            self.stats.misses += 1;
            if ways.len() == self.config.assoc {
                ways.pop();
            }
            ways.insert(0, tag);
            false
        }
    }

    /// Probe without updating LRU state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].contains(&tag)
    }

    /// Drop every line (e.g. between experiment runs).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// A TLB: a set-associative tag store over virtual page numbers.
#[derive(Clone, Debug)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// A TLB with `entries` total entries and the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of `assoc`.
    pub fn new(entries: u64, assoc: usize) -> Tlb {
        // Reuse the cache structure with one "byte" per page: a line size
        // of 1 over the page-number space.
        Tlb { inner: Cache::new(CacheConfig { size: entries, assoc, line: 1 }) }
    }

    /// The paper's configuration: 64 entries, 4-way.
    pub fn paper_default() -> Tlb {
        Tlb::new(64, 4)
    }

    /// Look up the page containing byte address `addr`; returns `true` on
    /// hit and fills on miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr / PAGE_SIZE)
    }

    /// Probe without side effects.
    pub fn contains(&self, addr: u64) -> bool {
        self.inner.contains(addr / PAGE_SIZE)
    }

    /// Invalidate all entries.
    pub fn flush(&mut self) {
        self.inner.flush();
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// The instruction-side and data-side cache/TLB hierarchy.
///
/// [`MemSystem::inst_fetch`] and [`MemSystem::data_access`] return the
/// access latency in cycles and update all structures.
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
}

impl MemSystem {
    /// Build an empty hierarchy.
    pub fn new(config: MemConfig) -> MemSystem {
        MemSystem {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.tlb_entries, config.tlb_assoc),
            dtlb: Tlb::new(config.tlb_entries, config.tlb_assoc),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Fetch the instruction line containing `addr`; returns the latency
    /// in cycles (1 on an L1I + ITLB hit).
    pub fn inst_fetch(&mut self, addr: u64) -> u64 {
        let mut lat = 1; // L1I hit is pipelined into fetch
        if !self.itlb.access(addr) {
            lat += self.config.tlb_miss_penalty;
        }
        if !self.l1i.access(addr) {
            lat +=
                if self.l2.access(addr) { self.config.l2_latency } else { self.config.mem_latency };
        }
        lat
    }

    /// Access data at `addr`; returns the latency in cycles
    /// (`l1_latency` on an L1D + DTLB hit). `write` selects store
    /// accesses, which allocate like loads (write-allocate).
    pub fn data_access(&mut self, addr: u64, write: bool) -> u64 {
        let _ = write; // policy is identical; kept for interface clarity
        let mut lat = self.config.l1_latency;
        if !self.dtlb.access(addr) {
            lat += self.config.tlb_miss_penalty;
        }
        if !self.l1d.access(addr) {
            lat +=
                if self.l2.access(addr) { self.config.l2_latency } else { self.config.mem_latency };
        }
        lat
    }

    /// Statistics: `(l1i, l1d, l2, itlb, dtlb)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats(), self.itlb.stats(), self.dtlb.stats())
    }

    /// Empty every cache and TLB (between experiments).
    pub fn flush_all(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.itlb.flush();
        self.dtlb.flush();
    }
}

/// Outcome counters: 2-bit saturating, initialised weakly not-taken.
#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// A hybrid (bimodal + gshare with a chooser) direction predictor, a
/// tagged direct-mapped BTB for indirect targets, and a return-address
/// stack.
#[derive(Clone, Debug)]
pub struct Predictor {
    config: BpredConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    btb: Vec<Option<(u64, u64)>>, // (tag=pc, target)
    ras: Vec<u64>,
    /// Direction predictions made / direction mispredicts.
    pub dir_predictions: u64,
    /// Direction mispredicts.
    pub dir_mispredicts: u64,
}

impl Predictor {
    /// Build an empty predictor.
    pub fn new(config: BpredConfig) -> Predictor {
        Predictor {
            config,
            bimodal: vec![1; config.bimodal_entries],
            gshare: vec![1; config.gshare_entries],
            chooser: vec![2; config.chooser_entries],
            history: 0,
            btb: vec![None; config.btb_entries],
            ras: Vec::with_capacity(config.ras_depth),
            dir_predictions: 0,
            dir_mispredicts: 0,
        }
    }

    #[inline]
    fn bimodal_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.bimodal_entries
    }

    #[inline]
    fn gshare_idx(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) % self.config.gshare_entries
    }

    #[inline]
    fn chooser_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.chooser_entries
    }

    /// Predict the direction of the conditional branch at `pc`, then
    /// update all tables with the actual outcome. Returns `true` when the
    /// prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.dir_predictions += 1;
        let bi = self.bimodal_idx(pc);
        let gi = self.gshare_idx(pc);
        let ci = self.chooser_idx(pc);
        let bim_pred = self.bimodal[bi] >= 2;
        let gsh_pred = self.gshare[gi] >= 2;
        let use_gshare = self.chooser[ci] >= 2;
        let pred = if use_gshare { gsh_pred } else { bim_pred };

        // Chooser trains toward the component that was right when they
        // disagree.
        if bim_pred != gsh_pred {
            bump(&mut self.chooser[ci], gsh_pred == taken);
        }
        bump(&mut self.bimodal[bi], taken);
        bump(&mut self.gshare[gi], taken);
        self.history =
            ((self.history << 1) | u64::from(taken)) & ((1 << self.config.history_bits) - 1);

        let correct = pred == taken;
        if !correct {
            self.dir_mispredicts += 1;
        }
        correct
    }

    /// Predict the target of the indirect jump at `pc`, then install the
    /// actual target. Returns `true` when the predicted target matched.
    pub fn predict_indirect(&mut self, pc: u64, actual: u64) -> bool {
        let idx = ((pc >> 2) as usize) % self.config.btb_entries;
        let hit = matches!(self.btb[idx], Some((tag, t)) if tag == pc && t == actual);
        self.btb[idx] = Some((pc, actual));
        hit
    }

    /// Record a call: push the return address.
    pub fn push_return(&mut self, return_addr: u64) {
        if self.ras.len() == self.config.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(return_addr);
    }

    /// Predict a return: pop and compare. Returns `true` on a correct
    /// prediction.
    pub fn predict_return(&mut self, actual: u64) -> bool {
        self.ras.pop() == Some(actual)
    }

    /// Direction-misprediction rate over the run.
    pub fn mispredict_rate(&self) -> f64 {
        if self.dir_predictions == 0 {
            0.0
        } else {
            self.dir_mispredicts as f64 / self.dir_predictions as f64
        }
    }
}

/// Store-dependence map keyed by quadword address, with `dise-mem`'s
/// multiply-fold hasher — SipHash shows up at the top of session
/// profiles and simulator addresses need spread, not DoS resistance.
type AddrMap = HashMap<u64, u64, BuildHasherDefault<AddrHasher>>;

/// Slots in a [`UseTable`] window. Must exceed the widest possible span
/// between the front end's current cycle and the farthest-out
/// reservation, which is bounded by the in-flight window (ROB entries ×
/// worst-case memory latency ≈ 13K cycles); 128K slots leave an order
/// of magnitude of slack, enforced by an assert on slot reuse.
const USE_SLOTS: usize = 1 << 17;

/// Per-cycle resource-usage counters, held in a direct-mapped,
/// cycle-tagged sliding window instead of a `HashMap` — `reserve` is
/// executed once or twice per instruction and dominated session
/// profiles under hashing.
///
/// A slot whose tag differs from the probed cycle belongs to a cycle
/// the pipeline has already drained past (every future probe starts at
/// or after the front end's cycle, which only advances), so it is
/// reclaimed by overwriting.
#[derive(Clone, Debug)]
struct UseTable {
    /// Cycle owning each slot (`u64::MAX` = never used).
    tags: Vec<u64>,
    /// Reservations taken in the owning cycle.
    counts: Vec<u64>,
}

impl UseTable {
    fn new() -> UseTable {
        UseTable { tags: vec![u64::MAX; USE_SLOTS], counts: vec![0; USE_SLOTS] }
    }

    /// Find the earliest cycle ≥ `ready` with a free slot (capacity
    /// `cap` per cycle) and reserve it. `live_floor` is a lower bound on
    /// every future `ready`; reclaiming a slot tagged at or above it
    /// would corrupt a reservation that can still be probed.
    #[inline]
    fn reserve(&mut self, cap: u64, ready: u64, live_floor: u64) -> u64 {
        let mut c = ready;
        loop {
            let slot = (c as usize) & (USE_SLOTS - 1);
            if self.tags[slot] == c {
                if self.counts[slot] < cap {
                    self.counts[slot] += 1;
                    return c;
                }
                c += 1;
                continue;
            }
            assert!(
                self.tags[slot] == u64::MAX || self.tags[slot] < live_floor,
                "usage window wrapped onto a live cycle: slot cycle {} vs floor {live_floor}",
                self.tags[slot],
            );
            self.tags[slot] = c;
            self.counts[slot] = 1;
            return c;
        }
    }
}

/// The timing model. Feed it every [`Exec`] in order via
/// [`Timing::consume`]; charge debugger transitions with
/// [`Timing::debugger_stall`]; read the final count with
/// [`Timing::finish`].
#[derive(Clone, Debug)]
pub struct Timing {
    cfg: CpuConfig,
    mem: MemSystem,
    pred: Predictor,

    /// Cycle the front end is currently delivering into.
    front_cycle: u64,
    /// Slots remaining in the current front-end cycle.
    front_slots: u64,
    /// Current instruction-cache line address (fetch locality).
    cur_line: u64,

    /// Per-register ready cycle (latest in-flight definition).
    reg_ready: [u64; NUM_REGS],
    /// Per-quadword ready cycle of the latest store (memory dependence).
    store_ready: AddrMap,

    /// Commit cycles of in-flight instructions (ROB occupancy).
    rob: VecDeque<u64>,
    /// Issue cycles of in-flight instructions (RS occupancy).
    rs: VecDeque<u64>,

    /// Issue-port usage per cycle.
    issue_use: UseTable,
    /// Memory-port usage per cycle.
    mem_use: UseTable,

    /// In-order commit frontier.
    commit_cycle: u64,
    commit_slots: u64,
    last_commit: u64,

    stats: RunStats,
}

impl Timing {
    /// A fresh timing model with cold caches and predictor.
    pub fn new(cfg: CpuConfig) -> Timing {
        Timing {
            cfg,
            mem: MemSystem::new(cfg.mem),
            pred: Predictor::new(cfg.bpred),
            front_cycle: 0,
            front_slots: cfg.width,
            cur_line: u64::MAX,
            reg_ready: [0; NUM_REGS],
            store_ready: AddrMap::default(),
            rob: VecDeque::new(),
            rs: VecDeque::new(),
            issue_use: UseTable::new(),
            mem_use: UseTable::new(),
            commit_cycle: 0,
            commit_slots: cfg.commit_width,
            last_commit: 0,
            stats: RunStats::default(),
        }
    }

    /// The memory hierarchy (for inspecting cache statistics).
    pub fn mem_system(&self) -> &MemSystem {
        &self.mem
    }

    /// The branch predictor (for inspecting misprediction rates).
    pub fn predictor(&self) -> &Predictor {
        &self.pred
    }

    /// Cycles elapsed so far (commit frontier).
    pub fn cycles(&self) -> u64 {
        self.last_commit
    }

    fn redirect(&mut self, resume_at: u64) {
        self.front_cycle = self.front_cycle.max(resume_at);
        self.front_slots = self.cfg.width;
        self.cur_line = u64::MAX; // refetch charges the I-cache
    }

    /// Account one instruction; returns its commit cycle.
    pub fn consume(&mut self, e: &Exec) -> u64 {
        self.stats.instructions += 1;

        // ---- Front end --------------------------------------------------
        if e.fetched {
            self.stats.fetched_instructions += 1;
            let line = e.pc / self.cfg.mem.l1i.line;
            if line != self.cur_line {
                self.cur_line = line;
                let lat = self.mem.inst_fetch(e.pc);
                if lat > 1 {
                    // Fetch stalls for the miss; the group restarts.
                    self.front_cycle += lat - 1;
                    self.front_slots = self.cfg.width;
                }
            }
        }
        if self.front_slots == 0 {
            self.front_cycle += 1;
            self.front_slots = self.cfg.width;
        }
        self.front_slots -= 1;
        let mut dispatch = self.front_cycle;

        // ---- Window occupancy -------------------------------------------
        while self.rob.len() >= self.cfg.rob_entries {
            let freed = self.rob.pop_front().expect("rob nonempty");
            dispatch = dispatch.max(freed);
        }
        while self.rs.len() >= self.cfg.rs_entries {
            let freed = self.rs.pop_front().expect("rs nonempty");
            dispatch = dispatch.max(freed);
        }
        // Retire bookkeeping entries that are already done.
        while self.rob.front().is_some_and(|&c| c < dispatch) {
            self.rob.pop_front();
        }
        while self.rs.front().is_some_and(|&c| c < dispatch) {
            self.rs.pop_front();
        }
        self.front_cycle = self.front_cycle.max(dispatch);

        // ---- Operand readiness ------------------------------------------
        let mut ready = dispatch + 1;
        for src in e.instr.sources().iter().flatten() {
            ready = ready.max(self.reg_ready[src.index()]);
        }
        if let Some(m) = e.mem {
            if !m.is_store {
                for q in quads(&m) {
                    if let Some(&r) = self.store_ready.get(&q) {
                        ready = ready.max(r);
                    }
                }
            }
        }

        // ---- Issue -------------------------------------------------------
        // `ready > front_cycle` here, and the front only advances, so
        // `front_cycle + 1` lower-bounds every future probe: slots tagged
        // below it are reclaimable.
        let live_floor = self.front_cycle + 1;
        let issue = {
            let c = self.issue_use.reserve(self.cfg.width, ready, live_floor);
            if e.mem.is_some() {
                self.mem_use.reserve(self.cfg.mem_ports, c, live_floor)
            } else {
                c
            }
        };
        self.rs.push_back(issue);

        // ---- Execute -----------------------------------------------------
        let latency = match (&e.instr, e.mem) {
            (_, Some(m)) => self.mem.data_access(m.addr, m.is_store),
            (Instr::Alu { op, .. }, None) => op.latency(),
            _ => 1,
        };
        let done = issue + latency;
        if let Some(d) = e.instr.dest() {
            self.reg_ready[d.index()] = done;
        }
        if let Some(m) = e.mem {
            if m.is_store {
                for q in quads(&m) {
                    self.store_ready.insert(q, done);
                }
            }
        }

        // ---- Commit (in order) --------------------------------------------
        let mut commit = done.max(self.commit_cycle);
        if commit > self.commit_cycle {
            self.commit_cycle = commit;
            self.commit_slots = self.cfg.commit_width;
        }
        if self.commit_slots == 0 {
            self.commit_cycle += 1;
            self.commit_slots = self.cfg.commit_width;
            commit = self.commit_cycle;
        }
        self.commit_slots -= 1;
        self.last_commit = commit;
        self.rob.push_back(commit);

        // ---- Redirects -----------------------------------------------------
        if let Some(b) = e.branch {
            if e.fetched {
                let mispredict = match b.kind {
                    BranchKind::Conditional => !self.pred.predict_and_update(e.pc, b.taken),
                    BranchKind::Direct => false,
                    BranchKind::Indirect => !self.pred.predict_indirect(e.pc, b.target),
                    BranchKind::Call => {
                        self.pred.push_return(e.pc + 4);
                        match e.instr {
                            Instr::Jmp { .. } => !self.pred.predict_indirect(e.pc, b.target),
                            _ => false,
                        }
                    }
                    BranchKind::Return => !self.pred.predict_return(b.target),
                };
                if mispredict {
                    self.stats.mispredicts += 1;
                    self.redirect(done + self.cfg.mispredict_penalty);
                } else if b.taken {
                    // Predicted-taken branch ends the fetch group.
                    self.front_cycle += 1;
                    self.front_slots = self.cfg.width;
                    self.cur_line = u64::MAX;
                }
            }
        }
        if let Some(kind) = e.flush {
            let suppressed = self.cfg.multithreaded_dise_calls
                && matches!(kind, FlushKind::DiseCall | FlushKind::DiseRet);
            if !suppressed {
                self.stats.dise_flushes += 1;
                self.redirect(done + self.cfg.dise_flush_penalty);
            }
        }

        commit
    }

    /// Charge a debugger transition: the pipeline is flushed and the
    /// application stalls for `cost` cycles (use
    /// [`CpuConfig::debugger_transition_cost`] for spurious transitions;
    /// masked transitions are free per the paper's methodology).
    pub fn debugger_stall(&mut self, cost: u64) {
        self.stats.debugger_stalls += 1;
        self.stats.debugger_stall_cycles += cost;
        let resume = self.last_commit + cost;
        self.commit_cycle = self.commit_cycle.max(resume);
        self.redirect(resume);
    }

    /// Close out the run and return the statistics.
    pub fn finish(&mut self) -> RunStats {
        self.stats.cycles = self.last_commit;
        self.stats
    }
}

// ---------------------------------------------------------------------
// Random streams and configurations.

/// One step of a test stream: an instruction record, or a spurious
/// debugger transition charged between records.
#[derive(Clone, Debug)]
enum Step {
    Record(Exec),
    Stall,
}

/// One of eight registers, so dependence chains are common.
fn reg(bits: u64) -> Reg {
    Reg::gpr((bits % 8) as u8)
}

/// A data address: a small hot region at any alignment (sub-quad and
/// straddling accesses, store→load dependences), a megabyte-wide cold
/// region, a stack-like region, or the last bytes below `u64::MAX`
/// (accesses that wrap to address 0).
fn data_addr(bits: u64) -> u64 {
    let off = bits >> 8;
    match bits % 8 {
        0..=3 => 0x2000 + off % 96,
        4 => 0x10_0000 + off % (1 << 20),
        5 => 0x7fff_0000 + off % 512,
        _ => u64::MAX - off % 16,
    }
}

/// A branch target: mostly a small code region, sometimes far away.
fn code_addr(bits: u64) -> u64 {
    if bits.is_multiple_of(5) {
        0x40_0000 + (bits >> 4) % (1 << 16) * 4
    } else {
        0x1_0000 + (bits >> 4) % 512 * 4
    }
}

/// Turn `(kind, bits)` pairs into a stream, threading the PC through
/// taken branches so fetch locality and predictor aliasing look like a
/// program's.
fn build_stream(ops: &[(u8, u64)]) -> Vec<Step> {
    let mut pc = 0x1_0000u64;
    let mut out = Vec::with_capacity(ops.len());
    for &(kind, bits) in ops {
        if kind == 15 {
            out.push(Step::Stall);
            continue;
        }
        let mut e = Exec {
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
        };
        let width = [1u64, 2, 4, 8][(bits >> 5) as usize % 4];
        match kind {
            0..=4 => {
                let op = AluOp::ALL[(bits >> 10) as usize % AluOp::ALL.len()];
                let rb =
                    if bits & 16 == 0 { Operand::Reg(reg(bits >> 20)) } else { Operand::Imm(7) };
                e.instr = Instr::Alu { op, rd: reg(bits), ra: reg(bits >> 15), rb };
            }
            5..=7 => {
                let w = Width::ALL[(bits >> 5) as usize % 4];
                e.instr = Instr::Load { width: w, rd: reg(bits), base: reg(bits >> 15), disp: 0 };
                e.mem = Some(MemOp {
                    addr: data_addr(bits >> 24),
                    width,
                    is_store: false,
                    old_value: 0,
                    new_value: 0,
                });
            }
            8..=9 => {
                let w = Width::ALL[(bits >> 5) as usize % 4];
                e.instr = Instr::Store { width: w, rs: reg(bits), base: reg(bits >> 15), disp: 0 };
                e.mem = Some(MemOp {
                    addr: data_addr(bits >> 24),
                    width,
                    is_store: true,
                    old_value: 0,
                    new_value: bits,
                });
            }
            10 => {
                e.instr = Instr::CondBr { cond: Cond::Ne, rs: reg(bits), disp: 4 };
                let taken = (bits >> 7) & 1 == 1;
                e.branch = Some(Branch {
                    kind: BranchKind::Conditional,
                    taken,
                    target: code_addr(bits >> 24),
                });
            }
            11 => {
                e.instr = Instr::Br { rd: Reg::ZERO, disp: 4 };
                e.branch = Some(Branch {
                    kind: BranchKind::Direct,
                    taken: true,
                    target: code_addr(bits >> 24),
                });
            }
            12 => {
                e.instr = Instr::Jmp { rd: Reg::ZERO, base: reg(bits) };
                e.branch = Some(Branch {
                    kind: BranchKind::Indirect,
                    taken: true,
                    target: code_addr(bits >> 24),
                });
            }
            13 => {
                // Direct (`bsr`) and indirect (`jsr`) calls.
                e.instr = if bits & 64 == 0 {
                    Instr::Br { rd: Reg::RA, disp: 4 }
                } else {
                    Instr::Jmp { rd: Reg::RA, base: reg(bits) }
                };
                e.branch = Some(Branch {
                    kind: BranchKind::Call,
                    taken: true,
                    target: code_addr(bits >> 24),
                });
            }
            _ => {
                e.instr = Instr::Jmp { rd: Reg::ZERO, base: Reg::RA };
                // Mostly the return address the RAS expects.
                let target = if bits & 7 == 0 { code_addr(bits >> 24) } else { pc + 4 };
                e.branch = Some(Branch { kind: BranchKind::Return, taken: true, target });
            }
        }
        // Replacement records come from decode, not fetch.
        if (bits >> 48) % 8 == 0 {
            e.fetched = false;
            e.disepc = 1;
        }
        if (bits >> 51) % 8 == 0 {
            e.flush = Some(
                [
                    FlushKind::DiseBranch,
                    FlushKind::DiseCall,
                    FlushKind::DiseRet,
                    FlushKind::ReplacementBranch,
                ][(bits >> 54) as usize % 4],
            );
        }
        e.facts = InstrFacts::of(&e.instr);
        pc = match e.branch {
            Some(b) if b.taken => b.target,
            _ => pc + 4,
        };
        out.push(Step::Record(e));
    }
    out
}

/// Cache geometry from `(log2 sets, log2 ways, log2 line)`.
fn cache(sets: u32, ways: u32, line: u32) -> CacheConfig {
    let (sets, assoc, line) = (1u64 << sets, 1usize << ways, 1u64 << line);
    CacheConfig { size: sets * assoc as u64 * line, assoc, line }
}

type CoreKnobs = (u64, u64, usize, usize, u64, bool);
type MemKnobs = (u64, u64, u64, u64, (u32, u32, u32), (u32, u32, u32));
type MiscKnobs = (u32, u32, u32, u32, u64, u64);

fn build_config(core: CoreKnobs, mem: MemKnobs, misc: MiscKnobs) -> CpuConfig {
    let (width, commit_width, rob_entries, rs_entries, mem_ports, multithreaded) = core;
    let (l1_latency, l2_latency, mem_latency, tlb_miss_penalty, l1, l2) = mem;
    let (tlb_sets, tlb_ways, table_bits, ras_depth, penalty, transition) = misc;
    CpuConfig {
        width,
        commit_width,
        rob_entries,
        rs_entries,
        mem_ports,
        mispredict_penalty: penalty,
        dise_flush_penalty: penalty / 2 + 1,
        debugger_transition_cost: transition,
        multithreaded_dise_calls: multithreaded,
        mem: MemConfig {
            l1i: cache(l1.0, l1.1, l1.2),
            l1d: cache(l1.0 + 1, l1.1, l1.2),
            l2: cache(l2.0, l2.1, l2.2),
            tlb_entries: 1 << (tlb_sets + tlb_ways),
            tlb_assoc: 1 << tlb_ways,
            l1_latency,
            l2_latency,
            mem_latency,
            tlb_miss_penalty,
        },
        bpred: BpredConfig {
            bimodal_entries: 1 << table_bits,
            gshare_entries: 1 << (table_bits + 1),
            chooser_entries: 1 << table_bits,
            history_bits: table_bits,
            btb_entries: 1 << (table_bits - 1),
            ras_depth: ras_depth as usize,
        },
        ..CpuConfig::default()
    }
}

/// `mem_latency` up to 400, windows down to one entry, widths 1–8,
/// direct-mapped to 8-way caches and TLBs, predictor tables from 4 to
/// 8K entries.
fn config_strategy() -> impl Strategy<Value = CpuConfig> {
    (
        (1u64..9, 1u64..9, 1usize..160, 1usize..96, 1u64..5, any::<bool>()),
        (
            1u64..6,
            1u64..30,
            1u64..401,
            0u64..60,
            (0u32..7, 0u32..4, 3u32..8),
            (2u32..11, 0u32..4, 4u32..8),
        ),
        (0u32..4, 0u32..4, 2u32..13, 1u32..20, 0u64..40, 0u64..5000),
    )
        .prop_map(|(core, mem, misc)| build_config(core, mem, misc))
}

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..16, any::<u64>()), 1..max_len)
}

fn mem_stats(t: &dise_cpu::Timing) -> [CacheStats; 5] {
    let (a, b, c, d, e) = t.mem_system().stats();
    [a, b, c, d, e]
}

fn oracle_mem_stats(t: &Timing) -> [CacheStats; 5] {
    let (a, b, c, d, e) = t.mem_system().stats();
    [a, b, c, d, e]
}

/// Drive one library model and one oracle model through `steps`,
/// comparing every commit cycle, then the final statistics.
fn check_lone(cfg: CpuConfig, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut fast = dise_cpu::Timing::new(cfg);
    let mut slow = Timing::new(cfg);
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Record(e) => {
                let (f, s) = (fast.consume(e), slow.consume(e));
                prop_assert_eq!(f, s, "commit cycle of record {}", i);
            }
            Step::Stall => {
                fast.debugger_stall(cfg.debugger_transition_cost);
                slow.debugger_stall(cfg.debugger_transition_cost);
            }
        }
    }
    prop_assert_eq!(mem_stats(&fast), oracle_mem_stats(&slow));
    let (fp, sp) = (fast.predictor(), slow.predictor());
    prop_assert_eq!(
        (fp.dir_predictions, fp.dir_mispredicts),
        (sp.dir_predictions, sp.dir_mispredicts)
    );
    prop_assert_eq!(fast.finish(), slow.finish());
    Ok(())
}

/// A mid-stream clone: a batch consumes the stream in chunks, is cloned
/// at `fork`, and the clone then charges an extra stall after every
/// record it sees. Both must match oracles fed the same steps.
fn check_forked_batch(
    cfgs: &[CpuConfig],
    steps: &[Step],
    fork: usize,
) -> Result<(), TestCaseError> {
    let fork = fork % (steps.len() + 1);
    let mut batch = TimingBatch::new(cfgs);
    let mut trunk: Vec<Timing> = cfgs.iter().map(|c| Timing::new(*c)).collect();
    let feed = |batch: &mut TimingBatch, oracle: &mut [Timing], steps: &[Step]| {
        for run in steps.split(|s| matches!(s, Step::Stall)) {
            let records: Vec<Exec> = run
                .iter()
                .map(|s| match s {
                    Step::Record(e) => *e,
                    Step::Stall => unreachable!(),
                })
                .collect();
            batch.consume_slice(&records);
            for t in oracle.iter_mut() {
                for e in &records {
                    t.consume(e);
                }
            }
        }
    };
    // Stalls sit between slices: `split` drops them, so charge them here.
    let stalls_then_feed = |batch: &mut TimingBatch, oracle: &mut [Timing], steps: &[Step]| {
        let mut start = 0;
        for (i, s) in steps.iter().enumerate() {
            if matches!(s, Step::Stall) {
                feed(batch, oracle, &steps[start..i]);
                batch.debugger_stall();
                for t in oracle.iter_mut() {
                    t.debugger_stall(t.cfg.debugger_transition_cost);
                }
                start = i + 1;
            }
        }
        feed(batch, oracle, &steps[start..]);
    };
    stalls_then_feed(&mut batch, &mut trunk, &steps[..fork]);
    let mut branch = batch.clone();
    let mut branch_oracle = trunk.clone();
    stalls_then_feed(&mut batch, &mut trunk, &steps[fork..]);
    let forked: Vec<Step> = steps[fork..].iter().flat_map(|s| [s.clone(), Step::Stall]).collect();
    stalls_then_feed(&mut branch, &mut branch_oracle, &forked);

    for (batch, oracle) in [(batch, trunk), (branch, branch_oracle)] {
        for (i, slow) in oracle.iter().enumerate() {
            let (a, b, c, d, e) = batch.mem_stats(i);
            prop_assert_eq!([a, b, c, d, e], oracle_mem_stats(slow));
            prop_assert_eq!(
                (batch.predictor(i).dir_predictions, batch.predictor(i).dir_mispredicts),
                (slow.predictor().dir_predictions, slow.predictor().dir_mispredicts)
            );
        }
        let slow: Vec<RunStats> = oracle.into_iter().map(|mut t| t.finish()).collect();
        prop_assert_eq!(batch.finish(), slow);
    }
    Ok(())
}

/// A machine and 2–5 transition costs for it, each picked to sit just
/// below, at or just above `max(mispredict_penalty,
/// dise_flush_penalty)`, or far above it: the batch shares one model
/// among the costs that clear the bound and must still match one oracle
/// model per configuration.
fn cost_class_strategy() -> impl Strategy<Value = Vec<CpuConfig>> {
    (config_strategy(), prop::collection::vec((0u8..4, 0u64..100_000), 2..6)).prop_map(
        |(base, picks)| {
            picks
                .into_iter()
                .map(|(side, r)| CpuConfig {
                    debugger_transition_cost: pick_cost(&base, side, r),
                    ..base
                })
                .collect()
        },
    )
}

/// Cost picks for `base`, each just below, at or just above
/// `max(mispredict_penalty, dise_flush_penalty)`, or far above it.
fn pick_cost(base: &CpuConfig, side: u8, r: u64) -> u64 {
    let bound = base.mispredict_penalty.max(base.dise_flush_penalty);
    match side {
        0 => bound.saturating_sub(1 + r % 3),
        1 => bound + r % 3,
        2 => bound + r,
        _ => bound + 1000 * (r % 600),
    }
}

/// Two machines and 2–6 configurations of them, the first on one and
/// the second on the other, each at a cost from [`pick_cost`].
fn two_class_strategy() -> impl Strategy<Value = Vec<CpuConfig>> {
    (
        config_strategy(),
        config_strategy(),
        prop::collection::vec((any::<bool>(), 0u8..4, 0u64..100_000), 2..7),
    )
        .prop_map(|(a, b, picks)| {
            picks
                .into_iter()
                .enumerate()
                .map(|(i, (other, side, r))| {
                    let base = if i == 1 || (i > 1 && other) { b } else { a };
                    CpuConfig { debugger_transition_cost: pick_cost(&base, side, r), ..base }
                })
                .collect()
        })
}

/// After each record, the configurations whose bit is set in `masks`
/// (cycled) stall; a `Step::Stall` stalls them all. Records go to the
/// batch as slices cut at every stall. Each configuration must match
/// a lone oracle model charged the same stalls.
fn check_subset_stalls(
    cfgs: &[CpuConfig],
    steps: &[Step],
    masks: &[u8],
) -> Result<(), TestCaseError> {
    let mut batch = TimingBatch::new(cfgs);
    let mut oracle: Vec<Timing> = cfgs.iter().map(|c| Timing::new(*c)).collect();
    let mut slice: Vec<Exec> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let stalled: Vec<usize> = match step {
            Step::Record(e) => {
                slice.push(*e);
                oracle.iter_mut().for_each(|t| _ = t.consume(e));
                let mask = masks[i % masks.len()];
                (0..cfgs.len()).filter(|s| (mask >> s) & 1 == 1).collect()
            }
            Step::Stall => (0..cfgs.len()).collect(),
        };
        if !stalled.is_empty() {
            batch.consume_slice(&slice);
            slice.clear();
            batch.stall(&stalled);
            for s in stalled {
                oracle[s].debugger_stall(cfgs[s].debugger_transition_cost);
            }
        }
    }
    batch.consume_slice(&slice);
    for (i, slow) in oracle.iter().enumerate() {
        let (a, b, c, d, e) = batch.mem_stats(i);
        prop_assert_eq!([a, b, c, d, e], oracle_mem_stats(slow), "cache stats of slot {}", i);
        prop_assert_eq!(
            (batch.predictor(i).dir_predictions, batch.predictor(i).dir_mispredicts),
            (slow.predictor().dir_predictions, slow.predictor().dir_mispredicts)
        );
    }
    let slow: Vec<RunStats> = oracle.into_iter().map(|mut t| t.finish()).collect();
    prop_assert_eq!(batch.finish(), slow);
    Ok(())
}

/// A sparse stall mask: per record, no stall three times in four.
fn mask_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..4, any::<u8>()), 1..64)
        .prop_map(|m| m.into_iter().map(|(k, bits)| if k == 0 { bits } else { 0 }).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn subset_stalls_match_oracle(
        cfgs in two_class_strategy(),
        ops in stream_strategy(400),
        masks in mask_strategy(),
    ) {
        check_subset_stalls(&cfgs, &build_stream(&ops), &masks)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn subset_stalls_match_oracle_sweep(
        cfgs in two_class_strategy(),
        ops in stream_strategy(1000),
        masks in mask_strategy(),
    ) {
        check_subset_stalls(&cfgs, &build_stream(&ops), &masks)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_classes_match_oracle(
        cfgs in cost_class_strategy(),
        ops in stream_strategy(400),
        fork: usize,
    ) {
        check_forked_batch(&cfgs, &build_stream(&ops), fork)?;
    }

    #[test]
    fn timing_matches_oracle(cfg in config_strategy(), ops in stream_strategy(600)) {
        check_lone(cfg, &build_stream(&ops))?;
    }

    #[test]
    fn forked_batch_matches_oracle(
        a in config_strategy(),
        b in config_strategy(),
        ops in stream_strategy(400),
        fork: usize,
    ) {
        check_forked_batch(&[a, b], &build_stream(&ops), fork)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn cost_classes_match_oracle_sweep(
        cfgs in cost_class_strategy(),
        ops in stream_strategy(1000),
        fork: usize,
    ) {
        check_forked_batch(&cfgs, &build_stream(&ops), fork)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn timing_matches_oracle_sweep(cfg in config_strategy(), ops in stream_strategy(4000)) {
        check_lone(cfg, &build_stream(&ops))?;
    }

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn forked_batch_matches_oracle_sweep(
        a in config_strategy(),
        b in config_strategy(),
        ops in stream_strategy(2000),
        fork: usize,
    ) {
        check_forked_batch(&[a, b], &build_stream(&ops), fork)?;
    }
}

fn lcg_ops(seed: u64, n: usize, kind: impl Fn(u64) -> u8) -> Vec<(u8, u64)> {
    let mut lcg = seed;
    (0..n)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (kind(lcg >> 60), lcg.rotate_left(17))
        })
        .collect()
}

/// The paper's machine on a long stream, so the oracle comparison also
/// covers warm caches, full windows and long store-dependence chains.
#[test]
fn default_config_long_stream_matches_oracle() {
    let ops = lcg_ops(0x5eed, 20_000, |k| k as u8);
    check_lone(CpuConfig::default(), &build_stream(&ops)).unwrap();
}

/// Loads and stores only, on machines whose store tables are a few
/// slots wide and whose memory is slow: live store entries collide in
/// their slots all the time, so the spill map and its pruning carry
/// the dependences.
#[test]
fn store_heavy_streams_on_tiny_windows_match_oracle() {
    for (i, rob) in [1usize, 2, 3, 8, 32].into_iter().enumerate() {
        let mut cfg = CpuConfig { rob_entries: rob, rs_entries: rob + 1, ..CpuConfig::default() };
        cfg.mem.mem_latency = 400;
        // Kinds 5..=9: loads and stores.
        let ops = lcg_ops(i as u64 + 1, 20_000, |k| 5 + (k % 5) as u8);
        check_lone(cfg, &build_stream(&ops)).unwrap();
    }
}
