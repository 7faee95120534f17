//! The cycle-accounting half of the machine.
//!
//! [`Timing`] consumes [`Exec`](crate::Exec) records in program order and
//! computes the commit cycle of each instruction under the modeled
//! resources:
//!
//! * front end: `width` instructions per cycle; instruction-cache and
//!   ITLB latency charged per line; fetch groups end at predicted-taken
//!   branches; **replacement instructions bypass fetch entirely** and
//!   consume decode/dispatch bandwidth only;
//! * window: reorder-buffer and reservation-station occupancy stall
//!   dispatch when full;
//! * issue: `width` instructions per cycle, `mem_ports` memory
//!   operations per cycle, operand-ready times tracked per register,
//!   store→load memory dependences tracked per quadword ("intelligent
//!   load speculation" — no false dependences, no mis-speculation);
//! * execute: ALU latencies from the ISA; data-cache/DTLB latency for
//!   memory operations at issue time;
//! * commit: in order, `commit_width` per cycle;
//! * redirects: branch mispredicts (modeled with a real hybrid
//!   predictor/BTB/RAS), taken DISE branches, DISE calls and returns,
//!   and conventional branches inside replacement sequences all refill
//!   the front end; debugger transitions stall it for
//!   [`CpuConfig::debugger_transition_cost`] cycles.
//!
//! Every piece of per-model state has a size fixed by the
//! [`CpuConfig`] at construction: the ROB and RS are one ring of the
//! latest instructions' issue and commit cycles (see `Timing::recent`),
//! the port-usage window is sized by the span bound on
//! [`use_window_slots`], and the store table keeps only the entries
//! that can still delay a load (see [`StoreTable`]). Nothing grows with
//! the length of the run or the size of its store footprint.
//!
//! The accounting rests on one monotonic quantity, the front end's
//! cycle `F`: it never moves backwards, and every instruction becomes
//! ready no earlier than `F + 1` at its dispatch. State tagged at or
//! below `F + 1` therefore can never influence a later instruction,
//! which is what lets the windows and the store table forget it.
//!
//! A spurious debugger stall drains the pipeline, so its cost only
//! shifts time. After any record, every live cycle value — the front
//! end and the commit frontier, register and store ready times, port
//! reservations and the ROB/RS ring — is at most
//! `last_commit + max(mispredict_penalty, dise_flush_penalty)`: each is
//! bounded by a commit cycle, except a redirect, which adds at most one
//! penalty to one. A stall of cost `C` resumes the front end and the
//! commit frontier at `last_commit + C`, so when `C` clears that bound
//! every earlier value is dead: no later instruction can be ready
//! before `last_commit + C + 1`. The caches, TLBs and predictor never
//! see cycles. Two models fed the same records and stalls that differ
//! only in a cost `C` at or above the bound therefore stay one model
//! shifted by a constant number of cycles, which is what lets a
//! [`TimingBatch`] run such configurations on one model.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dise_isa::{AluOp, Instr};
use dise_mem::{AddrHasher, MemSystem};

use crate::exec::{BranchKind, Exec, FlushKind, MemOp};
use crate::{CpuConfig, Predictor};

/// Spilled store-dependence entries keyed by quadword, with
/// `dise-mem`'s multiply-fold hasher: simulator addresses need spread,
/// not DoS resistance.
type AddrMap = HashMap<u64, u64, BuildHasherDefault<AddrHasher>>;

/// The two per-cycle resources an instruction reserves.
#[derive(Clone, Copy, Debug)]
enum Port {
    /// One of `width` issue slots.
    Issue,
    /// One of `mem_ports` data-cache ports.
    Mem,
}

/// One cycle's usage: issue slots and memory ports taken. The counts
/// never exceed the window's instruction count, so `u32` holds them.
#[derive(Clone, Copy, Debug, Default)]
struct CycleUse {
    cycle: u64,
    issue: u32,
    mem: u32,
}

impl CycleUse {
    #[inline]
    fn count(&mut self, port: Port) -> &mut u32 {
        match port {
            Port::Issue => &mut self.issue,
            Port::Mem => &mut self.mem,
        }
    }
}

/// Per-cycle resource-usage counters for both ports, held in one
/// direct-mapped, cycle-tagged sliding window of `(cycle, issue, mem)`
/// slots: a memory operation's port is usually reserved in the cycle
/// it issues, so both counters share a cache line.
///
/// A slot whose tag differs from the probed cycle belongs to a cycle
/// the pipeline has already drained past (every future probe starts at
/// or after the front end's cycle, which only advances), so it is
/// reclaimed by overwriting, both counts at once. That holds only while
/// every live reservation lies within one window's length of the front
/// end, which [`use_window_slots`] guarantees and `reserve` asserts. No
/// reservation is ever made at cycle 0 (every instruction is ready at
/// dispatch + 1 at the earliest), so a zeroed slot is an unused one.
#[derive(Clone, Debug)]
struct UseTable {
    slots: Box<[CycleUse]>,
}

impl UseTable {
    /// A window of `slots` cycles (a power of two).
    fn new(slots: usize) -> UseTable {
        assert!(slots.is_power_of_two(), "usage window must be a power of two");
        UseTable { slots: vec![CycleUse::default(); slots].into_boxed_slice() }
    }

    /// Find the earliest cycle ≥ `ready` with a free `port` (capacity
    /// `cap` per cycle) and reserve it. `live_floor` is a lower bound on
    /// every future `ready`; reclaiming a slot tagged at or above it
    /// would corrupt a reservation that can still be probed.
    #[inline]
    fn reserve(&mut self, port: Port, cap: u64, ready: u64, live_floor: u64) -> u64 {
        let mask = self.slots.len() - 1;
        let mut c = ready;
        loop {
            let slot = &mut self.slots[(c as usize) & mask];
            if slot.cycle != c {
                assert!(
                    slot.cycle < live_floor,
                    "usage window wrapped onto a live cycle: slot cycle {} vs floor {live_floor}",
                    slot.cycle,
                );
                *slot = CycleUse { cycle: c, ..CycleUse::default() };
                *slot.count(port) = 1;
                return c;
            }
            let taken = slot.count(port);
            if u64::from(*taken) < cap {
                *taken += 1;
                return c;
            }
            c += 1;
        }
    }
}

/// Slots in the [`UseTable`] window: a power of two at least 25%
/// above the widest span a live reservation can have ahead of the front
/// end's cycle `F`.
///
/// The span bound. Let `W = min(rob_entries, rs_entries)` and let `L`
/// be the worst execution latency: an L1 + TLB miss + memory (or L2)
/// data access, or the slowest ALU operation.
///
/// * An instruction dispatches only once the instruction `rs_entries`
///   before it has issued and the one `rob_entries` before it has
///   committed, and dispatch never passes `F`. So at most `W`
///   instructions — the window — have issued, or will issue, after
///   `F`, and only they hold reservations after `F`: one issue slot and
///   at most one memory port each.
/// * The latest reservation ends a dependence chain. Walk it back to
///   the last link that became ready no later than `F + 1` (its
///   dispatch bound); every later link waited for its predecessor, so
///   issued after `F`, so sits in the window: the chain has at most
///   `W + 1` links. Each link adds its latency (≤ `L`) plus the cycles
///   it waited for a free port. Those waits cover disjoint cycle
///   ranges, and each waited-on cycle after `F` is full of window
///   reservations, so all the waits together add at most
///   `W / width + W / mem_ports` cycles.
///
/// Every probe and every live reservation therefore lies in
/// `[F + 1, F + 1 + (W + 1)·L + W/width + W/mem_ports]`. For
/// `CpuConfig::default()` that is 10,834 cycles, so the window holds
/// 16,384 slots (256 KB). `UseTable::reserve` still asserts that it
/// never reclaims a live slot.
fn use_window_slots(cfg: &CpuConfig) -> usize {
    let m = &cfg.mem;
    let data = m.l1_latency + m.tlb_miss_penalty + m.l2_latency.max(m.mem_latency);
    let alu = AluOp::ALL.iter().map(|op| op.latency()).max().unwrap_or(1);
    let worst = data.max(alu).max(1);
    let window = cfg.rob_entries.min(cfg.rs_entries) as u64;
    let span = 1
        + (window + 1).saturating_mul(worst)
        + window / cfg.width.max(1)
        + window / cfg.mem_ports.max(1);
    let slack = span.saturating_add(span / 4);
    usize::try_from(slack).expect("usage window fits in memory").next_power_of_two()
}

/// Quad number of a [`StoreTable`] slot that holds no entry. Real quad
/// numbers are addresses shifted right by 3, so they never reach it.
const NO_QUAD: u64 = u64::MAX;

/// Spill sizes below this never trigger a prune.
const MIN_PRUNE: usize = 64;

/// The ready cycle of the latest store to each quadword, kept only
/// while it can still delay a load.
///
/// An entry whose ready cycle is at most `F + 1` can never raise a
/// later load's ready cycle: every later load becomes ready no earlier
/// than its dispatch + 1 ≥ `F + 1`, and `F` only grows. Such entries
/// are dead and may be dropped. A live entry belongs to one of the
/// last `rob_entries` instructions (every older one committed by `F`,
/// and a store's ready cycle is its completion, which precedes its
/// commit), so at most two quads per ROB entry are live.
///
/// Entries sit in a direct-mapped table of `(quad, ready)` slots. A
/// store whose slot holds a dead entry (or none) takes it over; a
/// store whose slot holds another live quad goes to a spill map
/// instead. A quad is in at most one of the two places, so a lookup
/// checks its slot, then the spill map when that is non-empty. The
/// spill map is pruned of dead entries whenever it doubles past its
/// last pruned size, which keeps it within a small multiple of the
/// live count.
#[derive(Clone, Debug)]
struct StoreTable {
    /// `(quad, ready cycle)`; `NO_QUAD` marks an empty slot.
    slots: Box<[(u64, u64)]>,
    /// `64 - log2(slots)`: the slot index is the top bits of a
    /// Fibonacci hash of the quad number.
    shift: u32,
    /// Live entries whose slot holds another live quad.
    spill: AddrMap,
    /// Spill size that triggers the next prune.
    prune_at: usize,
}

impl StoreTable {
    /// Four slots per ROB entry: twice the most quads that can be live.
    fn new(rob_entries: usize) -> StoreTable {
        let slots = (4 * rob_entries).next_power_of_two().max(2);
        StoreTable {
            slots: vec![(NO_QUAD, 0); slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            spill: AddrMap::default(),
            prune_at: MIN_PRUNE,
        }
    }

    #[inline]
    fn index(&self, quad: u64) -> usize {
        (quad.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Ready cycle of the latest store to `quad`, or 0 when none can
    /// still delay a load.
    #[inline]
    fn ready(&self, quad: u64) -> u64 {
        let (q, ready) = self.slots[self.index(quad)];
        if q == quad {
            ready
        } else if self.spill.is_empty() {
            0
        } else {
            self.spill.get(&quad).copied().unwrap_or(0)
        }
    }

    /// Record a store to `quad` completing at `ready`; entries at or
    /// below `floor` (`F + 1`) are dead.
    #[inline]
    fn record(&mut self, quad: u64, ready: u64, floor: u64) {
        let i = self.index(quad);
        let slot = &mut self.slots[i];
        if slot.0 == quad {
            slot.1 = ready;
        } else if slot.1 <= floor {
            *slot = (quad, ready);
            if !self.spill.is_empty() {
                self.spill.remove(&quad);
            }
        } else {
            self.spill.insert(quad, ready);
            if self.spill.len() >= self.prune_at {
                self.spill.retain(|_, r| *r > floor);
                self.prune_at = (2 * self.spill.len()).max(MIN_PRUNE);
            }
        }
    }
}

/// The quadwords an access touches: the first, and the last when it
/// differs (an access is at most 8 bytes wide, so these are all of
/// them). Addresses wrap, as the executor's address arithmetic does.
#[inline]
fn quads(m: &MemOp) -> (u64, Option<u64>) {
    let first = m.addr >> 3;
    let last = m.addr.wrapping_add(m.width.max(1) - 1) >> 3;
    (first, (last != first).then_some(last))
}

/// Aggregate results of a timed run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Total cycles (cycle of the last commit).
    pub cycles: u64,
    /// Dynamic instructions committed (including replacement
    /// instructions).
    pub instructions: u64,
    /// Instructions that came through fetch (excludes DISE replacement
    /// instructions).
    pub fetched_instructions: u64,
    /// Conditional-branch direction mispredicts.
    pub mispredicts: u64,
    /// Pipeline flushes caused by DISE control transfers.
    pub dise_flushes: u64,
    /// Debugger-transition stalls charged.
    pub debugger_stalls: u64,
    /// Cycles spent in debugger-transition stalls.
    pub debugger_stall_cycles: u64,
}

impl RunStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
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
    /// Current instruction-cache line number (fetch locality).
    cur_line: u64,
    /// log2 of the L1I line size.
    iline_shift: u32,

    /// Per-register ready cycle (latest in-flight definition).
    reg_ready: [u64; crate::NUM_REGS],
    /// Per-quadword ready cycle of the latest store (memory dependence).
    store_ready: StoreTable,

    /// `(issue, commit)` cycles of the latest instructions, indexed by
    /// sequence number modulo a power of two ≥ both window sizes.
    ///
    /// The ROB and RS fill and drain in program order, so instruction
    /// `i` dispatches once instruction `i - rob_entries` has committed
    /// and instruction `i - rs_entries` has issued; every older entry
    /// drained at a cycle dispatch has already passed. Those two cycles
    /// are all dispatch needs, so the queues keep no occupancy count.
    recent: Box<[(u64, u64)]>,

    /// Issue-slot and memory-port usage per cycle.
    port_use: UseTable,

    /// In-order commit frontier.
    commit_cycle: u64,
    commit_slots: u64,
    last_commit: u64,

    stats: RunStats,
}

impl Timing {
    /// A fresh timing model with cold caches and predictor.
    ///
    /// # Panics
    ///
    /// Panics if the ROB or RS has no entries.
    pub fn new(cfg: CpuConfig) -> Timing {
        assert!(cfg.rob_entries >= 1 && cfg.rs_entries >= 1, "ROB and RS need at least one entry");
        let recent = cfg.rob_entries.max(cfg.rs_entries).next_power_of_two();
        Timing {
            cfg,
            mem: MemSystem::new(cfg.mem),
            pred: Predictor::new(cfg.bpred),
            front_cycle: 0,
            front_slots: cfg.width,
            cur_line: u64::MAX,
            iline_shift: cfg.mem.l1i.line.trailing_zeros(),
            reg_ready: [0; crate::NUM_REGS],
            store_ready: StoreTable::new(cfg.rob_entries),
            recent: vec![(0, 0); recent].into_boxed_slice(),
            port_use: UseTable::new(use_window_slots(&cfg)),
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
        let seq = self.stats.instructions;
        self.stats.instructions += 1;

        // ---- Front end --------------------------------------------------
        if e.fetched {
            self.stats.fetched_instructions += 1;
            let line = e.pc >> self.iline_shift;
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
        let mask = self.recent.len() - 1;
        if let Some(freed) = seq.checked_sub(self.cfg.rob_entries as u64) {
            dispatch = dispatch.max(self.recent[freed as usize & mask].1);
        }
        if let Some(freed) = seq.checked_sub(self.cfg.rs_entries as u64) {
            dispatch = dispatch.max(self.recent[freed as usize & mask].0);
        }
        self.front_cycle = self.front_cycle.max(dispatch);

        // ---- Operand readiness ------------------------------------------
        let mut ready = dispatch + 1;
        for src in e.instr.sources().iter().flatten() {
            ready = ready.max(self.reg_ready[src.index()]);
        }
        if let Some(m) = e.mem {
            if !m.is_store {
                let (first, second) = quads(&m);
                ready = ready.max(self.store_ready.ready(first));
                if let Some(q) = second {
                    ready = ready.max(self.store_ready.ready(q));
                }
            }
        }

        // ---- Issue -------------------------------------------------------
        // `ready > front_cycle` here, and the front only advances, so
        // `front_cycle + 1` lower-bounds every future probe: slots tagged
        // below it are reclaimable.
        let live_floor = self.front_cycle + 1;
        let issue = {
            let c = self.port_use.reserve(Port::Issue, self.cfg.width, ready, live_floor);
            if e.mem.is_some() {
                self.port_use.reserve(Port::Mem, self.cfg.mem_ports, c, live_floor)
            } else {
                c
            }
        };

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
                let (first, second) = quads(&m);
                self.store_ready.record(first, done, live_floor);
                if let Some(q) = second {
                    self.store_ready.record(q, done, live_floor);
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
        self.recent[seq as usize & mask] = (issue, commit);

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

/// A batch of timing models replaying one functional record stream —
/// the single-pass multi-config engine behind the sensitivity sweeps:
/// the [`Executor`](crate::Executor) produces its program-order
/// [`Exec`] stream once, and the batch accounts it under every
/// configuration it was built with.
///
/// Configurations that differ only in
/// [`CpuConfig::debugger_transition_cost`], with every such cost at or
/// above `max(mispredict_penalty, dise_flush_penalty)`, form one
/// *class* and share one [`Timing`]: by the drain invariant (module
/// docs) their models stay the same model shifted by a cycle offset, so
/// the batch runs the class's cheapest configuration (its *lead*) and
/// keeps each configuration's offset over it. Exact duplicates always share; a cost below the
/// bound keeps its own model. Models of different classes are fully
/// isolated — only the functional stream is shared — so a batch of
/// one is cycle-identical to driving a lone [`Timing`].
#[derive(Clone, Debug)]
pub struct TimingBatch {
    /// One model per class, in order of each class's first
    /// configuration, each configured with its lead's cost.
    models: Vec<Timing>,
    /// One slot per configuration, in construction order.
    slots: Vec<Slot>,
    /// Some configuration's cost differs from its lead's, so stalls
    /// move offsets. False for a batch of one and for exact
    /// duplicates, which then do no per-stall slot work.
    shifted: bool,
    /// A record was consumed since the last stall (or since the start).
    fresh: bool,
}

/// One configuration's place in a [`TimingBatch`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Index of its class's model.
    model: usize,
    /// Its own spurious-transition cost.
    cost: u64,
    /// Cycles its live state (front end, commit frontier, ready times,
    /// reservations) runs ahead of the lead's since the last stall.
    front: u64,
    /// Cycles its last commit runs ahead of the lead's until a record
    /// follows the last stall; from then on it equals `front`.
    commit: u64,
}

/// The least transition cost that drains a model built from `cfg`:
/// after any record, every live cycle value is at most
/// `last_commit + max(mispredict_penalty, dise_flush_penalty)` (module
/// docs), so a stall of at least that many cycles leaves none of them
/// able to delay the resumed stream.
fn drain_bound(cfg: &CpuConfig) -> u64 {
    cfg.mispredict_penalty.max(cfg.dise_flush_penalty)
}

impl TimingBatch {
    /// Models for the given configurations, in the given order: one per
    /// class (see [`TimingBatch`]), led by its cheapest configuration.
    pub fn new(cfgs: &[CpuConfig]) -> TimingBatch {
        let drains = |c: &CpuConfig| c.debugger_transition_cost >= drain_bound(c);
        let key = |c: &CpuConfig| CpuConfig { debugger_transition_cost: 0, ..*c };
        let mut leads: Vec<CpuConfig> = Vec::new();
        let mut slots = Vec::with_capacity(cfgs.len());
        for c in cfgs {
            let model = leads
                .iter()
                .position(|l| l == c || (drains(l) && drains(c) && key(l) == key(c)))
                .unwrap_or_else(|| {
                    leads.push(*c);
                    leads.len() - 1
                });
            let lead = &mut leads[model];
            lead.debugger_transition_cost =
                lead.debugger_transition_cost.min(c.debugger_transition_cost);
            slots.push(Slot { model, cost: c.debugger_transition_cost, front: 0, commit: 0 });
        }
        let shifted = slots.iter().any(|s| s.cost != leads[s.model].debugger_transition_cost);
        TimingBatch {
            models: leads.into_iter().map(Timing::new).collect(),
            slots,
            shifted,
            fresh: false,
        }
    }

    /// Number of configurations in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The memory hierarchy of configuration `i` (for inspecting cache
    /// statistics). Configurations in one class share it.
    pub fn mem_system(&self, i: usize) -> &MemSystem {
        self.models[self.slots[i].model].mem_system()
    }

    /// The branch predictor of configuration `i`. Configurations in one
    /// class share it.
    pub fn predictor(&self, i: usize) -> &Predictor {
        self.models[self.slots[i].model].predictor()
    }

    /// Account one instruction in every model.
    pub fn consume(&mut self, e: &Exec) {
        self.fresh = true;
        for t in &mut self.models {
            t.consume(e);
        }
    }

    /// Account a whole slice of consecutive instructions in every
    /// model, models-outer / records-inner: each model walks the slice
    /// while its own state is hot, eliminating the per-record batch
    /// dispatch. Per-model state is fully isolated, so this is
    /// cycle-identical to calling [`TimingBatch::consume`] once per
    /// record — valid only while no per-record side channel (a debugger
    /// stall) interleaves with the slice.
    pub fn consume_slice(&mut self, slice: &[Exec]) {
        self.fresh |= !slice.is_empty();
        for t in &mut self.models {
            for e in slice {
                t.consume(e);
            }
        }
    }

    /// Charge every configuration a spurious debugger transition at its
    /// own [`CpuConfig::debugger_transition_cost`]: each model stalls
    /// for its lead's cost, and each configuration's offset grows by
    /// the difference. A stall does not move the commit frontier, so a
    /// second stall with no record between charges no further cycles
    /// (as in [`Timing::debugger_stall`]): the offset restarts from the
    /// last commit's, not from the previous stall's.
    pub fn debugger_stall(&mut self) {
        for t in &mut self.models {
            t.debugger_stall(t.cfg.debugger_transition_cost);
        }
        if self.shifted {
            for s in &mut self.slots {
                if self.fresh {
                    s.commit = s.front;
                }
                s.front = s.commit + (s.cost - self.models[s.model].cfg.debugger_transition_cost);
            }
        }
        self.fresh = false;
    }

    /// Close out the run: per-configuration statistics in construction
    /// order.
    pub fn finish(mut self) -> Vec<RunStats> {
        let lead: Vec<RunStats> = self.models.iter_mut().map(Timing::finish).collect();
        self.slots
            .iter()
            .map(|s| {
                let stats = lead[s.model];
                let offset = if self.fresh { s.front } else { s.commit };
                RunStats {
                    cycles: stats.cycles + offset,
                    debugger_stall_cycles: stats.debugger_stalls * s.cost,
                    ..stats
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Branch, Event, MemOp};
    use dise_isa::{AluOp, Operand, Reg};

    fn cfg() -> CpuConfig {
        CpuConfig::default()
    }

    fn plain_alu(pc: u64, rd: u8, ra: u8) -> Exec {
        Exec {
            pc,
            disepc: 0,
            in_dise_call: false,
            instr: Instr::Alu {
                op: AluOp::Add,
                rd: Reg::gpr(rd),
                ra: Reg::gpr(ra),
                rb: Operand::Imm(1),
            },
            fetched: true,
            branch: None,
            mem: None,
            flush: None,
            event: None,
        }
    }

    #[test]
    fn independent_alus_reach_full_width() {
        let mut t = Timing::new(cfg());
        // 4000 independent single-cycle ALU ops: IPC should approach 4.
        for i in 0..4000u64 {
            let e = plain_alu(0x10_0000 + (i % 16) * 4, (i % 8) as u8, 20);
            t.consume(&e);
        }
        let s = t.finish();
        assert!(s.ipc() > 3.0, "ipc = {}", s.ipc());
    }

    #[test]
    fn dependent_chain_limits_to_one_ipc() {
        let mut t = Timing::new(cfg());
        for i in 0..2000u64 {
            // r1 = r1 + 1 repeatedly: serial dependence.
            let e = plain_alu(0x10_0000 + (i % 16) * 4, 1, 1);
            t.consume(&e);
        }
        let s = t.finish();
        assert!(s.ipc() < 1.2, "ipc = {}", s.ipc());
        assert!(s.ipc() > 0.8, "ipc = {}", s.ipc());
    }

    #[test]
    fn dise_flush_costs_cycles() {
        let base = {
            let mut t = Timing::new(cfg());
            for i in 0..1000u64 {
                t.consume(&plain_alu(0x10_0000 + (i % 16) * 4, (i % 8) as u8, 20));
            }
            t.finish().cycles
        };
        let flushed = {
            let mut t = Timing::new(cfg());
            for i in 0..1000u64 {
                let mut e = plain_alu(0x10_0000 + (i % 16) * 4, (i % 8) as u8, 20);
                if i % 10 == 0 {
                    e.flush = Some(FlushKind::DiseBranch);
                    e.fetched = false;
                    e.disepc = 1;
                }
                t.consume(&e);
            }
            t.finish().cycles
        };
        assert!(
            flushed > base + 500,
            "flushes should add ≈100×10 cycles: base {base}, flushed {flushed}"
        );
    }

    #[test]
    fn multithreading_suppresses_call_flushes() {
        let run = |mt: bool| {
            let mut c = cfg();
            c.multithreaded_dise_calls = mt;
            let mut t = Timing::new(c);
            for i in 0..1000u64 {
                let mut e = plain_alu(0x10_0000 + (i % 16) * 4, (i % 8) as u8, 20);
                if i % 10 == 0 {
                    e.flush = Some(FlushKind::DiseCall);
                }
                if i % 10 == 5 {
                    e.flush = Some(FlushKind::DiseRet);
                }
                t.consume(&e);
            }
            t.finish()
        };
        let without = run(false);
        let with = run(true);
        assert!(with.cycles < without.cycles);
        assert_eq!(with.dise_flushes, 0);
        assert!(without.dise_flushes > 0);
    }

    #[test]
    fn debugger_stall_dominates() {
        let mut t = Timing::new(cfg());
        t.consume(&plain_alu(0x10_0000, 1, 2));
        t.debugger_stall(100_000);
        t.consume(&plain_alu(0x10_0004, 3, 4));
        let s = t.finish();
        assert!(s.cycles >= 100_000);
        assert_eq!(s.debugger_stalls, 1);
        assert_eq!(s.debugger_stall_cycles, 100_000);
    }

    #[test]
    fn load_dependence_on_store_address() {
        // A load that reads the quad a prior store wrote must wait.
        let mut t = Timing::new(cfg());
        let mut store = plain_alu(0x10_0000, 1, 2);
        store.instr =
            Instr::Store { width: dise_isa::Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 };
        store.mem =
            Some(MemOp { addr: 0x100, width: 8, is_store: true, old_value: 0, new_value: 1 });
        let sc = t.consume(&store);

        let mut load = plain_alu(0x10_0004, 3, 4);
        load.instr =
            Instr::Load { width: dise_isa::Width::Q, rd: Reg::gpr(3), base: Reg::gpr(4), disp: 0 };
        load.mem =
            Some(MemOp { addr: 0x100, width: 8, is_store: false, old_value: 1, new_value: 1 });
        let lc = t.consume(&load);
        assert!(lc >= sc, "load commits no earlier than the store it depends on");
    }

    #[test]
    fn mispredicted_branches_add_bubbles() {
        // Random directions on one PC: predictor can't learn, frequent
        // mispredicts, low IPC.
        let run = |pattern: &dyn Fn(u64) -> bool| {
            let mut t = Timing::new(cfg());
            for i in 0..2000u64 {
                let taken = pattern(i);
                let mut e = plain_alu(0x10_0000, (i % 8) as u8, 20);
                e.instr = Instr::CondBr { cond: dise_isa::Cond::Eq, rs: Reg::gpr(20), disp: 4 };
                e.branch = Some(Branch { kind: BranchKind::Conditional, taken, target: 0x10_0040 });
                t.consume(&e);
                // a few straight-line instructions between branches
                for j in 0..3 {
                    t.consume(&plain_alu(0x10_0044 + j * 4, ((i + j) % 8) as u8, 21));
                }
            }
            t.finish()
        };
        let steady = run(&|_| true);
        // LFSR-ish pseudo-random pattern the 12-bit-history gshare cannot
        // fully capture.
        let chaotic = run(&|i| ((i * 2654435761u64) >> 13) & 1 == 1);
        assert!(chaotic.mispredicts > steady.mispredicts * 2);
        assert!(chaotic.cycles > steady.cycles);
    }

    #[test]
    fn icache_miss_slows_cold_code() {
        // Walk a large code footprint twice: first pass cold, second warm.
        let mut t = Timing::new(cfg());
        for i in 0..2000u64 {
            t.consume(&plain_alu(0x10_0000 + i * 4, (i % 8) as u8, 20));
        }
        let cold = t.finish().cycles;
        let mut t2 = Timing::new(cfg());
        // Prime.
        for i in 0..2000u64 {
            t2.consume(&plain_alu(0x10_0000 + i * 4, (i % 8) as u8, 20));
        }
        let primed = t2.finish().cycles;
        assert_eq!(cold, primed, "determinism");
        // Same loop within one line: no further misses.
        let mut t3 = Timing::new(cfg());
        for i in 0..2000u64 {
            t3.consume(&plain_alu(0x10_0000 + (i % 16) * 4, (i % 8) as u8, 20));
        }
        assert!(t3.finish().cycles < cold);
    }

    #[test]
    fn unfetched_instructions_skip_icache() {
        // Replacement instructions spanning many "lines" must not touch
        // the I-cache.
        let mut t = Timing::new(cfg());
        for i in 0..100u64 {
            let mut e = plain_alu(0x10_0000 + i * 256, (i % 8) as u8, 20);
            e.fetched = false;
            e.disepc = 1;
            t.consume(&e);
        }
        let (l1i, ..) = t.mem_system().stats();
        assert_eq!(l1i.accesses, 0);
    }

    /// The sliding-window reservation table must reproduce the sparse
    /// maps it replaced, one per port: same earliest-free-cycle answers
    /// under a pseudo-random mix of ready cycles, capacities, ports and
    /// frontier jumps.
    #[test]
    fn use_table_matches_sparse_reference() {
        use std::collections::HashMap;
        fn reference(table: &mut HashMap<u64, u64>, cap: u64, ready: u64) -> u64 {
            let mut c = ready;
            loop {
                let used = table.entry(c).or_insert(0);
                if *used < cap {
                    *used += 1;
                    return c;
                }
                c += 1;
            }
        }
        let mut fast = UseTable::new(1024);
        let mut slow = [HashMap::new(), HashMap::new()];
        let mut frontier = 0u64;
        let mut lcg = 1u64;
        for i in 0..200_000u64 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mostly near-frontier readies; occasional operand stalls up
            // to ~200 cycles out; rare 100K debugger-stall jumps.
            let jump = if lcg.is_multiple_of(997) { 100_000 } else { i % 3 };
            frontier += jump;
            let ready = frontier + 1 + (lcg >> 32) % 200;
            let cap = 1 + lcg % 4;
            let (port, which) =
                if (lcg >> 20) & 1 == 0 { (Port::Issue, 0) } else { (Port::Mem, 1) };
            assert_eq!(
                fast.reserve(port, cap, ready, frontier + 1),
                reference(&mut slow[which], cap, ready),
                "diverged at step {i}"
            );
        }
    }

    fn load(pc: u64, rd: u8, base: u8, addr: u64) -> Exec {
        let mut e = plain_alu(pc, rd, base);
        e.instr = Instr::Load {
            width: dise_isa::Width::Q,
            rd: Reg::gpr(rd),
            base: Reg::gpr(base),
            disp: 0,
        };
        e.mem = Some(MemOp { addr, width: 8, is_store: false, old_value: 0, new_value: 0 });
        e
    }

    fn store(pc: u64, addr: u64, width: u64) -> Exec {
        let mut e = plain_alu(pc, 1, 2);
        e.instr =
            Instr::Store { width: dise_isa::Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 };
        e.mem = Some(MemOp { addr, width, is_store: true, old_value: 0, new_value: 1 });
        e
    }

    /// A chain of dependent cold loads keeps the whole window waiting
    /// on memory, the worst case the usage window is sized for: the
    /// latest completion runs almost the full span bound ahead of the
    /// front end, and never past it.
    #[test]
    fn pointer_chase_approaches_the_span_bound() {
        let mut c = cfg();
        c.mem.mem_latency = 400;
        let slots = use_window_slots(&c) as u64;
        let mut t = Timing::new(c);
        let mut widest = 0;
        for i in 0..4_000u64 {
            t.consume(&load(0x10_0000 + (i % 8) * 4, 1, 1, 0x100_0000 + i * 0x1_0040));
            widest = widest.max(t.reg_ready[1] - t.front_cycle);
        }
        assert!(widest <= slots, "span {widest} exceeds the {slots}-slot window");
        // W = 80 links of 433 cycles each, against a bound of 81 links.
        assert!(widest > 80 * 433 * 9 / 10, "span {widest} should near the bound");
        assert_eq!(slots, 65_536, "bound 35,134 cycles plus slack");
        assert_eq!(use_window_slots(&cfg()), 16_384);
    }

    /// Under the paper's machine the model's own tables take about a
    /// quarter of a megabyte, against the 4 MB of fixed 128K-cycle
    /// windows they replace; the caches and predictor add their
    /// geometry's tag and counter arrays (about 0.2 MB).
    #[test]
    fn default_model_tables_are_small() {
        let t = Timing::new(cfg());
        let bytes = std::mem::size_of_val(&*t.port_use.slots)
            + std::mem::size_of_val(&*t.store_ready.slots)
            + std::mem::size_of_val(&*t.recent);
        assert_eq!(bytes, 16_384 * 16 + 512 * 16 + 128 * 16);
        assert!(bytes < 300 * 1024, "{bytes} bytes");
    }

    /// Wrapping accesses: `stq` at `u64::MAX - 3` writes the last 4
    /// bytes of memory and the first 4. A load of either half must wait
    /// for the store.
    #[test]
    fn wrapping_store_orders_a_later_load() {
        for load_addr in [u64::MAX - 3, 0] {
            let mut t = Timing::new(cfg());
            // A cold store: its completion trails the load's dispatch.
            let sc = t.consume(&store(0x10_0000, u64::MAX - 3, 8));
            let mut l = load(0x10_0004, 3, 4, load_addr);
            l.mem.as_mut().unwrap().width = 4;
            let lc = t.consume(&l);
            assert!(lc >= sc, "load at {load_addr:#x} commits no earlier than the store");
            assert!(t.store_ready.ready(0) > 0 && t.store_ready.ready(u64::MAX >> 3) > 0);
        }
    }

    /// A store stream over a million distinct quads, each a cold miss so
    /// many stay live at once: the store table keeps its fixed slots and
    /// a spill map bounded by the live count.
    #[test]
    fn store_table_stays_bounded() {
        let mut c = cfg();
        c.mem.mem_latency = 400;
        let mut t = Timing::new(c);
        let mut largest_spill = 0;
        // A bijective mix of the low 32 bits: distinct, scattered quads.
        let quad = |i: u64| {
            let mut x = i as u32;
            x ^= x >> 16;
            x = x.wrapping_mul(0x7feb_352d);
            x ^= x >> 15;
            x = x.wrapping_mul(0x846c_a68b);
            u64::from(x ^ (x >> 16))
        };
        for i in 0..1_000_000u64 {
            t.consume(&store(0x10_0000 + (i % 16) * 4, quad(i) * 8, 8));
            largest_spill = largest_spill.max(t.store_ready.spill.len());
        }
        assert_eq!(t.store_ready.slots.len(), 512, "four slots per ROB entry, never more");
        assert!(largest_spill > 0, "colliding live stores must spill");
        assert!(largest_spill <= 4 * c.rob_entries + MIN_PRUNE, "spill peaked at {largest_spill}");
    }

    #[test]
    fn batch_of_one_is_cycle_identical_to_lone_model() {
        let stream: Vec<Exec> = (0..3000u64)
            .map(|i| {
                let mut e = plain_alu(0x10_0000 + (i % 64) * 4, (i % 8) as u8, (i % 3) as u8);
                if i % 50 == 0 {
                    e.flush = Some(FlushKind::DiseBranch);
                }
                e
            })
            .collect();
        let mut lone = Timing::new(cfg());
        let mut batch = TimingBatch::new(&[cfg()]);
        for (i, e) in stream.iter().enumerate() {
            lone.consume(e);
            batch.consume(e);
            if i % 100 == 0 {
                lone.debugger_stall(cfg().debugger_transition_cost);
                batch.debugger_stall();
            }
        }
        assert_eq!(batch.finish(), vec![lone.finish()]);
    }

    #[test]
    fn batch_models_are_isolated_and_pay_their_own_costs() {
        let mut cheap = cfg();
        cheap.debugger_transition_cost = 1_000;
        let mut slow_mem = cfg();
        slow_mem.mem.mem_latency = 400;
        // [default, cheap-transition, slow-memory, default]: the two
        // default models must agree exactly (no cross-model leakage
        // through predictor, caches or windows), and the odd ones must
        // differ in the expected direction.
        let mut batch = TimingBatch::new(&[cfg(), cheap, slow_mem, cfg()]);
        let mut lone = Timing::new(cfg());
        for i in 0..2000u64 {
            let mut e = plain_alu(0x10_0000 + i * 4, (i % 8) as u8, 20);
            if i % 7 == 0 {
                e.instr = Instr::Load {
                    width: dise_isa::Width::Q,
                    rd: Reg::gpr((i % 8) as u8),
                    base: Reg::gpr(20),
                    disp: 0,
                };
                e.mem = Some(MemOp {
                    addr: 0x2000 + (i % 512) * 8,
                    width: 8,
                    is_store: false,
                    old_value: 0,
                    new_value: 0,
                });
            }
            lone.consume(&e);
            batch.consume(&e);
            if i % 400 == 0 {
                lone.debugger_stall(cfg().debugger_transition_cost);
                batch.debugger_stall();
            }
        }
        let lone = lone.finish();
        let all = batch.finish();
        assert_eq!(all[0], lone, "first default model matches the lone run");
        assert_eq!(all[3], lone, "second default model is untouched by its neighbours");
        assert!(all[1].cycles < all[0].cycles, "cheaper transitions finish sooner");
        assert_eq!(all[1].debugger_stall_cycles, 1_000 * all[1].debugger_stalls);
        assert!(all[2].cycles > all[0].cycles, "slower memory finishes later");
    }

    fn with_cost(cost: u64) -> CpuConfig {
        CpuConfig { debugger_transition_cost: cost, ..cfg() }
    }

    /// Lone models, one per configuration, driven through `steps`
    /// (`None` is a stall), against one batch of them.
    fn batch_matches_lone_models(cfgs: &[CpuConfig], steps: &[Option<Exec>]) {
        let mut lone: Vec<Timing> = cfgs.iter().map(|c| Timing::new(*c)).collect();
        let mut batch = TimingBatch::new(cfgs);
        for step in steps {
            match step {
                Some(e) => {
                    batch.consume(e);
                    lone.iter_mut().for_each(|t| _ = t.consume(e));
                }
                None => {
                    batch.debugger_stall();
                    lone.iter_mut().for_each(|t| t.debugger_stall(t.cfg.debugger_transition_cost));
                }
            }
        }
        let lone: Vec<RunStats> = lone.iter_mut().map(Timing::finish).collect();
        assert_eq!(batch.finish(), lone);
    }

    /// The transition-cost sweep's three configurations are one class:
    /// one model, whatever order the costs come in.
    #[test]
    fn sweep_costs_share_one_model() {
        let sweep = [with_cost(290_000), with_cost(100_000), with_cost(513_000)];
        let batch = TimingBatch::new(&sweep);
        assert_eq!((batch.len(), batch.models.len()), (3, 1));
        assert_eq!(batch.models[0].cfg.debugger_transition_cost, 100_000);
        assert!(batch.shifted);
        assert!(!TimingBatch::new(&[cfg()]).shifted, "a batch of one moves no offsets");
        let dup = TimingBatch::new(&[with_cost(5), with_cost(5)]);
        assert_eq!(dup.models.len(), 1, "exact duplicates share even below the bound");
        assert!(!dup.shifted);
    }

    /// A cost below `max(mispredict_penalty, dise_flush_penalty)` may
    /// not drain the pipeline, so it keeps its own model; costs at or
    /// above the bound still share theirs, and another machine never
    /// shares.
    #[test]
    fn below_the_bound_cost_builds_its_own_model() {
        let bound = drain_bound(&cfg());
        assert!(bound > 1);
        let mut slow_mem = cfg();
        slow_mem.mem.mem_latency = 400;
        let cfgs =
            [with_cost(bound), with_cost(bound - 1), with_cost(100_000), slow_mem, with_cost(0)];
        let batch = TimingBatch::new(&cfgs);
        assert_eq!(
            batch.slots.iter().map(|s| s.model).collect::<Vec<_>>(),
            [0, 1, 0, 2, 3],
            "bound and 100K share; bound - 1, another machine and 0 do not"
        );
        let lead_costs: Vec<u64> =
            batch.models.iter().map(|t| t.cfg.debugger_transition_cost).collect();
        assert_eq!(lead_costs, [bound, bound - 1, 100_000, 0]);
    }

    /// Stalls at every awkward place: before the first record, two and
    /// three with no record between them, and right before `finish`.
    #[test]
    fn shared_models_match_lone_models_around_stalls() {
        let bound = drain_bound(&cfg());
        let cfgs = [
            with_cost(513_000),
            with_cost(bound),
            with_cost(bound - 1),
            with_cost(100_000),
            with_cost(100_000),
            with_cost(7),
        ];
        let record = |i: u64| {
            let mut e = plain_alu(0x10_0000 + (i % 64) * 4, (i % 8) as u8, (i % 3) as u8);
            if i.is_multiple_of(9) {
                e.flush = Some(FlushKind::DiseBranch);
            }
            Some(e)
        };
        let records = |from: u64, n: u64| (from..from + n).map(record);
        let mut steps: Vec<Option<Exec>> = vec![None];
        steps.extend(records(0, 50));
        steps.extend([None, None]);
        steps.extend(records(50, 50));
        steps.extend([None, None, None]);
        steps.extend(records(100, 1));
        steps.push(None);
        steps.extend(records(101, 30));
        steps.push(None);
        batch_matches_lone_models(&cfgs, &steps);
        batch_matches_lone_models(&cfgs, &[None]);
        batch_matches_lone_models(&cfgs, &[None, None]);
        batch_matches_lone_models(&cfgs, &[]);
        batch_matches_lone_models(&cfgs, &steps[1..steps.len() - 1]);
    }

    #[test]
    fn trap_event_field_is_inert_in_timing() {
        // Timing treats events as data; only debugger_stall charges cost.
        let mut t = Timing::new(cfg());
        let mut e = plain_alu(0x10_0000, 1, 2);
        e.event = Some(Event::Trap);
        t.consume(&e);
        let s = t.finish();
        assert_eq!(s.debugger_stalls, 0);
        assert!(s.cycles < 500, "only cold-miss latency, no stall: {}", s.cycles);
    }

    /// The invariant observer batching (`dise-debug`'s `ObserverBatch`)
    /// rests on: two streams identical except for their `event` fields
    /// cost exactly the same cycles. Events (including the `ProtFault`
    /// a stored trace may still carry) are functional annotations, so
    /// debugger cost enters exclusively through
    /// [`Timing::debugger_stall`].
    /// Since the batch composes one independent [`TimingBatch`] per
    /// member — each member carrying its own watchpoint set — this is
    /// also what lets one pass serve members whose *watchpoints*
    /// differ: watchpoints only change which stalls a member charges,
    /// never what the shared stream costs.
    #[test]
    fn event_annotations_never_change_cycle_accounting() {
        let run = |annotate: bool| {
            let mut t = Timing::new(cfg());
            for i in 0..2000u64 {
                let mut e = plain_alu(0x10_0000 + (i % 64) * 4, (i % 8) as u8, 20);
                if i % 7 == 0 {
                    e.instr = Instr::Store {
                        width: dise_isa::Width::Q,
                        rs: Reg::gpr(1),
                        base: Reg::gpr(20),
                        disp: 0,
                    };
                    e.mem = Some(MemOp {
                        addr: 0x2000 + (i % 128) * 8,
                        width: 8,
                        is_store: true,
                        old_value: 0,
                        new_value: 1,
                    });
                    if annotate {
                        e.event = Some(Event::ProtFault { addr: 0x2000 });
                    }
                } else if annotate && i % 11 == 0 {
                    e.event = Some(Event::Trap);
                }
                t.consume(&e);
            }
            t.finish()
        };
        assert_eq!(run(false), run(true), "events are functional annotations, not costs");
    }
}
