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
//! and the port-usage window and the store table each keep a small
//! direct-mapped table of the entries that can still matter, spilling
//! the rare collision between two live entries to a pruned map (see
//! [`UseTable`] and [`StoreTable`]). Nothing grows with the length of
//! the run or the size of its store footprint.
//!
//! A record's static facts — source and destination registers and ALU
//! latency — arrive resolved in [`Exec::facts`](crate::Exec): the
//! executor computes them once per static instruction when it decodes a
//! block or fuses a replacement sequence, and the trace decoder once
//! per position, so the per-record path never matches on the
//! instruction.
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

use dise_mem::{AddrHasher, MemSystem};

use crate::exec::{BranchKind, Exec, FlushKind, MemOp};
use crate::{CpuConfig, Predictor};

/// Maps keyed by quadword or cycle number, with `dise-mem`'s
/// multiply-fold hasher: simulator addresses and cycles need spread,
/// not DoS resistance.
type U64Map<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// One cycle's usage: issue slots and memory ports taken. The counts
/// never exceed the window's instruction count, so `u32` holds them.
#[derive(Clone, Copy, Debug, Default)]
struct CycleUse {
    cycle: u64,
    issue: u32,
    mem: u32,
}

/// Slots in the [`UseTable`] ring (8 KB). Almost every live reservation
/// lies within a few hundred cycles of the front end (a cold load's
/// dependants wait about 130); the worst case, a window-long chain of
/// cold loads, spans tens of thousands, and those collisions spill.
/// Rings of 256 and 1,024 slots timed within 2 % of this one.
const USE_SLOTS: usize = 512;

/// Per-cycle resource-usage counters for both ports, kept only for the
/// cycles a later instruction can still reserve.
///
/// Every probe starts at or after `F + 1` (an instruction is ready no
/// earlier than its dispatch + 1, and dispatch never passes the front
/// end's cycle `F`, which only advances), so a cycle below the current
/// `F + 1` is dead: nothing will reserve it again.
///
/// Usage sits in a direct-mapped ring of `(cycle, issue, mem)` slots
/// indexed by cycle: a memory operation's port is usually reserved in
/// the cycle it issues, so both counters share a cache line. A cycle
/// whose slot holds a dead cycle (or none — no reservation is ever made
/// at cycle 0, so a zeroed slot is an unused one) takes the slot over;
/// a cycle whose slot holds another live cycle goes to a spill map
/// instead. A cycle is in at most one of the two places, so a probe
/// checks its slot, then the spill map. The spill map is pruned of dead
/// cycles whenever it doubles past its last pruned size, and dropped
/// whole once its latest cycle is dead.
///
/// Live cycles are few. An instruction dispatches only once the one
/// `rs_entries` before it has issued and the one `rob_entries` before it
/// has committed, so at most `W = min(rob_entries, rs_entries)`
/// instructions issue after `F`, each reserving at most two cycles: the
/// spill map stays within a small multiple of `2W` entries.
#[derive(Clone, Debug)]
struct UseTable {
    slots: Box<[CycleUse]>,
    /// Issue slots and memory ports per cycle, at least one each.
    issue_cap: u32,
    mem_cap: u32,
    /// Live cycles whose slot holds another live cycle.
    spill: U64Map<CycleUse>,
    /// The latest cycle ever spilled since the map was last empty.
    spill_max: u64,
    /// Spill size that triggers the next prune.
    prune_at: usize,
}

impl UseTable {
    /// A ring of `slots` cycles (a power of two) for `issue_cap` issue
    /// slots and `mem_cap` memory ports per cycle. A capacity of 0 acts
    /// as 1: a cycle no one has reserved always takes one reservation.
    fn new(slots: usize, issue_cap: u64, mem_cap: u64) -> UseTable {
        assert!(slots.is_power_of_two(), "usage ring must be a power of two");
        let cap = |c: u64| u32::try_from(c.max(1)).unwrap_or(u32::MAX);
        UseTable {
            slots: vec![CycleUse::default(); slots].into_boxed_slice(),
            issue_cap: cap(issue_cap),
            mem_cap: cap(mem_cap),
            spill: U64Map::default(),
            spill_max: 0,
            prune_at: MIN_PRUNE,
        }
    }

    /// Reserve an issue slot in the earliest cycle ≥ `ready` with one
    /// free and, for a memory operation (`mem`), a memory port in the
    /// earliest cycle ≥ that one with one free; returns the last cycle
    /// reserved, when the instruction issues. `live_floor` is `F + 1`,
    /// a lower bound on every future `ready`: usage tagged below it is
    /// dead. A probe below it could find its cycle's usage already
    /// dropped, so that is asserted never to happen.
    #[inline(always)]
    fn reserve(&mut self, ready: u64, live_floor: u64, mem: bool) -> u64 {
        assert!(
            ready >= live_floor,
            "port probe at cycle {ready} below the live floor {live_floor}"
        );
        let (issue_cap, mem_cap) = (self.issue_cap, self.mem_cap);
        let mut c = ready;
        let mut u = self.usage(c, live_floor);
        while u.issue >= issue_cap {
            c += 1;
            u = self.usage(c, live_floor);
        }
        u.issue += 1;
        if mem {
            while u.mem >= mem_cap {
                c += 1;
                u = self.usage(c, live_floor);
            }
            u.mem += 1;
        }
        c
    }

    /// The usage of live cycle `c`, created empty on first probe.
    #[inline(always)]
    fn usage(&mut self, c: u64, live_floor: u64) -> &mut CycleUse {
        let i = (c as usize) & (self.slots.len() - 1);
        if self.slots[i].cycle != c {
            if self.slots[i].cycle >= live_floor || !self.spill.is_empty() {
                return self.usage_spilling(i, c, live_floor);
            }
            // A dead or unused slot, and nothing spilled: `c` takes it.
            self.slots[i] = CycleUse { cycle: c, issue: 0, mem: 0 };
        }
        &mut self.slots[i]
    }

    /// [`UseTable::usage`] of a cycle `c` not in its slot `i` while the
    /// slot holds another live cycle or the spill map is in use.
    #[cold]
    #[inline(never)]
    fn usage_spilling(&mut self, i: usize, c: u64, live_floor: u64) -> &mut CycleUse {
        if self.slots[i].cycle >= live_floor {
            if self.spill.is_empty() {
                self.spill_max = 0;
            }
            if self.spill.len() >= self.prune_at {
                self.spill.retain(|&cycle, _| cycle >= live_floor);
                self.prune_at = (2 * self.spill.len()).max(MIN_PRUNE);
            }
            self.spill_max = self.spill_max.max(c);
            return self.spill.entry(c).or_insert(CycleUse { cycle: c, issue: 0, mem: 0 });
        }
        // A dead slot: `c` takes it over, with whatever it spilled while
        // the slot was live.
        let mut fresh = CycleUse { cycle: c, issue: 0, mem: 0 };
        if self.spill_max < live_floor {
            self.spill.clear();
        } else if let Some(u) = self.spill.remove(&c) {
            fresh = u;
        }
        self.slots[i] = fresh;
        &mut self.slots[i]
    }
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
    spill: U64Map<u64>,
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
            spill: U64Map::default(),
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

    /// Per-register ready cycle (latest in-flight definition), indexed
    /// by [`InstrFacts`](crate::InstrFacts) slot: slot `NO_SOURCE` stays
    /// 0 and slot `NO_DEST` absorbs writes nothing reads. 64 slots, so a
    /// six-bit index needs no bounds check.
    reg_ready: [u64; 64],
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
            reg_ready: [0; 64],
            store_ready: StoreTable::new(cfg.rob_entries),
            recent: vec![(0, 0); recent].into_boxed_slice(),
            port_use: UseTable::new(USE_SLOTS, cfg.width, cfg.mem_ports),
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
        // Instructions `seq - rob_entries` and `seq - rs_entries`. Before
        // either exists the index wraps to a slot at or after `seq` in
        // the ring (which holds at least both window sizes), one no
        // instruction has written yet: its zero cycles bound nothing.
        let mask = self.recent.len() - 1;
        let rob = seq.wrapping_sub(self.cfg.rob_entries as u64) as usize & mask;
        let rs = seq.wrapping_sub(self.cfg.rs_entries as u64) as usize & mask;
        dispatch = dispatch.max(self.recent[rob].1).max(self.recent[rs].0);
        self.front_cycle = self.front_cycle.max(dispatch);

        // ---- Operand readiness ------------------------------------------
        let facts = e.facts;
        let [a, b] = facts.sources();
        let mut ready = (dispatch + 1).max(self.reg_ready[a]).max(self.reg_ready[b]);
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
        // `front_cycle + 1` lower-bounds every future probe: usage tagged
        // below it is dead.
        let live_floor = self.front_cycle + 1;
        let issue = self.port_use.reserve(ready, live_floor, e.mem.is_some());

        // ---- Execute -----------------------------------------------------
        let latency = match e.mem {
            Some(m) => self.mem.data_access(m.addr, m.is_store),
            None => facts.latency(),
        };
        let done = issue + latency;
        self.reg_ready[facts.dest()] = done;
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
                        e.facts.is_jmp() && !self.pred.predict_indirect(e.pc, b.target)
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
    #[inline]
    pub fn consume(&mut self, e: &Exec) {
        self.fresh = true;
        if let [t] = self.models.as_mut_slice() {
            t.consume(e);
        } else {
            for t in &mut self.models {
                t.consume(e);
            }
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
    use crate::InstrFacts;
    use dise_isa::{AluOp, Instr, Operand, Reg};

    fn cfg() -> CpuConfig {
        CpuConfig::default()
    }

    fn plain_alu(pc: u64, rd: u8, ra: u8) -> Exec {
        let instr =
            Instr::Alu { op: AluOp::Add, rd: Reg::gpr(rd), ra: Reg::gpr(ra), rb: Operand::Imm(1) };
        Exec {
            pc,
            disepc: 0,
            in_dise_call: false,
            instr,
            fetched: true,
            branch: None,
            mem: None,
            flush: None,
            event: None,
            facts: InstrFacts::of(&instr),
        }
    }

    /// Give `e` a new instruction, with its facts.
    fn set_instr(e: &mut Exec, instr: Instr) {
        e.instr = instr;
        e.facts = InstrFacts::of(&instr);
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
        set_instr(
            &mut store,
            Instr::Store { width: dise_isa::Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 },
        );
        store.mem =
            Some(MemOp { addr: 0x100, width: 8, is_store: true, old_value: 0, new_value: 1 });
        let sc = t.consume(&store);

        let mut load = plain_alu(0x10_0004, 3, 4);
        set_instr(
            &mut load,
            Instr::Load { width: dise_isa::Width::Q, rd: Reg::gpr(3), base: Reg::gpr(4), disp: 0 },
        );
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
                set_instr(
                    &mut e,
                    Instr::CondBr { cond: dise_isa::Cond::Eq, rs: Reg::gpr(20), disp: 4 },
                );
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

    /// The ring-plus-spill reservation table must reproduce the sparse
    /// maps it replaced, one per port: same earliest-free-cycle answers
    /// under a pseudo-random mix of ready cycles, memory operations and
    /// frontier jumps, at several port capacities. Far-future
    /// reservations collide with live cycles in the ring and drive the
    /// spill map through growth, pruning and wholesale drops.
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
        for (issue_cap, mem_cap) in [(4, 2), (1, 1), (3, 1), (2, 4)] {
            let mut fast = UseTable::new(1024, issue_cap, mem_cap);
            let mut slow = [HashMap::new(), HashMap::new()];
            let mut frontier = 0u64;
            let mut lcg = 1u64;
            let (mut largest_spill, mut drops) = (0, 0);
            for i in 0..200_000u64 {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Mostly near-frontier readies; occasional operand stalls
                // up to ~200 cycles out; far-future readies up to 50K
                // cycles out; rare 100K debugger-stall jumps.
                let jump = if lcg.is_multiple_of(997) { 100_000 } else { i % 3 };
                frontier += jump;
                let ahead = if (lcg >> 24).is_multiple_of(20) {
                    (lcg >> 32) % 50_000
                } else {
                    (lcg >> 32) % 200
                };
                let ready = frontier + 1 + ahead;
                let mem = (lcg >> 20) & 1 == 1;
                let mut want = reference(&mut slow[0], issue_cap, ready);
                if mem {
                    want = reference(&mut slow[1], mem_cap, want);
                }
                let spilled = fast.spill.len();
                assert_eq!(
                    fast.reserve(ready, frontier + 1, mem),
                    want,
                    "diverged at step {i}, caps {issue_cap}/{mem_cap}"
                );
                largest_spill = largest_spill.max(fast.spill.len());
                drops += usize::from(spilled > 1 && fast.spill.is_empty());
            }
            assert!(
                largest_spill > MIN_PRUNE,
                "the spill map must grow past pruning: {largest_spill}"
            );
            assert!(drops > 0, "a dead spill map must be dropped whole");
        }
    }

    fn load(pc: u64, rd: u8, base: u8, addr: u64) -> Exec {
        let mut e = plain_alu(pc, rd, base);
        set_instr(
            &mut e,
            Instr::Load {
                width: dise_isa::Width::Q,
                rd: Reg::gpr(rd),
                base: Reg::gpr(base),
                disp: 0,
            },
        );
        e.mem = Some(MemOp { addr, width: 8, is_store: false, old_value: 0, new_value: 0 });
        e
    }

    fn store(pc: u64, addr: u64, width: u64) -> Exec {
        let mut e = plain_alu(pc, 1, 2);
        set_instr(
            &mut e,
            Instr::Store { width: dise_isa::Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 },
        );
        e.mem = Some(MemOp { addr, width, is_store: true, old_value: 0, new_value: 1 });
        e
    }

    /// A chain of dependent cold loads keeps the whole window waiting
    /// on memory, the worst case for the port window: the latest
    /// completion runs about 80 ring lengths ahead of the front end.
    /// With each link exactly one ring length long, every link's cycle
    /// lands on the same slot, so all but one of them spill. Every
    /// commit cycle still equals that of a model whose ring is longer
    /// than any reservation can run ahead — at most `W + 1 = 81` links
    /// of 512 cycles plus `W / width + W / mem_ports` cycles of port
    /// waits, 41,533 in all — and so never spills.
    #[test]
    fn pointer_chase_approaches_the_span_bound() {
        let mut c = cfg();
        let link = USE_SLOTS as u64;
        c.mem.mem_latency = link - c.mem.l1_latency - c.mem.tlb_miss_penalty;
        let mut t = Timing::new(c);
        let mut wide = Timing::new(c);
        wide.port_use = UseTable::new(1 << 17, c.width, c.mem_ports);
        let (mut widest, mut largest_spill) = (0, 0);
        for i in 0..4_000u64 {
            let e = load(0x10_0000 + (i % 8) * 4, 1, 1, 0x100_0000 + i * 0x1_0040);
            assert_eq!(t.consume(&e), wide.consume(&e), "record {i}");
            widest = widest.max(t.reg_ready[1] - t.front_cycle);
            largest_spill = largest_spill.max(t.port_use.spill.len());
        }
        assert_eq!(t.finish(), wide.finish());
        assert!(wide.port_use.spill.is_empty(), "the wide ring never spills");
        // W = 80 links, against a bound of 81.
        assert!(widest > 80 * link * 9 / 10, "span {widest} should near the bound");
        assert!(widest <= 1 + 81 * link + 80 / 4 + 80 / 2, "span {widest} past the bound");
        assert!(largest_spill >= 70, "the chain's links share one slot: spill {largest_spill}");
        assert!(largest_spill <= 4 * 80 + MIN_PRUNE, "spill peaked at {largest_spill}");
    }

    /// Under the paper's machine the model's own tables take 18 KB, so
    /// a fork copies little; the caches and predictor add their
    /// geometry's tag and counter arrays (about 0.2 MB).
    #[test]
    fn default_model_tables_are_small() {
        let t = Timing::new(cfg());
        let bytes = std::mem::size_of_val(&*t.port_use.slots)
            + std::mem::size_of_val(&*t.store_ready.slots)
            + std::mem::size_of_val(&*t.recent);
        assert_eq!(bytes, USE_SLOTS * 16 + 512 * 16 + 128 * 16);
        assert_eq!(bytes, 18_432);
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
                set_instr(
                    &mut e,
                    Instr::Load {
                        width: dise_isa::Width::Q,
                        rd: Reg::gpr((i % 8) as u8),
                        base: Reg::gpr(20),
                        disp: 0,
                    },
                );
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
                    set_instr(
                        &mut e,
                        Instr::Store {
                            width: dise_isa::Width::Q,
                            rs: Reg::gpr(1),
                            base: Reg::gpr(20),
                            disp: 0,
                        },
                    );
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
