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
//! A model is two halves. Its *front* ([`Front`]) is everything the
//! record stream alone drives: the caches, TLBs and branch predictor,
//! and the record counts. Its *pipeline* ([`Pipeline`]) is every cycle
//! value: the front end's cycle and slots, the commit frontier, register
//! and store ready times, port reservations and the ROB/RS ring. The
//! front reads no cycle, so it is the same for every model of one
//! machine fed the same records, whatever each model stalls; only the
//! pipeline depends on the stalls. A lone [`Timing`] steps both halves
//! of each record in one fused call (`Pipeline::retire` asks the front
//! for each outcome where the pipeline needs it); a [`TimingBatch`]
//! shares one front among the configurations of one machine and a
//! pipeline among every configuration with the same stall history
//! since its last draining stall.
//!
//! Every piece of pipeline state has a size fixed by the [`CpuConfig`]
//! at construction: the ROB and RS are one ring of the latest
//! instructions' issue and commit cycles (see `Pipeline::recent`), and
//! the port-usage window and the store table each keep a small
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
//! shifts time. After any record, every live cycle value is at most
//! `last_commit + max(mispredict_penalty, dise_flush_penalty)`: each is
//! bounded by a commit cycle, except a redirect, which adds at most one
//! penalty to one. A stall of cost `C` resumes the front end and the
//! commit frontier at `last_commit + C`, so when `C` clears that bound
//! every earlier value is dead: no later instruction can be ready
//! before `last_commit + C + 1`, and the drained pipeline is its resume
//! cycle alone. Two pipelines of one machine that drain on the same
//! record therefore stay one pipeline shifted by a constant number of
//! cycles from there on, whatever their histories and costs were, and
//! any pipeline at all, stalled past everything it holds, can stand in
//! for them. That is what lets a [`TimingBatch`] merge pipelines at
//! common drains and reuse a pooled one without copying it. A stall
//! below the bound leaves live values behind, so a pipeline stalled
//! that way keeps its exact history.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dise_mem::{AddrHasher, CacheStats, MemSystem, PAGE_SIZE};

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

/// The record-driven half of a model: the caches, TLBs and predictor,
/// and the record counts. Nothing here reads a cycle, so every model of
/// one machine fed the same records holds the same front, whatever it
/// stalls — except that a stall makes the next fetch look the line up
/// again (see [`TimingBatch`]).
#[derive(Clone, Debug)]
struct Front {
    mem: MemSystem,
    pred: Predictor,
    /// Current instruction-cache line number (fetch locality).
    cur_line: u64,
    /// log2 of the L1I line size.
    iline_shift: u32,
    /// Records, fetched records, mispredicts and DISE flushes so far.
    counts: RunStats,
}

/// What the front decided about one record: all the cycle pipeline
/// needs from the caches and the predictor, kept for replay when a
/// class runs several pipelines.
#[derive(Clone, Copy, Debug)]
struct FrontOut {
    /// Cycles fetch stalls for an instruction-side miss.
    fetch_stall: u64,
    /// Execution latency: the data access's, or the ALU's.
    latency: u64,
    /// How a fetched branch ends its fetch group.
    branch: Redirect,
    /// A DISE control transfer flushes the front end.
    flush: bool,
}

/// The front-end redirect a fetched branch causes.
#[derive(Clone, Copy, Debug)]
enum Redirect {
    None,
    /// Predicted taken: the fetch group ends.
    Taken,
    /// Mispredicted: the front end refills.
    Mispredict,
}

/// Where [`Pipeline::retire`] reads a record's cache and predictor
/// outcomes, in this order: from the [`Front`] itself, looking the
/// record up as it retires (the fused step of a lone model), or from a
/// [`FrontOut`] the front produced earlier.
trait Lookup {
    /// Count the record; the cycles its fetch stalls.
    fn fetch(&mut self, e: &Exec) -> u64;
    /// Its execution latency.
    fn latency(&mut self, e: &Exec) -> u64;
    /// The redirect its branch causes.
    fn branch(&mut self, e: &Exec) -> Redirect;
    /// Whether it flushes the front end.
    fn flush(&mut self, cfg: &CpuConfig, e: &Exec) -> bool;
}

impl Front {
    fn new(cfg: &CpuConfig) -> Front {
        Front {
            mem: MemSystem::new(cfg.mem),
            pred: Predictor::new(cfg.bpred),
            cur_line: u64::MAX,
            iline_shift: cfg.mem.l1i.line.trailing_zeros(),
            counts: RunStats::default(),
        }
    }

    /// Look one record up in the caches and the predictor, in
    /// [`Pipeline::retire`]'s order.
    #[inline(always)]
    fn step(&mut self, cfg: &CpuConfig, e: &Exec) -> FrontOut {
        FrontOut {
            fetch_stall: self.fetch(e),
            latency: self.latency(e),
            branch: self.branch(e),
            flush: self.flush(cfg, e),
        }
    }
}

impl Lookup for Front {
    #[inline(always)]
    fn fetch(&mut self, e: &Exec) -> u64 {
        self.counts.instructions += 1;
        if e.fetched {
            self.counts.fetched_instructions += 1;
            let line = e.pc >> self.iline_shift;
            if line != self.cur_line {
                self.cur_line = line;
                return self.mem.inst_fetch(e.pc) - 1;
            }
        }
        0
    }

    #[inline(always)]
    fn latency(&mut self, e: &Exec) -> u64 {
        match e.mem {
            Some(m) => self.mem.data_access(m.addr, m.is_store),
            None => e.facts.latency(),
        }
    }

    #[inline(always)]
    fn branch(&mut self, e: &Exec) -> Redirect {
        let Some(b) = e.branch.filter(|_| e.fetched) else {
            return Redirect::None;
        };
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
            self.counts.mispredicts += 1;
            self.cur_line = u64::MAX; // refetch charges the I-cache
            Redirect::Mispredict
        } else if b.taken {
            self.cur_line = u64::MAX;
            Redirect::Taken
        } else {
            Redirect::None
        }
    }

    #[inline(always)]
    fn flush(&mut self, cfg: &CpuConfig, e: &Exec) -> bool {
        let Some(kind) = e.flush else {
            return false;
        };
        let suppressed = cfg.multithreaded_dise_calls
            && matches!(kind, FlushKind::DiseCall | FlushKind::DiseRet);
        if !suppressed {
            self.counts.dise_flushes += 1;
            self.cur_line = u64::MAX;
        }
        !suppressed
    }
}

impl Lookup for &FrontOut {
    #[inline(always)]
    fn fetch(&mut self, _: &Exec) -> u64 {
        self.fetch_stall
    }

    #[inline(always)]
    fn latency(&mut self, _: &Exec) -> u64 {
        self.latency
    }

    #[inline(always)]
    fn branch(&mut self, _: &Exec) -> Redirect {
        self.branch
    }

    #[inline(always)]
    fn flush(&mut self, _: &CpuConfig, _: &Exec) -> bool {
        self.flush
    }
}

/// The cycle half of a model: the front end's and the commit
/// frontier's cycles, register and store ready times, port
/// reservations and the ROB/RS ring. It reads a record's static facts
/// and memory footprint, and takes its cache and predictor outcomes
/// from a [`Lookup`].
#[derive(Clone, Debug)]
struct Pipeline {
    /// Cycle the front end is currently delivering into.
    front_cycle: u64,
    /// Slots remaining in the current front-end cycle.
    front_slots: u64,

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
}

impl Pipeline {
    fn new(cfg: &CpuConfig) -> Pipeline {
        assert!(cfg.rob_entries >= 1 && cfg.rs_entries >= 1, "ROB and RS need at least one entry");
        let recent = cfg.rob_entries.max(cfg.rs_entries).next_power_of_two();
        Pipeline {
            front_cycle: 0,
            front_slots: cfg.width,
            reg_ready: [0; 64],
            store_ready: StoreTable::new(cfg.rob_entries),
            recent: vec![(0, 0); recent].into_boxed_slice(),
            port_use: UseTable::new(USE_SLOTS, cfg.width, cfg.mem_ports),
            commit_cycle: 0,
            commit_slots: cfg.commit_width,
            last_commit: 0,
        }
    }

    fn refill(&mut self, cfg: &CpuConfig, resume_at: u64) {
        self.front_cycle = self.front_cycle.max(resume_at);
        self.front_slots = cfg.width;
    }

    /// Account record `seq`, reading what the front decides about it
    /// from `front`; returns its commit cycle.
    #[inline(always)]
    fn retire(&mut self, cfg: &CpuConfig, seq: u64, e: &Exec, front: &mut impl Lookup) -> u64 {
        // ---- Front end --------------------------------------------------
        let fetch_stall = front.fetch(e);
        if fetch_stall > 0 {
            // Fetch stalls for the miss; the group restarts.
            self.front_cycle += fetch_stall;
            self.front_slots = cfg.width;
        }
        if self.front_slots == 0 {
            self.front_cycle += 1;
            self.front_slots = cfg.width;
        }
        self.front_slots -= 1;
        let mut dispatch = self.front_cycle;

        // ---- Window occupancy -------------------------------------------
        // Instructions `seq - rob_entries` and `seq - rs_entries`. Before
        // either exists the index wraps to a slot at or after `seq` in
        // the ring (which holds at least both window sizes), one no
        // instruction has written yet: its zero cycles bound nothing.
        let mask = self.recent.len() - 1;
        let rob = seq.wrapping_sub(cfg.rob_entries as u64) as usize & mask;
        let rs = seq.wrapping_sub(cfg.rs_entries as u64) as usize & mask;
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
        let done = issue + front.latency(e);
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
            self.commit_slots = cfg.commit_width;
        }
        if self.commit_slots == 0 {
            self.commit_cycle += 1;
            self.commit_slots = cfg.commit_width;
            commit = self.commit_cycle;
        }
        self.commit_slots -= 1;
        self.last_commit = commit;
        self.recent[seq as usize & mask] = (issue, commit);

        // ---- Redirects -----------------------------------------------------
        match front.branch(e) {
            Redirect::Mispredict => self.refill(cfg, done + cfg.mispredict_penalty),
            // Predicted-taken branch ends the fetch group.
            Redirect::Taken => {
                self.front_cycle += 1;
                self.front_slots = cfg.width;
            }
            Redirect::None => {}
        }
        if front.flush(cfg, e) {
            self.refill(cfg, done + cfg.dise_flush_penalty);
        }

        commit
    }

    /// Resume after a debugger stall: the pipeline is flushed and
    /// restarts at `resume`, without moving the last commit.
    fn stall(&mut self, cfg: &CpuConfig, resume: u64) {
        self.commit_cycle = self.commit_cycle.max(resume);
        self.refill(cfg, resume);
    }
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
    front: Front,
    pipe: Pipeline,
    /// Debugger stalls charged, and their cycles.
    stalls: u64,
    stall_cycles: u64,
}

impl Timing {
    /// A fresh timing model with cold caches and predictor.
    ///
    /// # Panics
    ///
    /// Panics if the ROB or RS has no entries.
    pub fn new(cfg: CpuConfig) -> Timing {
        Timing {
            cfg,
            front: Front::new(&cfg),
            pipe: Pipeline::new(&cfg),
            stalls: 0,
            stall_cycles: 0,
        }
    }

    /// The memory hierarchy (for inspecting cache statistics).
    pub fn mem_system(&self) -> &MemSystem {
        &self.front.mem
    }

    /// The branch predictor (for inspecting misprediction rates).
    pub fn predictor(&self) -> &Predictor {
        &self.front.pred
    }

    /// Cycles elapsed so far (commit frontier).
    pub fn cycles(&self) -> u64 {
        self.pipe.last_commit
    }

    /// Account one instruction; returns its commit cycle.
    pub fn consume(&mut self, e: &Exec) -> u64 {
        let seq = self.front.counts.instructions;
        self.pipe.retire(&self.cfg, seq, e, &mut self.front)
    }

    /// Charge a debugger transition: the pipeline is flushed and the
    /// application stalls for `cost` cycles (use
    /// [`CpuConfig::debugger_transition_cost`] for spurious transitions;
    /// masked transitions are free per the paper's methodology).
    pub fn debugger_stall(&mut self, cost: u64) {
        self.stalls += 1;
        self.stall_cycles += cost;
        self.pipe.stall(&self.cfg, self.pipe.last_commit + cost);
        self.front.cur_line = u64::MAX; // refetch charges the I-cache
    }

    /// Close out the run and return the statistics.
    pub fn finish(&mut self) -> RunStats {
        RunStats {
            cycles: self.pipe.last_commit,
            debugger_stalls: self.stalls,
            debugger_stall_cycles: self.stall_cycles,
            ..self.front.counts
        }
    }
}

/// The timing of one functional record stream under many
/// configurations, each a *slot* that stalls on its own — the engine
/// behind the sensitivity sweeps and the observer fan-out: the
/// [`Executor`](crate::Executor) or a stored trace produces the
/// program-order [`Exec`] stream once, and the batch accounts it under
/// every slot, each equal to a lone [`Timing`] of its configuration
/// charged the same stalls.
///
/// Configurations that differ only in
/// [`CpuConfig::debugger_transition_cost`] form one *class*, which runs
/// one record-driven front (its caches, TLBs, predictor and record
/// counts, which no cycle reaches) and as few cycle pipelines as its
/// slots' stall histories allow:
///
/// - every slot of a class starts on one pipeline;
/// - [`TimingBatch::stall`] charges a subset of slots. A slot whose
///   cost is at or above `max(mispredict_penalty, dise_flush_penalty)`
///   drains its pipeline (module docs): its live state is the resume
///   cycle alone, so every such slot of the class that stalls on one
///   record leaves for one pipeline together, each at its own cycle
///   offset. That pipeline is one they left empty, or one from the
///   class's pool of pipelines no slot holds any more; either holds
///   only dead values once stalled past them, so it is re-based and
///   nothing is copied;
/// - a slot below the bound keeps its exact history: slots of one
///   pipeline that stall to the same cycle stay together, and the
///   rest split off with a copy of the cycle state (about 19 KB under
///   the paper's machine). They never merge again;
/// - a pipeline no slot holds any more returns to the pool.
///
/// A class keeps its front and first pipeline as a lone [`Timing`], so
/// while it runs one pipeline each record takes exactly
/// [`Timing::consume`]'s fused step, and front outputs are never
/// buffered; with more, the front looks a block of records up once and
/// every pipeline replays its outputs. Classes are isolated, so a batch
/// of one is cycle-identical to driving a lone [`Timing`].
///
/// A lone model makes its next fetch look its line up again after a
/// stall. When that is the line the front looked up last, the lookup
/// is a most-recently-used hit that changes no cache state and costs
/// one cycle, so the shared front stays exact and the slot only counts
/// it: [`TimingBatch::mem_stats`] adds it to the slot's L1I and ITLB
/// accesses. That argument needs an L1I line no larger than a page, so
/// a configuration with a larger line is a class of its own.
#[derive(Clone, Debug)]
pub struct TimingBatch {
    classes: Vec<Class>,
    /// Each configuration's class and slot within it, in construction
    /// order.
    places: Vec<(usize, usize)>,
}

/// The configurations of one machine in a [`TimingBatch`].
#[derive(Clone, Debug)]
struct Class {
    /// The class's front and first pipeline, run as a lone model of the
    /// machine; its own transition cost and stall counts go unused
    /// (slots carry theirs).
    model: Timing,
    /// Its further pipelines: pipeline `p > 0` is `extra[p - 1]`.
    extra: Vec<Pipeline>,
    /// How many slots hold each pipeline.
    users: Vec<usize>,
    /// [`drain_bound`] of the machine.
    bound: u64,
    /// Pipelines no slot holds.
    pool: Vec<Pipeline>,
    slots: Vec<Slot>,
    /// Slots stalled since the front last fetched: their lone models
    /// look the next fetched line up again.
    refetch: Vec<usize>,
    /// Front outputs of the block being replayed, with several
    /// pipelines.
    outs: Vec<FrontOut>,
    /// Records consumed summed over pipelines, as of `counted_at`
    /// records, when the number of pipelines last changed.
    counted: u64,
    counted_at: u64,
    /// Scratch for [`Class::stall`]: the slots it charges, those below
    /// the bound with their pipelines and resume cycles in their
    /// pipelines' terms, and those at or above it with theirs.
    stalled: Vec<usize>,
    kept: Vec<(usize, usize, u64)>,
    drained: Vec<(usize, u64)>,
}

/// One configuration's place in its [`Class`].
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Index of the pipeline it reads.
    pipe: usize,
    /// Its own spurious-transition cost.
    cost: u64,
    /// Cycles (wrapping) its live state runs ahead of its pipeline's.
    shift: u64,
    /// Its last commit as of its last stall, which holds until a record
    /// follows it (a stall never moves the last commit).
    commit: u64,
    /// Records the class had consumed at its last stall.
    stalled_at: u64,
    stalls: u64,
    /// Refetches its lone model counted that the front did not make.
    refetches: u64,
    /// Listed in [`Class::refetch`].
    pending: bool,
}

/// The least transition cost that drains a model built from `cfg`:
/// after any record, every live cycle value is at most
/// `last_commit + max(mispredict_penalty, dise_flush_penalty)` (module
/// docs), so a stall of at least that many cycles leaves none of them
/// able to delay the resumed stream.
fn drain_bound(cfg: &CpuConfig) -> u64 {
    cfg.mispredict_penalty.max(cfg.dise_flush_penalty)
}

/// Records the front looks up before the pipelines replay them.
const FRONT_BLOCK: usize = 256;

impl Class {
    fn new(cfg: CpuConfig) -> Class {
        Class {
            model: Timing::new(cfg),
            extra: Vec::new(),
            users: vec![0],
            bound: drain_bound(&cfg),
            pool: Vec::new(),
            slots: Vec::new(),
            refetch: Vec::new(),
            outs: Vec::new(),
            counted: 0,
            counted_at: 0,
            stalled: Vec::new(),
            kept: Vec::new(),
            drained: Vec::new(),
        }
    }

    fn pipe(&self, p: usize) -> &Pipeline {
        if p == 0 {
            &self.model.pipe
        } else {
            &self.extra[p - 1]
        }
    }

    fn pipe_mut(&mut self, p: usize) -> &mut Pipeline {
        if p == 0 {
            &mut self.model.pipe
        } else {
            &mut self.extra[p - 1]
        }
    }

    /// Records consumed so far.
    fn records(&self) -> u64 {
        self.model.front.counts.instructions
    }

    fn pipeline_records(&self) -> u64 {
        self.counted + (self.records() - self.counted_at) * self.users.len() as u64
    }

    /// A new pipeline for `users` slots; returns its index.
    fn add_pipe(&mut self, state: Pipeline, users: usize) -> usize {
        (self.counted, self.counted_at) = (self.pipeline_records(), self.records());
        self.extra.push(state);
        self.users.push(users);
        self.users.len() - 1
    }

    /// Return pipeline `p`, which no slot holds, to the pool; the last
    /// pipeline takes its index.
    fn remove_pipe(&mut self, p: usize) {
        (self.counted, self.counted_at) = (self.pipeline_records(), self.records());
        let last = self.users.len() - 1;
        let state = if p == 0 {
            let next = self.extra.pop().expect("some slot holds a pipeline");
            std::mem::replace(&mut self.model.pipe, next)
        } else {
            self.extra.swap_remove(p - 1)
        };
        self.users.swap_remove(p);
        self.pool.push(state);
        for slot in &mut self.slots {
            if slot.pipe == last {
                slot.pipe = p;
            }
        }
    }

    fn last_commit(&self, s: usize) -> u64 {
        let slot = &self.slots[s];
        if self.records() > slot.stalled_at {
            self.pipe(slot.pipe).last_commit.wrapping_add(slot.shift)
        } else {
            slot.commit
        }
    }

    fn consume(&mut self, mut records: &[Exec]) {
        if !self.refetch.is_empty() {
            let Some(i) = records.iter().position(|e| e.fetched) else {
                return self.run(records);
            };
            self.run(&records[..i]);
            let front = &self.model.front;
            let line = records[i].pc >> front.iline_shift;
            let repeat = u64::from(line == front.cur_line && line != u64::MAX);
            for s in self.refetch.drain(..) {
                self.slots[s].refetches += repeat;
                self.slots[s].pending = false;
            }
            records = &records[i..];
        }
        self.run(records);
    }

    fn run(&mut self, records: &[Exec]) {
        if self.extra.is_empty() {
            for e in records {
                self.model.consume(e);
            }
            return;
        }
        let Timing { cfg, front, pipe, .. } = &mut self.model;
        for block in records.chunks(FRONT_BLOCK) {
            let seq = front.counts.instructions;
            self.outs.clear();
            self.outs.extend(block.iter().map(|e| front.step(cfg, e)));
            for pipe in std::iter::once(&mut *pipe).chain(&mut self.extra) {
                for (k, (e, out)) in block.iter().zip(&self.outs).enumerate() {
                    pipe.retire(cfg, seq + k as u64, e, &mut &*out);
                }
            }
        }
    }

    /// Charge the slots in `self.stalled` (distinct) a spurious stall
    /// at their own costs.
    fn stall(&mut self) {
        let cfg = self.model.cfg;
        let seq = self.records();
        let mut stalled = std::mem::take(&mut self.stalled);
        let mut kept = std::mem::take(&mut self.kept);
        let mut drained = std::mem::take(&mut self.drained);
        if stalled.len() == self.slots.len() {
            // Every lone model of the class refetches, and so does the
            // front.
            self.model.front.cur_line = u64::MAX;
            for s in self.refetch.drain(..) {
                self.slots[s].pending = false;
            }
        }
        for &s in &stalled {
            let commit = self.last_commit(s);
            let refetches = !self.slots[s].pending && self.model.front.cur_line != u64::MAX;
            let slot = &mut self.slots[s];
            if refetches {
                slot.pending = true;
                self.refetch.push(s);
            }
            slot.commit = commit;
            slot.stalled_at = seq;
            slot.stalls += 1;
            let resume = commit + slot.cost;
            if slot.cost >= self.bound {
                self.users[slot.pipe] -= 1;
                drained.push((s, resume));
            } else {
                kept.push((s, slot.pipe, resume.wrapping_sub(slot.shift)));
            }
        }
        // Below the bound: slots of one pipeline stalling to one cycle
        // stay together; in place once they are all of its slots.
        kept.sort_unstable_by_key(|&(_, p, resume)| (p, resume));
        for group in kept.chunk_by(|a, b| (a.1, a.2) == (b.1, b.2)) {
            let (_, p, resume) = group[0];
            if group.len() == self.users[p] {
                self.pipe_mut(p).stall(&cfg, resume);
                continue;
            }
            let mut state = self.pipe(p).clone();
            state.stall(&cfg, resume);
            self.users[p] -= group.len();
            let q = self.add_pipe(state, group.len());
            for &(s, ..) in group {
                self.slots[s].pipe = q;
            }
        }
        // At or above it: one pipeline, re-based past all it holds — one
        // the drained slots left, or one from the pool.
        if !drained.is_empty() {
            let p = self.users.iter().position(|&u| u == 0).unwrap_or_else(|| {
                let state = self.pool.pop().unwrap_or_else(|| Pipeline::new(&cfg));
                self.add_pipe(state, 0)
            });
            let bound = self.bound;
            let pipe = self.pipe_mut(p);
            let base = pipe.commit_cycle + bound;
            pipe.stall(&cfg, base);
            self.users[p] = drained.len();
            for &(s, resume) in &drained {
                let slot = &mut self.slots[s];
                slot.pipe = p;
                slot.shift = resume.wrapping_sub(base);
            }
        }
        for p in (0..self.users.len()).rev() {
            if self.users[p] == 0 {
                self.remove_pipe(p);
            }
        }
        stalled.clear();
        kept.clear();
        drained.clear();
        (self.stalled, self.kept, self.drained) = (stalled, kept, drained);
    }
}

impl TimingBatch {
    /// Slots for the given configurations, in the given order, grouped
    /// into classes (see [`TimingBatch`]).
    ///
    /// # Panics
    ///
    /// Panics if a configuration's ROB or RS has no entries, as
    /// [`Timing::new`] does.
    pub fn new(cfgs: &[CpuConfig]) -> TimingBatch {
        let mut classes: Vec<Class> = Vec::new();
        let mut places = Vec::with_capacity(cfgs.len());
        for c in cfgs {
            let key = CpuConfig { debugger_transition_cost: 0, ..*c };
            let shares = c.mem.l1i.line <= PAGE_SIZE;
            let k =
                classes.iter().position(|k| shares && k.model.cfg == key).unwrap_or_else(|| {
                    classes.push(Class::new(key));
                    classes.len() - 1
                });
            let class = &mut classes[k];
            class.users[0] += 1;
            class.slots.push(Slot { cost: c.debugger_transition_cost, ..Slot::default() });
            places.push((k, class.slots.len() - 1));
        }
        TimingBatch { classes, places }
    }

    /// Number of configurations in the batch.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// True when the batch holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// Cache and TLB statistics of configuration `i`, `(l1i, l1d, l2,
    /// itlb, dtlb)`: those of a lone model of it.
    pub fn mem_stats(
        &self,
        i: usize,
    ) -> (CacheStats, CacheStats, CacheStats, CacheStats, CacheStats) {
        let (k, s) = self.places[i];
        let (mut l1i, l1d, l2, mut itlb, dtlb) = self.classes[k].model.front.mem.stats();
        let refetches = self.classes[k].slots[s].refetches;
        l1i.accesses += refetches;
        itlb.accesses += refetches;
        (l1i, l1d, l2, itlb, dtlb)
    }

    /// The branch predictor of configuration `i`. Configurations in one
    /// class share it.
    pub fn predictor(&self, i: usize) -> &Predictor {
        &self.classes[self.places[i].0].model.front.pred
    }

    /// Records the batch's pipelines have consumed, summed over
    /// pipelines: the cycle work the batch did, against `len()` times
    /// the records for one model per configuration. For tests and
    /// counters.
    pub fn pipeline_records(&self) -> u64 {
        self.classes.iter().map(Class::pipeline_records).sum()
    }

    /// Account one instruction under every configuration.
    #[inline]
    pub fn consume(&mut self, e: &Exec) {
        if let [class] = self.classes.as_mut_slice() {
            if class.extra.is_empty() && class.refetch.is_empty() {
                class.model.consume(e);
                return;
            }
        }
        self.consume_slice(std::slice::from_ref(e));
    }

    /// Account a whole slice of consecutive instructions under every
    /// configuration, classes-outer / records-inner: each class walks
    /// the slice while its own state is hot. Cycle-identical to calling
    /// [`TimingBatch::consume`] once per record.
    #[inline]
    pub fn consume_slice(&mut self, slice: &[Exec]) {
        for class in &mut self.classes {
            class.consume(slice);
        }
    }

    /// Charge the configurations `slots` (distinct indices) a spurious
    /// debugger transition each, at its own
    /// [`CpuConfig::debugger_transition_cost`], after the last record
    /// consumed. As in [`Timing::debugger_stall`], a stall does not move
    /// the last commit, so a second stall of a configuration with no
    /// record between charges no further cycles.
    pub fn stall(&mut self, slots: &[usize]) {
        for (k, class) in self.classes.iter_mut().enumerate() {
            class.stalled.clear();
            class.stalled.extend(
                slots.iter().filter_map(|&i| (self.places[i].0 == k).then_some(self.places[i].1)),
            );
            if !class.stalled.is_empty() {
                class.stall();
            }
        }
    }

    /// Charge every configuration a spurious debugger transition:
    /// [`TimingBatch::stall`] of all of them.
    pub fn debugger_stall(&mut self) {
        for class in &mut self.classes {
            class.stalled.clear();
            class.stalled.extend(0..class.slots.len());
            class.stall();
        }
    }

    /// Close out the run: per-configuration statistics in construction
    /// order.
    pub fn finish(self) -> Vec<RunStats> {
        self.places
            .iter()
            .map(|&(k, s)| {
                let class = &self.classes[k];
                let slot = &class.slots[s];
                RunStats {
                    cycles: class.last_commit(s),
                    debugger_stalls: slot.stalls,
                    debugger_stall_cycles: slot.stalls * slot.cost,
                    ..class.model.front.counts
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
        wide.pipe.port_use = UseTable::new(1 << 17, c.width, c.mem_ports);
        let (mut widest, mut largest_spill) = (0, 0);
        for i in 0..4_000u64 {
            let e = load(0x10_0000 + (i % 8) * 4, 1, 1, 0x100_0000 + i * 0x1_0040);
            assert_eq!(t.consume(&e), wide.consume(&e), "record {i}");
            widest = widest.max(t.pipe.reg_ready[1] - t.pipe.front_cycle);
            largest_spill = largest_spill.max(t.pipe.port_use.spill.len());
        }
        assert_eq!(t.finish(), wide.finish());
        assert!(wide.pipe.port_use.spill.is_empty(), "the wide ring never spills");
        // W = 80 links, against a bound of 81.
        assert!(widest > 80 * link * 9 / 10, "span {widest} should near the bound");
        assert!(widest <= 1 + 81 * link + 80 / 4 + 80 / 2, "span {widest} past the bound");
        assert!(largest_spill >= 70, "the chain's links share one slot: spill {largest_spill}");
        assert!(largest_spill <= 4 * 80 + MIN_PRUNE, "spill peaked at {largest_spill}");
    }

    /// Under the paper's machine a pipeline's tables take 18 KB, so a
    /// split copies little; the front's caches and predictor add their
    /// geometry's tag and counter arrays (about 0.2 MB), once per class.
    #[test]
    fn default_model_tables_are_small() {
        let t = Timing::new(cfg());
        let bytes = std::mem::size_of_val(&*t.pipe.port_use.slots)
            + std::mem::size_of_val(&*t.pipe.store_ready.slots)
            + std::mem::size_of_val(&*t.pipe.recent);
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
            assert!(t.pipe.store_ready.ready(0) > 0 && t.pipe.store_ready.ready(u64::MAX >> 3) > 0);
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
            largest_spill = largest_spill.max(t.pipe.store_ready.spill.len());
        }
        assert_eq!(t.pipe.store_ready.slots.len(), 512, "four slots per ROB entry, never more");
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

    /// Pipelines each class of `batch` runs, in class order.
    fn pipes(batch: &TimingBatch) -> Vec<usize> {
        batch.classes.iter().map(|c| c.users.len()).collect()
    }

    /// The transition-cost sweep's three configurations are one class:
    /// one front, and one pipeline however often they all stall.
    #[test]
    fn sweep_costs_share_one_model() {
        let sweep = [with_cost(290_000), with_cost(100_000), with_cost(513_000)];
        let mut batch = TimingBatch::new(&sweep);
        assert_eq!((batch.len(), pipes(&batch)), (3, vec![1]));
        for i in 0..300u64 {
            batch.consume(&plain_alu(0x10_0000 + (i % 64) * 4, (i % 8) as u8, 20));
            if i % 50 == 0 {
                batch.debugger_stall();
                assert_eq!(pipes(&batch), [1], "slots draining together stay together");
            }
        }
        assert_eq!(batch.pipeline_records(), 300);
        let mut dup = TimingBatch::new(&[with_cost(5), with_cost(5)]);
        dup.consume(&plain_alu(0x10_0000, 1, 2));
        dup.debugger_stall();
        assert_eq!(pipes(&dup), [1], "exact duplicates stay together even below the bound");
    }

    /// A cost below `max(mispredict_penalty, dise_flush_penalty)` may
    /// not drain the pipeline, so at a stall it splits off with a copy
    /// and never merges again; costs at or above the bound drain into
    /// one pipeline however they stalled before, and another machine is
    /// a class of its own.
    #[test]
    fn below_the_bound_costs_split_and_drains_merge() {
        let bound = drain_bound(&cfg());
        assert!(bound > 1);
        let mut slow_mem = cfg();
        slow_mem.mem.mem_latency = 400;
        let cfgs =
            [with_cost(bound), with_cost(bound - 1), with_cost(100_000), slow_mem, with_cost(0)];
        let mut batch = TimingBatch::new(&cfgs);
        assert_eq!(batch.places, [(0, 0), (0, 1), (0, 2), (1, 0), (0, 3)]);
        let mut lone: Vec<Timing> = cfgs.iter().map(|c| Timing::new(*c)).collect();
        let mut step = |batch: &mut TimingBatch, stalled: &[usize], at: u64| {
            for i in at..at + 40 {
                let e = plain_alu(0x10_0000 + (i % 64) * 4, (i % 8) as u8, (i % 3) as u8);
                batch.consume(&e);
                lone.iter_mut().for_each(|t| _ = t.consume(&e));
            }
            batch.stall(stalled);
            for &s in stalled {
                lone[s].debugger_stall(cfgs[s].debugger_transition_cost);
            }
        };
        step(&mut batch, &[0], 0);
        assert_eq!(pipes(&batch), [2, 1], "slot 0 drains off the shared pipeline");
        step(&mut batch, &[2], 40);
        assert_eq!(pipes(&batch), [3, 1], "slot 2 drains on another record");
        step(&mut batch, &[0, 1, 2, 3, 4], 80);
        assert_eq!(pipes(&batch), [3, 1], "0 and 2 merge; 1 and 4 stall apart");
        step(&mut batch, &[0, 1, 2, 4], 120);
        assert_eq!(pipes(&batch), [3, 1], "merged drains stay merged, split ones apart");
        step(&mut batch, &[4], 160);
        step(&mut batch, &[], 200);
        assert_eq!(pipes(&batch), [3, 1]);
        let lone: Vec<RunStats> = lone.iter_mut().map(Timing::finish).collect();
        assert_eq!(batch.finish(), lone);
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
    /// Since the pass times every member's configurations as slots of
    /// one [`TimingBatch`] — each member carrying its own watchpoint
    /// set — this is also what lets one pass serve members whose
    /// *watchpoints* differ: watchpoints only change which stalls a
    /// member's slots are charged, never what the shared stream costs.
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
