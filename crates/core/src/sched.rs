//! A cooperative session multiplexer: N worker threads draining one
//! queue of [`SessionTask`] continuations, each granted bounded slices
//! of virtual time (dynamic instructions) instead of a whole OS thread.
//!
//! The design follows r2vm's event-driven simulation core and
//! renacer's decoupled producer/consumer split (see PAPERS.md): the
//! unit of scheduling is a *resumable continuation*, not a thread, so
//! thousands of debugging sessions can be concurrently in flight on a
//! single core. Two queues implement the policy:
//!
//! * an **admission deque** (FIFO) for tasks that have never run or
//!   were just unblocked — new sessions reach their first slice in
//!   arrival order, which is also what pushes the in-flight high-water
//!   mark to the full queue depth;
//! * a **priority heap keyed by virtual progress** (instructions
//!   retired, ties broken by spawn id) for yielded tasks — the
//!   least-progressed session runs next, so a million-instruction
//!   session cannot starve a thousand-instruction one no matter how
//!   the wall-clock interleaves.
//!
//! With equal slice budgets this is deficit-round-robin-like: between
//! two consecutive slices of any runnable session, every other runnable
//! session is granted at most a bounded number of slices, so
//! `max_wait_slices` stays O(number of sessions) (the fairness pin in
//! `dise-bench/tests/scheduler.rs` enforces `≤ 2 × tasks`).
//!
//! Determinism: with one worker the grant order is a pure function of
//! the spawn order, budgets, and task behaviour — nothing reads clocks
//! or thread identity — and with any worker count each task still sees
//! the same slice sequence of *its own* execution, so results are
//! byte-identical across `workers × slice-budget` choices (the grid
//! determinism suite holds the whole bench harness to this).
//!
//! Fairness counters ([`slices_granted`], [`preemptions`],
//! [`max_wait_slices`]) are exposed both per-scheduler
//! ([`Scheduler::stats`]) and process-global, mirroring
//! [`crate::functional_passes`]-style instrumentation: wins are argued
//! with counters and determinism tests, not wall-clock.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::task::{SessionTask, Step, TaskOutput};

/// Scheduler slices granted since process start. See [`slices_granted`].
static SLICES_GRANTED: AtomicU64 = AtomicU64::new(0);

/// Budget-boundary yields since process start. See [`preemptions`].
static PREEMPTIONS: AtomicU64 = AtomicU64::new(0);

/// Worst slice-wait observed since process start. See
/// [`max_wait_slices`].
static MAX_WAIT_SLICES: AtomicU64 = AtomicU64::new(0);

/// Total scheduler slices granted by this process — one per
/// [`SessionTask::poll`] a [`Scheduler`] worker performed. Like
/// [`crate::functional_passes`], compare deltas.
pub fn slices_granted() -> u64 {
    SLICES_GRANTED.load(Ordering::Relaxed)
}

/// Total preemptions by this process — slices that ended in
/// [`Step::Yielded`] because the budget ran out before the session
/// finished. Compare deltas.
pub fn preemptions() -> u64 {
    PREEMPTIONS.load(Ordering::Relaxed)
}

/// The worst wait any session has seen in this process: the maximum
/// number of slices granted to *other* sessions while one session sat
/// *runnable* in the queue (spawn→first grant, yield→next grant,
/// unblock→grant). Time checked out on a worker is not waiting — on a
/// single core the OS may sit on a worker thread arbitrarily long, and
/// that is not the scheduler's queue being unfair. The starvation
/// metric the fairness pin bounds.
pub fn max_wait_slices() -> u64 {
    MAX_WAIT_SLICES.load(Ordering::Relaxed)
}

/// Fairness and occupancy counters for one [`Scheduler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Slices granted (total [`SessionTask::poll`] calls).
    pub slices_granted: u64,
    /// Slices that ended in a budget-boundary yield.
    pub preemptions: u64,
    /// Worst slices-granted-to-others wait of any session while it sat
    /// runnable in the queue (see [`max_wait_slices`]).
    pub max_wait_slices: u64,
    /// High-water mark of sessions started but not yet finished — the
    /// "concurrently in-flight" figure.
    pub max_in_flight: usize,
    /// Sessions run to completion.
    pub completed: usize,
}

struct Slot {
    /// The continuation; `None` while checked out by a worker or after
    /// completion.
    task: Option<SessionTask>,
    output: Option<TaskOutput>,
    /// Granted at least one slice (counts toward in-flight).
    started: bool,
    done: bool,
    /// Parked: runnable only after [`Scheduler::unblock`] (or its
    /// dependency completing).
    parked: bool,
    /// Value of `slice_no` when this task last became runnable (spawn,
    /// yield, unblock) — the wait-accounting anchor.
    enqueued_at: u64,
}

struct Inner {
    slots: Vec<Slot>,
    /// Per-task list of tasks gated on its completion
    /// ([`Scheduler::spawn_after`]).
    dependents: Vec<Vec<usize>>,
    /// Never-run or just-unblocked tasks, FIFO.
    admit: VecDeque<usize>,
    /// Yielded tasks, min-(progress, id) first.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tasks currently checked out by workers.
    checked_out: usize,
    /// Spawned but not yet completed.
    outstanding: usize,
    /// Started but not yet completed.
    in_flight: usize,
    slice_no: u64,
    stats: SchedStats,
}

/// A cooperative scheduler over [`SessionTask`] continuations. See the
/// module docs for policy and guarantees.
pub struct Scheduler {
    slice: u64,
    inner: Mutex<Inner>,
    wake: Condvar,
}

impl Scheduler {
    /// A scheduler granting `slice` dynamic instructions per slice.
    ///
    /// # Panics
    ///
    /// Panics on a zero slice budget — a zero-instruction grant makes
    /// no progress and the drain could never terminate.
    pub fn new(slice: u64) -> Scheduler {
        assert!(slice > 0, "the slice budget must be at least one instruction");
        Scheduler {
            slice,
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                dependents: Vec::new(),
                admit: VecDeque::new(),
                ready: BinaryHeap::new(),
                checked_out: 0,
                outstanding: 0,
                in_flight: 0,
                slice_no: 0,
                stats: SchedStats::default(),
            }),
            wake: Condvar::new(),
        }
    }

    /// The per-slice instruction budget.
    pub fn slice(&self) -> u64 {
        self.slice
    }

    /// Enqueue a task; returns its id (dense, in spawn order — the
    /// deterministic scatter-back key). A task spawned already gated
    /// ([`SessionTask::gated`]) parks until [`Scheduler::unblock`].
    pub fn spawn(&self, task: SessionTask) -> usize {
        let mut inner = self.lock();
        let id = inner.admit_slot(task);
        drop(inner);
        self.wake.notify_one();
        id
    }

    /// Enqueue a task that must not run until task `dep` has completed
    /// — the scheduler gates it and opens the gate when `dep` finishes
    /// (immediately, if it already has).
    ///
    /// # Panics
    ///
    /// Panics when `dep` is not a previously spawned id. Dependencies
    /// therefore always point backwards, which makes dependency cycles
    /// unrepresentable.
    pub fn spawn_after(&self, mut task: SessionTask, dep: usize) -> usize {
        let mut inner = self.lock();
        assert!(dep < inner.slots.len(), "spawn_after on unknown task id {dep}");
        if !inner.slots[dep].done {
            task.block(format!("waiting for session {dep}"));
        }
        let id = inner.admit_slot(task);
        if !inner.slots[id].parked {
            // dep already completed; runnable immediately
        } else {
            inner.dependents[dep].push(id);
        }
        drop(inner);
        self.wake.notify_one();
        id
    }

    /// Open the gate of a parked task and make it runnable.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn unblock(&self, id: usize) {
        let mut inner = self.lock();
        assert!(id < inner.slots.len(), "unblock on unknown task id {id}");
        if inner.slots[id].parked {
            if let Some(task) = inner.slots[id].task.as_mut() {
                task.unblock();
            }
            inner.slots[id].parked = false;
            let now = inner.slice_no;
            inner.slots[id].enqueued_at = now;
            inner.admit.push_back(id);
            drop(inner);
            self.wake.notify_all();
        }
    }

    /// Tasks spawned but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.lock().outstanding
    }

    /// This scheduler's fairness and occupancy counters so far.
    pub fn stats(&self) -> SchedStats {
        self.lock().stats
    }

    /// Drain every outstanding task with `workers` threads (inline on
    /// the calling thread when `workers == 1` — the fully deterministic
    /// mode). Returns `(id, output)` pairs for every task completed
    /// since the last drain, in id (spawn) order.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`, when a worker panics (propagated),
    /// or when the queue stalls — tasks remain but every one of them is
    /// parked with no runner left to unblock them (an unbreakable
    /// deadlock, e.g. a gate nothing ever opens).
    pub fn drain(&self, workers: usize) -> Vec<(usize, TaskOutput)> {
        self.drain_with(workers, |_, _| {})
    }

    /// [`Scheduler::drain`], streaming every completion through
    /// `on_complete(id, &output)` as it happens (called from worker
    /// threads, completion order — the deterministic record is the
    /// returned id-ordered vec).
    pub fn drain_with<F>(&self, workers: usize, on_complete: F) -> Vec<(usize, TaskOutput)>
    where
        F: Fn(usize, &TaskOutput) + Sync,
    {
        assert!(workers > 0, "drain needs at least one worker");
        if workers == 1 {
            self.worker(&on_complete);
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| self.worker(&on_complete));
                }
            });
        }
        let mut inner = self.lock();
        let mut out = Vec::new();
        for (id, slot) in inner.slots.iter_mut().enumerate() {
            if let Some(output) = slot.output.take() {
                out.push((id, output));
            }
        }
        out
    }

    /// One worker: check a runnable task out, poll it for one slice
    /// outside the lock, apply the step, repeat until nothing is
    /// outstanding.
    fn worker<F>(&self, on_complete: &F)
    where
        F: Fn(usize, &TaskOutput) + Sync,
    {
        loop {
            let (id, mut task) = {
                let mut inner = self.lock();
                loop {
                    if inner.outstanding == 0 {
                        drop(inner);
                        self.wake.notify_all();
                        return;
                    }
                    if let Some(id) = inner.next_runnable() {
                        let task = inner.grant(id);
                        break (id, task);
                    }
                    if inner.checked_out == 0 {
                        let parked: Vec<usize> = inner
                            .slots
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| !s.done && s.parked)
                            .map(|(i, _)| i)
                            .collect();
                        panic!(
                            "scheduler stalled: {} session(s) outstanding but every one is \
                             parked with no runner to unblock it (ids {parked:?})",
                            inner.outstanding
                        );
                    }
                    inner = self.wake.wait(inner).expect("scheduler poisoned");
                }
            };
            let step = task.poll(self.slice);
            match step {
                Step::Yielded(progress) => {
                    let mut inner = self.lock();
                    inner.checked_out -= 1;
                    inner.stats.preemptions += 1;
                    PREEMPTIONS.fetch_add(1, Ordering::Relaxed);
                    inner.slots[id].task = Some(task);
                    inner.slots[id].enqueued_at = inner.slice_no;
                    inner.ready.push(Reverse((progress.instructions, id)));
                    drop(inner);
                    self.wake.notify_one();
                }
                Step::Blocked(_) => {
                    // The task was gated after being queued (or an
                    // external gate raced the grant); park it until
                    // someone unblocks it.
                    let mut inner = self.lock();
                    inner.checked_out -= 1;
                    inner.slots[id].task = Some(task);
                    inner.slots[id].parked = true;
                    drop(inner);
                    self.wake.notify_all();
                }
                Step::Done(output) => {
                    on_complete(id, &output);
                    let mut inner = self.lock();
                    inner.checked_out -= 1;
                    inner.complete(id, output);
                    drop(inner);
                    self.wake.notify_all();
                }
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("scheduler poisoned")
    }
}

impl Inner {
    fn admit_slot(&mut self, task: SessionTask) -> usize {
        let id = self.slots.len();
        let parked = task.is_blocked();
        self.slots.push(Slot {
            task: Some(task),
            output: None,
            started: false,
            done: false,
            parked,
            enqueued_at: self.slice_no,
        });
        self.dependents.push(Vec::new());
        self.outstanding += 1;
        if !parked {
            self.admit.push_back(id);
        }
        id
    }

    /// Admission first (FIFO — new arrivals reach a first slice in
    /// order), then the least-progressed yielded task.
    fn next_runnable(&mut self) -> Option<usize> {
        if let Some(id) = self.admit.pop_front() {
            return Some(id);
        }
        self.ready.pop().map(|Reverse((_, id))| id)
    }

    /// Check `id` out to a worker and account the grant.
    fn grant(&mut self, id: usize) -> SessionTask {
        let waited = self.slice_no - self.slots[id].enqueued_at;
        self.stats.max_wait_slices = self.stats.max_wait_slices.max(waited);
        MAX_WAIT_SLICES.fetch_max(waited, Ordering::Relaxed);
        self.slice_no += 1;
        self.stats.slices_granted += 1;
        SLICES_GRANTED.fetch_add(1, Ordering::Relaxed);
        let slot = &mut self.slots[id];
        if !slot.started {
            slot.started = true;
            self.in_flight += 1;
            self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight);
        }
        self.checked_out += 1;
        slot.task.take().expect("granted task is checked in")
    }

    fn complete(&mut self, id: usize, output: TaskOutput) {
        let slot = &mut self.slots[id];
        slot.done = true;
        slot.output = Some(output);
        self.outstanding -= 1;
        self.in_flight -= 1;
        self.stats.completed += 1;
        for dep in std::mem::take(&mut self.dependents[id]) {
            if self.slots[dep].parked {
                if let Some(task) = self.slots[dep].task.as_mut() {
                    task.unblock();
                }
                self.slots[dep].parked = false;
                self.slots[dep].enqueued_at = self.slice_no;
                self.admit.push_back(dep);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Application, BackendKind, WatchExpr, Watchpoint};
    use dise_asm::{parse_asm, Layout};
    use dise_cpu::CpuConfig;
    use dise_isa::Width;
    use std::sync::Mutex as StdMutex;

    fn app(iters: u32) -> Application {
        let src = format!(
            "start:  la r1, watched
                     lda r4, {iters}(zero)
             loop:   .stmt
                     stq r4, 0(r1)
                     subq r4, 1, r4
                     bgt r4, loop
                     halt
             .data
             watched: .quad 0
            "
        );
        Application::new(parse_asm(&src).unwrap(), Layout::default())
    }

    fn wp(a: &Application) -> Watchpoint {
        let addr = a.program().unwrap().symbol("watched").unwrap();
        Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
    }

    fn task(a: &Application) -> SessionTask {
        SessionTask::session(a, vec![wp(a)], BackendKind::VirtualMemory, CpuConfig::default())
    }

    /// A batch whose configurations disagree on the DISE engine settles
    /// with a typed error at admission, on a worker thread next to a
    /// healthy task, instead of killing its worker and leaving the
    /// other waiting on the queue forever.
    #[test]
    fn mismatched_engine_batch_settles_without_stalling_the_drain() {
        let a = app(40);
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 64;
        let sched = Scheduler::new(16);
        let bad = sched.spawn(SessionTask::batch(
            &a,
            vec![wp(&a)],
            BackendKind::dise_default(),
            &[CpuConfig::default(), small],
        ));
        let good = sched.spawn(task(&a));
        let mut outs = sched.drain(2);
        assert_eq!(outs.len(), 2, "both tasks complete");
        let (_, good_out) = outs.pop().unwrap();
        let (bad_id, bad_out) = outs.pop().unwrap();
        assert_eq!(bad_id, bad);
        assert_eq!(bad_out.into_batch(), Err(crate::DebugError::MismatchedEngines));
        let want = task(&a).run_to_completion().into_batch();
        assert_eq!(good_out.into_batch(), want, "the healthy task {good} is unaffected");
    }

    /// Scheduled results equal direct runs, ids line up with spawn
    /// order, and every fairness counter moves.
    #[test]
    fn drains_to_the_same_reports_as_direct_runs() {
        let iters = [3u32, 17, 5, 29];
        let direct: Vec<_> = iters
            .iter()
            .map(|&i| task(&app(i)).run_to_completion().into_batch().unwrap())
            .collect();
        for workers in [1, 3] {
            let sched = Scheduler::new(8);
            for &i in &iters {
                sched.spawn(task(&app(i)));
            }
            let outs = sched.drain(workers);
            assert_eq!(outs.len(), iters.len());
            for ((id, out), want) in outs.into_iter().zip(&direct) {
                assert_eq!(&out.into_batch().unwrap(), want, "task {id}, {workers} worker(s)");
            }
            let stats = sched.stats();
            assert_eq!(stats.completed, iters.len());
            assert_eq!(stats.max_in_flight, iters.len(), "small slices keep all in flight");
            assert!(stats.slices_granted > iters.len() as u64, "sessions were actually sliced");
            assert!(stats.preemptions > 0);
            assert!(stats.max_wait_slices <= 2 * iters.len() as u64, "fairness bound: {stats:?}");
        }
    }

    /// Process-global counters mirror per-scheduler stats, deltas only.
    #[test]
    fn global_counters_advance_with_the_scheduler() {
        let (g0, p0, _) = (slices_granted(), preemptions(), max_wait_slices());
        let sched = Scheduler::new(32);
        sched.spawn(task(&app(11)));
        sched.spawn(task(&app(4)));
        sched.drain(1);
        let stats = sched.stats();
        assert!(slices_granted() - g0 >= stats.slices_granted);
        assert!(preemptions() - p0 >= stats.preemptions);
        assert!(max_wait_slices() >= stats.max_wait_slices);
    }

    /// spawn_after gates the dependent until its dependency completes.
    #[test]
    fn spawn_after_orders_completions() {
        let a = app(20);
        let sched = Scheduler::new(16);
        let first = sched.spawn(task(&a));
        let second = sched.spawn_after(task(&app(2)), first);
        let order = StdMutex::new(Vec::new());
        sched.drain_with(1, |id, _| order.lock().unwrap().push(id));
        assert_eq!(
            order.into_inner().unwrap(),
            vec![first, second],
            "the long dependency still completes before its short dependent starts"
        );
        // Spawning after an already-completed task runs immediately.
        let third = sched.spawn_after(task(&app(1)), second);
        let outs = sched.drain(1);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, third);
    }

    /// A gate nothing will ever open is a loud stall, not a hang.
    #[test]
    fn unopenable_gate_panics_loudly() {
        let sched = Scheduler::new(16);
        sched.spawn(task(&app(2)).gated("a gate nothing opens"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.drain(1)))
            .expect_err("stall must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("scheduler stalled"), "{msg}");
    }

    /// Least-progress scheduling: a short session spawned behind a long
    /// one overtakes it and finishes first.
    #[test]
    fn short_sessions_are_not_starved_by_long_ones() {
        let sched = Scheduler::new(32);
        let long = sched.spawn(task(&app(300)));
        let short = sched.spawn(task(&app(2)));
        let order = StdMutex::new(Vec::new());
        sched.drain_with(1, |id, _| order.lock().unwrap().push(id));
        assert_eq!(order.into_inner().unwrap(), vec![short, long]);
    }
}
