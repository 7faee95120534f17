//! A cooperative session multiplexer: N worker threads draining one
//! queue of [`SessionTask`] continuations, each granted bounded slices
//! of virtual time (dynamic instructions) instead of a whole OS thread.
//!
//! The design follows r2vm's event-driven simulation core and
//! renacer's decoupled producer/consumer split (see PAPERS.md): the
//! unit of scheduling is a *resumable continuation*, not a thread, so
//! thousands of debugging sessions can be concurrently in flight on a
//! single core. Two FIFO queues implement the policy:
//!
//! * an **admission deque** for tasks that have never run or whose
//!   dependency just completed — new sessions reach their first slice
//!   in arrival order, which is also what pushes the in-flight
//!   high-water mark to the full queue depth;
//! * a **ready deque** of yielded tasks, in yield order — round-robin
//!   among sessions already running, so the one nearest completion is
//!   never the one held back longest.
//!
//! `next_runnable` applies one rule. When the oldest yielded task has
//! waited at least `max(MAX_BYPASS, outstanding)` grants, it runs
//! next; otherwise admission runs first; otherwise the oldest yielded
//! task does.
//!
//! Admission-first stays because it keeps the median low: a short
//! session usually finishes within its first slice. Pure round-robin,
//! where a yield joins the back of the admission queue, cut
//! `session_service`'s mean latency beyond p99 to about 16 ms but
//! raised its median 2.7× (0.8 → 2.1–2.3 ms). The ready deque alone
//! cuts that tail about 3× (≈150 → ≈54 ms) at an unchanged median.
//!
//! The bound ([`MAX_BYPASS`]) keeps admission-first from starving a
//! running session while arrivals never pause. A yielded task waits at
//! most the bound plus one grant per yielded task queued ahead of it
//! (on one worker), however tasks arrive. The `outstanding` term lets a
//! batch spawned all at once reach every first slice before any
//! yielded task is promoted.
//!
//! Determinism: with one worker the grant order is a pure function of
//! the spawn order, budgets, and task behaviour — nothing reads clocks
//! or thread identity — and with any worker count each task still sees
//! the same slice sequence of *its own* execution, so results are
//! byte-identical across `workers × slice-budget` choices (the grid
//! determinism suite holds the whole bench harness to this).
//!
//! A panic inside [`SessionTask::poll`] is caught on the worker and
//! settles that task alone with [`crate::DebugError::Panicked`], in its
//! own [`TaskOutput`] shape: the other workers keep draining instead of
//! waiting for a task that will never be checked back in.
//!
//! Fairness counters ([`slices_granted`], [`preemptions`],
//! [`max_wait_slices`]) are exposed both per-scheduler
//! ([`Scheduler::stats`]) and process-global, mirroring
//! [`crate::functional_passes`]-style instrumentation: wins are argued
//! with counters and determinism tests, not wall-clock.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::task::{SessionTask, Step, TaskOutput};

/// How many grants the oldest yielded task may be passed over by
/// admissions before it runs next, when fewer than this many tasks are
/// outstanding (otherwise the outstanding count is the bound). It
/// bounds a running session's wait while arrivals never pause. On the
/// `session_service` benchmark the ready deque's own worst wait (about
/// 60–70 slices) stays below it, so it never fires there.
pub const MAX_BYPASS: u64 = 256;

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
/// dependency done→grant). Time checked out on a worker is not
/// waiting — on a single core the OS may sit on a worker thread
/// arbitrarily long, and that is not the scheduler's queue being
/// unfair. The starvation metric the fairness pin bounds.
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
    /// Parked: runnable only once its dependency completes
    /// ([`Scheduler::spawn_after`]).
    parked: bool,
    /// Value of `slice_no` when this task last became runnable (spawn,
    /// yield, dependency done) — the wait-accounting anchor.
    enqueued_at: u64,
}

struct Inner {
    slots: Vec<Slot>,
    /// Per-task list of tasks parked until its completion
    /// ([`Scheduler::spawn_after`]).
    dependents: Vec<Vec<usize>>,
    /// Never-run tasks and tasks whose dependency just completed, FIFO.
    admit: VecDeque<usize>,
    /// Yielded tasks, in yield order.
    ready: VecDeque<usize>,
    /// Tasks currently checked out by workers.
    checked_out: usize,
    /// Spawned but not yet completed.
    outstanding: usize,
    /// Started but not yet completed.
    in_flight: usize,
    slice_no: u64,
    stats: SchedStats,
    /// The first panic a `drain_with` completion callback raised, held
    /// until the drain has settled every task.
    callback_panic: Option<Box<dyn Any + Send>>,
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
                ready: VecDeque::new(),
                checked_out: 0,
                outstanding: 0,
                in_flight: 0,
                slice_no: 0,
                stats: SchedStats::default(),
                callback_panic: None,
            }),
            wake: Condvar::new(),
        }
    }

    /// The per-slice instruction budget.
    pub fn slice(&self) -> u64 {
        self.slice
    }

    /// Enqueue a task; returns its id (dense, in spawn order — the
    /// deterministic scatter-back key).
    pub fn spawn(&self, task: SessionTask) -> usize {
        let mut inner = self.lock();
        let id = inner.admit_slot(task, false);
        drop(inner);
        self.wake.notify_one();
        id
    }

    /// Enqueue a task that must not run until task `dep` has completed
    /// — the scheduler parks it and makes it runnable when `dep`
    /// finishes (immediately, if it already has).
    ///
    /// # Panics
    ///
    /// Panics when `dep` is not a previously spawned id. Dependencies
    /// therefore always point backwards, which makes dependency cycles
    /// unrepresentable.
    pub fn spawn_after(&self, task: SessionTask, dep: usize) -> usize {
        let mut inner = self.lock();
        assert!(dep < inner.slots.len(), "spawn_after on unknown task id {dep}");
        let parked = !inner.slots[dep].done;
        let id = inner.admit_slot(task, parked);
        if parked {
            inner.dependents[dep].push(id);
        }
        drop(inner);
        self.wake.notify_one();
        id
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
    /// Panics when `workers == 0`, or when the queue stalls — tasks
    /// remain but every one of them is parked with no runner left to
    /// complete its dependency (an unbreakable deadlock). A panic
    /// inside a task's poll does not propagate: it settles that task
    /// with [`crate::DebugError::Panicked`] in the task's own output
    /// shape.
    pub fn drain(&self, workers: usize) -> Vec<(usize, TaskOutput)> {
        self.drain_with(workers, |_, _| {})
    }

    /// [`Scheduler::drain`], streaming every completion through
    /// `on_complete(id, &output)` as it happens (called from worker
    /// threads, completion order — the deterministic record is the
    /// returned id-ordered vec).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `on_complete`, once every task has
    /// completed: a panicking callback ends neither its task nor the
    /// other workers' drain.
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
        if let Some(payload) = inner.callback_panic.take() {
            drop(inner);
            resume_unwind(payload);
        }
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
                             parked with no runner to complete its dependency (ids {parked:?})",
                            inner.outstanding
                        );
                    }
                    inner = self.wake.wait(inner).expect("scheduler poisoned");
                }
            };
            let step = catch_unwind(AssertUnwindSafe(|| task.poll(self.slice)))
                .unwrap_or_else(|cause| Step::Done(task.panicked(panic_message(&*cause))));
            match step {
                Step::Yielded(_) => {
                    let mut inner = self.lock();
                    inner.checked_out -= 1;
                    inner.stats.preemptions += 1;
                    PREEMPTIONS.fetch_add(1, Ordering::Relaxed);
                    inner.slots[id].task = Some(task);
                    inner.slots[id].enqueued_at = inner.slice_no;
                    inner.ready.push_back(id);
                    drop(inner);
                    self.wake.notify_one();
                }
                Step::Done(output) => {
                    // The callback runs before `complete`, so a closed-loop
                    // client can spawn its next session while this one still
                    // counts as outstanding. A panic in it must not leave the
                    // task checked out, or the other workers wait forever:
                    // the task completes regardless, and `drain_with`
                    // re-raises the first panic once every task has settled.
                    let called = catch_unwind(AssertUnwindSafe(|| on_complete(id, &output)));
                    let mut inner = self.lock();
                    inner.checked_out -= 1;
                    inner.complete(id, output);
                    if let Err(payload) = called {
                        inner.callback_panic.get_or_insert(payload);
                    }
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

/// The message a panic carried: its `&str` or `String` payload.
fn panic_message(cause: &(dyn Any + Send)) -> String {
    match (cause.downcast_ref::<&str>(), cause.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "a panic with a non-string payload".to_string(),
    }
}

impl Inner {
    fn admit_slot(&mut self, task: SessionTask, parked: bool) -> usize {
        let id = self.slots.len();
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

    /// The oldest yielded task once it has waited
    /// `max(MAX_BYPASS, outstanding)` grants; otherwise admission first
    /// (FIFO — new arrivals reach a first slice in order), then the
    /// oldest yielded task.
    fn next_runnable(&mut self) -> Option<usize> {
        let bound = MAX_BYPASS.max(self.outstanding as u64);
        let overdue = self
            .ready
            .front()
            .is_some_and(|&id| self.slice_no - self.slots[id].enqueued_at >= bound);
        if overdue {
            return self.ready.pop_front();
        }
        self.admit.pop_front().or_else(|| self.ready.pop_front())
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
            self.slots[dep].parked = false;
            self.slots[dep].enqueued_at = self.slice_no;
            self.admit.push_back(dep);
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

    /// spawn_after parks the dependent until its dependency completes.
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

    /// A parked task nothing will ever make runnable is a loud stall,
    /// not a hang. `spawn_after` only parks behind an earlier task, so
    /// the public API cannot build this; the slot is parked directly.
    #[test]
    fn a_task_parked_forever_panics_loudly() {
        let sched = Scheduler::new(16);
        sched.lock().admit_slot(task(&app(2)), true);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.drain(1)))
            .expect_err("stall must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("scheduler stalled"), "{msg}");
    }

    /// Round-robin among running sessions: a short session spawned
    /// behind a long one takes its turns between the long one's slices
    /// and finishes first.
    #[test]
    fn short_sessions_are_not_starved_by_long_ones() {
        let sched = Scheduler::new(32);
        let long = sched.spawn(task(&app(300)));
        let short = sched.spawn(task(&app(2)));
        let order = StdMutex::new(Vec::new());
        sched.drain_with(1, |id, _| order.lock().unwrap().push(id));
        assert_eq!(order.into_inner().unwrap(), vec![short, long]);
    }

    /// A poll that panics settles its own task with a typed error in
    /// the task's shape, while the healthy tasks around it complete
    /// with their direct-run reports — at any worker count. Before, the
    /// panicking worker left its task checked out, and with two or more
    /// workers the others waited for it forever.
    #[test]
    fn a_panicking_poll_settles_its_task_without_hanging_the_drain() {
        let healthy = [9u32, 40, 3];
        let want: Vec<_> =
            healthy.iter().map(|&i| task(&app(i)).run_to_completion().into_batch()).collect();
        for workers in [1, 2, 4] {
            let sched = Scheduler::new(16);
            sched.spawn(task(&app(healthy[0])));
            let panicked = sched.spawn(SessionTask::panicking());
            for &i in &healthy[1..] {
                sched.spawn(task(&app(i)));
            }
            let mut outs = sched.drain(workers);
            assert_eq!(outs.len(), 4, "{workers} worker(s): every task settles");
            let (id, out) = outs.remove(1);
            assert_eq!(id, panicked);
            let err = out.into_batch().expect_err("the panicking task fails");
            assert_eq!(err, crate::DebugError::Panicked("a deliberately panicking task".into()));
            for ((id, out), want) in outs.into_iter().zip(&want) {
                assert_eq!(&out.into_batch(), want, "healthy task {id}, {workers} worker(s)");
            }
        }
    }

    /// A completion callback that panics — here the first one — does not
    /// hang a multi-worker drain: its task still completes, the other
    /// workers finish theirs, and the drain re-raises the first panic.
    /// The drain runs on its own thread under a watchdog, so a
    /// regression fails this test instead of hanging the suite.
    #[test]
    fn a_panicking_completion_callback_does_not_hang_the_drain() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Arc};
        let sched = Arc::new(Scheduler::new(16));
        for iters in [9, 40, 3, 20] {
            sched.spawn(task(&app(iters)));
        }
        let (tx, rx) = mpsc::channel();
        let drained = Arc::clone(&sched);
        let drain = std::thread::spawn(move || {
            let first = AtomicBool::new(true);
            let calls = AtomicU64::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                drained.drain_with(2, |_, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if first.swap(false, Ordering::Relaxed) {
                        panic!("a deliberately panicking callback");
                    }
                })
            }));
            let message = outcome.err().map(|p| panic_message(&*p));
            tx.send((message, calls.into_inner())).expect("the test waits for the drain");
        });
        let (message, calls) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the drain hung after a panicking completion callback");
        drain.join().expect("the drain thread catches the re-raised panic");
        assert_eq!(message.as_deref(), Some("a deliberately panicking callback"));
        assert_eq!(calls, 4, "every completion reaches the callback");
        assert_eq!(sched.stats().completed, 4, "every task completes");
        assert_eq!(sched.outstanding(), 0);
    }
}
