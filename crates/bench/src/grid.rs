//! The job-grid subsystem: every table/figure is a grid of independent
//! debugging sessions (kernel × watchpoint-set × backend × config).
//! This module decomposes a grid into [`SessionJob`] cells, groups the
//! cells into single-functional-pass [`CellGroup`]s, runs every group as
//! a resumable [`SessionTask`] on one cooperative [`Scheduler`], and
//! scatters each cell's [`SessionReport`] back in cell order — so output
//! is byte-identical for any worker count and any slice budget.
//! Normalising a report to a baseline is the caller's business (see
//! [`crate::Experiment`]).
//!
//! Worker count and slice budget are plain arguments here; only the
//! binaries read them from the environment (see
//! [`crate::Experiment::from_env`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dise_cpu::CpuConfig;
use dise_debug::{
    run_session, BackendKind, DebugError, Scheduler, SessionReport, SessionTask, TaskOutput,
    Watchpoint,
};
use dise_workloads::Workload;

/// One cell of an experiment grid: a kernel, the watchpoints to plant,
/// the backend implementing them, and the machine configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct SessionJob {
    /// The kernel to debug.
    pub workload: Workload,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// The backend implementing them.
    pub backend: BackendKind,
    /// Machine configuration (per-cell override).
    pub cpu: CpuConfig,
}

impl SessionJob {
    /// A cell under the given configuration.
    pub fn new(
        workload: Workload,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpu: CpuConfig,
    ) -> SessionJob {
        SessionJob { workload, watchpoints, backend, cpu }
    }

    /// Run the cell as a session of its own — the cell-by-cell
    /// reference every grouped grid must reproduce. `Err` carries the
    /// paper's "no experiment" bars.
    ///
    /// # Errors
    ///
    /// As [`dise_debug::run_session`].
    pub fn report(&self) -> Result<SessionReport, DebugError> {
        run_session(self.workload.app(), self.watchpoints.clone(), self.backend, self.cpu)
    }
}

/// One result slot of a [`CellGroup`]: one functional stream under one
/// detector — an observing member of a shared pass, or a perturbing
/// group's one private machine. Its result is one report per
/// configuration.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The backend, timing-only knobs folded into `cpus` by
    /// [`BackendKind::split_timing`].
    pub backend: BackendKind,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// Per-cell effective machine configurations, in cell order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each configuration, parallel to
    /// `cpus`.
    pub cells: Vec<usize>,
}

/// A group of grid cells that share functional work, on one kernel.
///
/// * **Observing** slots ([`BackendKind::observation_only`]) share one
///   pass of the unmodified application
///   ([`SessionTask::observer`]): watchpoints steer only what the
///   debugger traps on, and observers install no productions, so cells
///   that differ in watchpoint set, backend, engine capacities or timing
///   all merge.
/// * A **perturbing** group is exactly one slot, one machine
///   ([`SessionTask::batch`]): its backend, watchpoints and engine
///   capacities fix the stream, and only timing varies across its
///   cells.
#[derive(Clone, Debug)]
pub struct CellGroup {
    /// The kernel to debug.
    pub workload: Workload,
    /// The result slots, in first-appearance order; never empty.
    pub slots: Vec<Slot>,
}

impl CellGroup {
    /// True when the slots share one observer pass, false for a
    /// perturbing group's one private batch.
    fn observing(&self) -> bool {
        self.slots[0].backend.observation_only()
    }

    /// The group as a task — what the grid spawns.
    pub fn task(&self) -> SessionTask {
        let app = self.workload.app();
        if self.observing() {
            let members =
                self.slots.iter().map(|s| (s.backend, s.watchpoints.clone(), s.cpus.clone()));
            SessionTask::observer(app, members.collect())
        } else {
            let slot = &self.slots[0];
            SessionTask::batch(app, slot.watchpoints.clone(), slot.backend, &slot.cpus)
        }
    }

    /// Scatter the output of this group's [`CellGroup::task`] to
    /// per-cell reports, tagged with their original cell index: a batch
    /// is the one slot's result, and an observer output holds one per
    /// slot. A group-wide error (an assembly failure, a panicked poll,
    /// watchpoints the perturbing backend rejects) is every cell's
    /// error.
    pub fn reports_from(
        &self,
        output: TaskOutput,
    ) -> Vec<(usize, Result<SessionReport, DebugError>)> {
        let per_slot = match output {
            TaskOutput::Batch(result) => vec![result],
            TaskOutput::Observe(out) => out.unwrap_or_else(|e| vec![Err(e); self.slots.len()]),
        };
        let mut out = Vec::new();
        for (slot, result) in self.slots.iter().zip(per_slot) {
            match result {
                Ok(reports) => {
                    out.extend(slot.cells.iter().copied().zip(reports.into_iter().map(Ok)))
                }
                Err(e) => out.extend(slot.cells.iter().map(|&c| (c, Err(e.clone())))),
            }
        }
        out
    }
}

/// Group grid cells for single-pass execution — the cell-key lattice
/// generalising [`BackendKind::split_timing`] across watchpoint sets
/// and backends. Every cell's backend is first split into its
/// functional core and folded timing knobs; then one find-or-push rule
/// places it:
///
/// * an **observing** core groups by kernel alone, and its slot keys on
///   (backend, watchpoints) — one pass of the unmodified application
///   serves every watchpoint set, observing backend and timing
///   configuration at once;
/// * a **perturbing** core (single-stepping, rewriting, DISE production
///   injection) groups by (kernel, watchpoints, backend, DISE engine
///   capacities) into one slot — one private functional stream,
///   replayed under each cell's timing configuration.
///
/// Kernel identity is the full workload (not just its name — two scales
/// of the same kernel are different programs). Groups appear in
/// first-appearance order and slots keep cell order; grouping looks
/// only at the jobs, so the partition — and with it the reassembled
/// output — is identical for any worker count.
pub fn batch_session_jobs(jobs: &[SessionJob]) -> Vec<CellGroup> {
    let mut groups: Vec<CellGroup> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (backend, cpu) = job.backend.split_timing(job.cpu);
        let observing = backend.observation_only();
        let same_pass = |s: &Slot| {
            s.backend == backend
                && s.watchpoints == job.watchpoints
                && (observing || s.cpus[0].engine == cpu.engine)
        };
        let group = match groups.iter().position(|g| {
            g.workload == job.workload
                && g.observing() == observing
                && (observing || same_pass(&g.slots[0]))
        }) {
            Some(g) => &mut groups[g],
            None => {
                groups.push(CellGroup { workload: job.workload.clone(), slots: Vec::new() });
                groups.last_mut().expect("just pushed")
            }
        };
        match group.slots.iter_mut().find(|s| same_pass(s)) {
            Some(s) => {
                s.cpus.push(cpu);
                s.cells.push(i);
            }
            None => group.slots.push(Slot {
                backend,
                watchpoints: job.watchpoints.clone(),
                cpus: vec![cpu],
                cells: vec![i],
            }),
        }
    }
    groups
}

/// Default scheduler slice budget (dynamic instructions per grant) of
/// `session_server` and the scheduler ablation: large enough that
/// slicing overhead is noise, small enough that short sessions are not
/// stuck behind long ones. An [`crate::Experiment`] runs each group
/// whole instead ([`crate::Experiment::slice`]).
pub const DEFAULT_SLICE: u64 = 65_536;

/// The machine's available parallelism (1 when unknown): the worker
/// count an [`crate::Experiment`] starts with, and the default the
/// binaries give `DISE_JOBS`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run a whole grid: group the cells into single functional passes
/// ([`batch_session_jobs`]), spawn every group as one [`SessionTask`]
/// on a [`Scheduler`] granting `slice` instructions per slice, drain it
/// with `workers` threads, and scatter the reports back to cell order.
///
/// Task ids are spawn order, so entry `c` is byte-identical to
/// `cells[c].report()` for every worker count and slice budget. A
/// group whose poll panicked settles every cell with
/// [`DebugError::Panicked`].
///
/// # Panics
///
/// Panics when `workers` or `slice` is zero.
pub fn run_session_grid(
    cells: &[SessionJob],
    workers: usize,
    slice: u64,
) -> Vec<Result<SessionReport, DebugError>> {
    let groups = batch_session_jobs(cells);
    let scheduler = Scheduler::new(slice);
    for group in &groups {
        scheduler.spawn(group.task());
    }
    let mut out = vec![None; cells.len()];
    for (id, output) in scheduler.drain(workers) {
        for (cell, report) in groups[id].reports_from(output) {
            out[cell] = Some(report);
        }
    }
    out.into_iter().map(|r| r.expect("every cell belongs to one group")).collect()
}

/// Run `f` over every job on a pool of exactly `workers` threads and
/// return the results in job order — byte-identical to the serial
/// `jobs.iter().map(f)` regardless of scheduling.
///
/// With `workers == 1` (or one job) everything runs inline on the
/// calling thread. A panic in any job is propagated to the caller once
/// all workers have drained.
///
/// # Panics
///
/// Panics if `workers == 0`, and re-raises the first job panic.
pub fn run_grid_with<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    assert!(workers > 0, "worker pool needs at least one thread");
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let panic = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| f(job))) {
                    Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                    Err(cause) => {
                        // Record the first panic (by job order) and keep
                        // draining, so the scope joins cleanly and the
                        // caller sees a deterministic failure.
                        let mut p = panic.lock().expect("panic slot poisoned");
                        match *p {
                            Some((j, _)) if j < i => {}
                            _ => *p = Some((i, cause)),
                        }
                    }
                }
            });
        }
    });
    if let Some((_, cause)) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(cause);
    }
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_debug::DiseStrategy;
    use dise_workloads::{all, transition_cost_sweep, WatchKind};

    fn small_engine() -> CpuConfig {
        CpuConfig {
            engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
            ..CpuConfig::default()
        }
    }

    /// The cell-by-cell reference: every cell run as its own session.
    fn reference(jobs: &[SessionJob]) -> Vec<Result<SessionReport, DebugError>> {
        jobs.iter().map(SessionJob::report).collect()
    }

    /// A group's output scatters to its cells, perturbing or observing;
    /// a group-wide error is every cell's error.
    #[test]
    fn a_group_wide_error_reaches_every_cell() {
        let w = &all(10)[0];
        let jobs = [
            (BackendKind::dise_default(), WatchKind::Hot),
            (BackendKind::VirtualMemory, WatchKind::Cold),
            (BackendKind::hw4(), WatchKind::Cold),
        ]
        .map(|(b, k)| SessionJob::new(w.clone(), vec![w.watchpoint(k)], b, CpuConfig::default()));
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 2, "one perturbing and one observing group");
        for group in groups {
            let boom = DebugError::Panicked("boom".into());
            let output = if group.observing() {
                TaskOutput::Observe(Err(boom))
            } else {
                TaskOutput::Batch(Err(boom))
            };
            let cells: Vec<usize> = group.slots.iter().flat_map(|s| s.cells.clone()).collect();
            let scattered = group.reports_from(output);
            assert_eq!(scattered.iter().map(|(c, _)| *c).collect::<Vec<_>>(), cells);
            for (_, r) in scattered {
                assert_eq!(r, Err(DebugError::Panicked("boom".into())));
            }
        }
    }

    #[test]
    fn timing_only_cells_group_into_one_batch() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Hot)];
        let mt = BackendKind::Dise(DiseStrategy {
            multithreaded_calls: true,
            ..DiseStrategy::default()
        });
        let jobs: Vec<SessionJob> = [
            (BackendKind::dise_default(), CpuConfig::default()),
            (mt, CpuConfig::default()),
            (BackendKind::hw4(), CpuConfig::default()),
        ]
        .into_iter()
        .map(|(b, c)| SessionJob::new(w.clone(), wp.clone(), b, c))
        .collect();
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 2, "the two DISE cells differ only in timing");
        let dise = &groups[0];
        assert!(!dise.observing(), "DISE perturbs: must run privately");
        assert_eq!(dise.slots.len(), 1, "identical engines share one functional stream");
        assert_eq!(dise.slots[0].cells, vec![0, 1]);
        assert!(dise.slots[0].cpus[1].multithreaded_dise_calls, "mt knob folded into the config");
        assert!(groups[1].observing(), "hardware registers observe");
        assert_eq!(groups[1].slots[0].cells, vec![2]);
    }

    /// The lattice's backend axis: cells that differ in *backend* — as
    /// long as every backend observes — share one group, and therefore
    /// one functional pass, alongside their timing spread.
    #[test]
    fn observing_backends_group_across_backend_and_timing() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let mut jobs = Vec::new();
        for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
            for backend in [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::SingleStep]
            {
                jobs.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
            }
        }
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 2, "VM+HW share a pass; single-stepping replays privately");
        let o = &groups[0];
        assert!(o.observing(), "first group must observe");
        assert_eq!(o.slots.len(), 2);
        assert_eq!(o.slots[0].backend, BackendKind::VirtualMemory);
        assert_eq!(o.slots[0].cells, vec![0, 3, 6]);
        assert_eq!(o.slots[1].backend, BackendKind::hw4());
        assert_eq!(o.slots[1].cells, vec![1, 4, 7]);
        let ss = &groups[1];
        assert!(!ss.observing(), "single-step must replay privately");
        assert_eq!(ss.slots.len(), 1);
        assert_eq!(ss.slots[0].cells, vec![2, 5, 8]);
    }

    /// The lattice's final axis: observing cells that differ in
    /// *watchpoint set* — and in backend, and in timing — all collapse
    /// into one per-workload group, one slot per distinct
    /// (backend, watchpoints) pair. A perturbing cell never joins.
    #[test]
    fn observing_backends_group_across_watchpoint_sets() {
        let w = &all(10)[0];
        let sets = [
            vec![w.watchpoint(WatchKind::Hot)],
            vec![w.watchpoint(WatchKind::Warm1), w.watchpoint(WatchKind::Cold)],
            vec![w.watchpoint(WatchKind::Range)],
        ];
        let mut jobs = Vec::new();
        for set in &sets {
            for backend in
                [BackendKind::VirtualMemory, BackendKind::DiseComparators, BackendKind::hw4()]
            {
                for (_, cpu) in transition_cost_sweep(CpuConfig::default()).into_iter().take(2) {
                    jobs.push(SessionJob::new(w.clone(), set.clone(), backend, cpu));
                }
            }
            jobs.push(SessionJob::new(
                w.clone(),
                set.clone(),
                BackendKind::dise_default(),
                CpuConfig::default(),
            ));
        }
        let groups = batch_session_jobs(&jobs);
        // One observer group for the whole workload; DISE replays
        // privately, one group per watchpoint set.
        assert_eq!(groups.len(), 1 + sets.len(), "{groups:#?}");
        let o = &groups[0];
        assert!(o.observing(), "first group must observe");
        assert_eq!(o.slots.len(), 9, "3 sets x 3 observing backends");
        for s in &o.slots {
            assert_eq!(s.cpus.len(), 2, "each slot carries its two timing configs");
        }
        assert!(sets.iter().all(|set| o.slots.iter().any(|s| &s.watchpoints == set)));
        for g in &groups[1..] {
            assert!(!g.observing(), "DISE must replay privately");
            assert_eq!(g.slots[0].backend, BackendKind::dise_default());
        }
    }

    /// Observer groups ignore DISE engine capacities (observers install
    /// no productions), so engine-divergent cells still merge.
    #[test]
    fn observer_groups_merge_across_engine_configs() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let jobs = [
            SessionJob::new(
                w.clone(),
                wp.clone(),
                BackendKind::VirtualMemory,
                CpuConfig::default(),
            ),
            SessionJob::new(w.clone(), wp.clone(), BackendKind::VirtualMemory, small_engine()),
        ];
        let groups = batch_session_jobs(&jobs);
        let [o] = groups.as_slice() else { panic!("one observer group") };
        assert!(o.observing());
        assert_eq!(o.slots.len(), 1);
        assert_eq!(o.slots[0].cells, vec![0, 1]);
    }

    #[test]
    fn same_name_different_scale_workloads_stay_separate() {
        // Two scales of the same kernel share a name but are different
        // programs; merging them would run only the first one's app.
        let small = &all(10)[0];
        let large = &all(20)[0];
        assert_eq!(small.name(), large.name());
        let jobs = [small, large].map(|w| {
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            )
        });
        assert_eq!(batch_session_jobs(&jobs).len(), 2);
    }

    #[test]
    fn functionally_different_cells_stay_separate() {
        let w = &all(10)[0];
        let jobs = [
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            ),
            // Different watchpoint.
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Cold)],
                BackendKind::dise_default(),
                CpuConfig::default(),
            ),
            // Different engine capacity: functional, must not share a
            // stream.
            SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                small_engine(),
            ),
        ];
        // Each cell is its own functional stream, so its own one-slot
        // group.
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 3);
        for (i, g) in groups.iter().enumerate() {
            assert!(!g.observing(), "DISE perturbs");
            assert_eq!(g.slots.len(), 1, "a perturbing group is one machine");
            assert_eq!(g.slots[0].cells, vec![i]);
        }
    }

    /// The acceptance bar: a grid containing batchable cells (a
    /// transition-cost sweep plus an unsupported combination) produces
    /// byte-identical reports to the unbatched cell-by-cell reference,
    /// serial and pooled, at the default and an odd slice budget.
    #[test]
    fn batched_overheads_match_unbatched_cell_for_cell() {
        let w = &all(10)[0];
        let mut jobs = Vec::new();
        for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
            for backend in [BackendKind::hw4(), BackendKind::dise_default()] {
                jobs.push(SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(WatchKind::Warm1)],
                    backend,
                    cpu,
                ));
            }
        }
        // An unsupported cell: INDIRECT under virtual memory. It merges
        // into the workload's observer group (the group key carries no
        // watchpoints) and fails there per slot.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Indirect)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        ));
        assert_eq!(
            batch_session_jobs(&jobs).len(),
            2,
            "one per-workload observer group (incl. the unsupported slot), one DISE sweep"
        );

        let unbatched = reference(&jobs);
        for workers in [1, 4] {
            for slice in [DEFAULT_SLICE, 97] {
                let batched = run_session_grid(&jobs, workers, slice);
                assert_eq!(batched, unbatched, "workers={workers} slice={slice}");
            }
        }
        assert!(
            matches!(unbatched[6], Err(DebugError::Unsupported { .. })),
            "unsupported cell settles as the no-experiment bar"
        );
    }

    /// A perturbing sweep spanning *engine capacities* (cells that can
    /// never share a functional stream) runs one group per engine and
    /// still matches the cell-by-cell reference.
    #[test]
    fn forked_overheads_match_unforked_cell_for_cell() {
        let w = &all(10)[0];
        let wp = vec![w.watchpoint(WatchKind::Warm1)];
        let mut jobs = Vec::new();
        for engine_cpu in [CpuConfig::default(), small_engine()] {
            for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
                for backend in [BackendKind::dise_default(), BackendKind::BinaryRewrite] {
                    jobs.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
                }
            }
        }
        // An unsupported perturbing cell: a multi-watchpoint set under
        // inline evaluation settles as the no-experiment bar through the
        // group path too.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Hot), w.watchpoint(WatchKind::Cold)],
            BackendKind::Dise(DiseStrategy::evaluate_inline(true)),
            CpuConfig::default(),
        ));

        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 5, "one group per (backend, watchpoints, engine)");
        for g in &groups {
            assert!(!g.observing(), "every backend here perturbs");
            assert_eq!(g.slots.len(), 1, "a perturbing group is one machine");
        }
        assert_eq!(groups[0].slots[0].cells, vec![0, 2], "timing-only cells share a machine");

        let cell_by_cell = reference(&jobs);
        let grouped = run_session_grid(&jobs, 1, DEFAULT_SLICE);
        assert_eq!(grouped, cell_by_cell, "grouped grid diverged from cell-by-cell reference");
        assert!(
            matches!(cell_by_cell[8], Err(DebugError::Unsupported { .. })),
            "unsupported cell settles as the no-experiment bar"
        );
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 8, 200] {
            assert_eq!(run_grid_with(&jobs, workers, |j| j * j), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = run_grid_with(&Vec::<u64>::new(), 8, |j| *j);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_job_propagates() {
        let jobs: Vec<u64> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_grid_with(&jobs, 4, |j| {
                if *j == 17 {
                    panic!("job 17 exploded");
                }
                *j
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 17 exploded");
    }

    #[test]
    fn first_panic_by_job_order_wins() {
        let jobs: Vec<u64> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_grid_with(&jobs, 8, |j| {
                if *j >= 3 {
                    panic!("job {j} exploded");
                }
                *j
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "job 3 exploded");
    }
}
