//! The job-grid subsystem: every table/figure is a grid of independent
//! debugging sessions (kernel × watchpoint-set × backend × config).
//! This module decomposes a grid into [`SessionJob`] cells, groups the
//! cells into single-functional-pass [`CellGroup`]s, runs every group as
//! a resumable [`SessionTask`] on one cooperative [`Scheduler`], and
//! scatters the per-cell results back in cell order — so output is
//! byte-identical for any worker count and any slice budget.
//!
//! Worker count, slice budget and trace directory are plain arguments
//! here; only the binaries read them from the environment (see
//! [`crate::Experiment::from_env`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dise_cpu::{CpuConfig, RunStats};
use dise_debug::{
    app_fingerprint, run_session, BackendKind, BaselineCache, DebugError, Scheduler, SessionReport,
    SessionTask, TaskOutput, Watchpoint,
};
use dise_workloads::Workload;

/// One cell of an experiment grid: a kernel, the watchpoints to plant,
/// the backend implementing them, and the machine configuration.
#[derive(Clone, Debug)]
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

    /// Overhead (normalised execution time) of [`SessionJob::report`]
    /// against the kernel's baseline from the shared cache, or `None`
    /// when the backend cannot implement the watchpoints (or the
    /// watchpoint is ill-formed) — the paper's "no experiment" bars.
    ///
    /// # Panics
    ///
    /// Panics if the session reports an execution error (the calibrated
    /// kernels must run clean).
    pub fn overhead(&self, baselines: &BaselineCache) -> Option<f64> {
        let base = baseline(&self.workload, self.cpu, baselines);
        overheads(&self.workload, self.report().map(|r| vec![r]), 1, &base)[0]
    }
}

/// The kernel's undebugged baseline from the shared cache.
fn baseline(w: &Workload, cpu: CpuConfig, baselines: &BaselineCache) -> RunStats {
    baselines.get_or_run(w.name(), w.app(), cpu).expect("kernel assembles")
}

/// Convert one batch result — one report per timing configuration, for
/// `cells` cells — into overheads against `base`. Unsupported and
/// ill-formed watchpoints become the "no experiment" bar (`None`).
///
/// # Panics
///
/// Panics on any other error, and on a report carrying an execution
/// error: the calibrated kernels must run clean. A task whose poll
/// panicked ([`DebugError::Panicked`]) re-raises here with its message,
/// so a figure never renders it as a "no experiment" cell.
fn overheads(
    w: &Workload,
    result: Result<Vec<SessionReport>, DebugError>,
    cells: usize,
    base: &RunStats,
) -> Vec<Option<f64>> {
    match result {
        Ok(reports) => reports
            .iter()
            .map(|r| {
                assert_eq!(r.error, None, "{}: session must run clean", w.name());
                Some(r.overhead_vs(base))
            })
            .collect(),
        Err(DebugError::Unsupported { .. } | DebugError::InvalidWatchpoint { .. }) => {
            vec![None; cells]
        }
        Err(e) => panic!("{}: {e}", w.name()),
    }
}

/// One member of an [`ObserverGroup`]: an observing backend with its
/// own watchpoint set, the effective timing configurations of its
/// cells, and the original cell indices they scatter back to.
#[derive(Clone, Debug)]
pub struct ObserverMember {
    /// The observing backend (see [`BackendKind::observation_only`]).
    pub backend: BackendKind,
    /// The member's own watchpoints — members of one group may watch
    /// entirely different things.
    pub watchpoints: Vec<Watchpoint>,
    /// Per-cell effective machine configurations, in member order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each configuration, parallel to
    /// `cpus`.
    pub cells: Vec<usize>,
}

/// A group of grid cells that share one functional execution **across
/// watchpoint sets and backends**: same kernel, every backend observing
/// (never perturbing) — so a single pass of the unmodified application
/// feeds all members' transition detectors and timing models. The group
/// key is the *workload alone*: observers' watchpoints steer only what
/// the debugger traps on, never what the application executes, so cells
/// that differ in watchpoint set still merge. Members need not agree on
/// DISE engine capacities either: observers install no productions, so
/// the engine is functionally inert.
#[derive(Clone, Debug)]
pub struct ObserverGroup {
    /// The kernel to debug.
    pub workload: Workload,
    /// The observing (backend, watchpoint-set) members sharing the
    /// pass, in first-appearance order.
    pub members: Vec<ObserverMember>,
}

impl ObserverGroup {
    /// The group's shared pass as a task. With a trace directory the
    /// pass is **replayed** from the store when a trace for this kernel
    /// (keyed by name + program fingerprint) already exists — zero
    /// functional passes — and recorded into the store on a miss, so
    /// the next run replays. A stale or corrupt stored trace fails the
    /// task loudly ([`DebugError::Trace`]); it is never silently
    /// re-recorded.
    pub fn task_traced(&self, trace: Option<&Path>) -> SessionTask {
        let app = self.workload.app();
        let members = self
            .members
            .iter()
            .map(|m| (m.backend, m.watchpoints.clone(), m.cpus.clone()))
            .collect();
        match trace.and_then(|dir| self.trace_path(dir)) {
            None => SessionTask::observer(app, members),
            Some(path) if path.exists() => SessionTask::observer_replay(app, members, &path),
            Some(path) => SessionTask::observer_recorded(app, members, &path),
        }
    }

    /// Where this group's shared pass lives inside the trace store at
    /// `dir`: keyed by kernel name *and* program fingerprint, so two
    /// scales of one kernel — or any edit to it — never collide, and a
    /// recorded trace is valid forever. `None` when the kernel fails to
    /// assemble (the traceless path reports that error in the shape
    /// callers expect). Creates `dir` on first use.
    fn trace_path(&self, dir: &Path) -> Option<PathBuf> {
        let fp = app_fingerprint(self.workload.app()).ok()?;
        // A missing store directory is "first recording", not an error;
        // if creation truly failed, recording into it fails loudly.
        let _ = std::fs::create_dir_all(dir);
        Some(dir.join(format!("{}-{fp:016x}.dtrc", self.workload.name())))
    }

    /// Scatter the finished task's output to per-cell overheads, tagged
    /// with their original cell index — entry for cell `c` is
    /// byte-identical to `jobs[c].overhead(baselines)`.
    ///
    /// # Panics
    ///
    /// Panics when `output` is not an observer output, when the kernel
    /// fails to assemble, and as [`SessionJob::overhead`].
    pub fn overheads_from(
        &self,
        output: TaskOutput,
        baselines: &BaselineCache,
    ) -> Vec<(usize, Option<f64>)> {
        let w = &self.workload;
        let base = baseline(w, self.members[0].cpus[0], baselines);
        // The outer error is an assembly failure; watchpoint problems
        // (ill-formed, unsupported) come back per member, exactly as
        // when each cell runs alone.
        let results = output.into_observe().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        self.members
            .iter()
            .zip(results)
            .flat_map(|(m, r)| m.cells.iter().copied().zip(overheads(w, r, m.cells.len(), &base)))
            .collect()
    }
}

/// One engine-configuration sub-batch of a [`PerturbGroup`]: the cells
/// sharing a functional stream (their configurations agree on DISE
/// engine capacities), each with its own timing configuration.
#[derive(Clone, Debug)]
pub struct PerturbSubBatch {
    /// Per-cell effective machine configurations, in member order.
    pub cpus: Vec<CpuConfig>,
    /// Original grid-cell index of each configuration, parallel to
    /// `cpus`.
    pub cells: Vec<usize>,
}

/// A group of perturbing grid cells that share one *image*: same
/// kernel, same watchpoints, same perturbing backend — the cells differ
/// in engine capacities (one functional stream per sub-batch) and
/// timing configuration. [`SessionTask::perturbing_group`] builds the
/// backend and its program image once, and every sub-batch restores the
/// image copy-on-write into a machine with its own engine capacities:
/// K sub-batches cost one backend build and K image loads.
#[derive(Clone, Debug)]
pub struct PerturbGroup {
    /// The kernel to debug.
    pub workload: Workload,
    /// The watchpoints to plant.
    pub watchpoints: Vec<Watchpoint>,
    /// The perturbing backend (timing-only knobs already folded into
    /// the sub-batch configurations by [`BackendKind::split_timing`]).
    pub backend: BackendKind,
    /// Engine-configuration sub-batches, in first-appearance order.
    pub batches: Vec<PerturbSubBatch>,
}

impl PerturbGroup {
    /// The group as a task. Perturbing groups change the functional
    /// stream, so they always execute: a trace store never serves them.
    pub fn task(&self) -> SessionTask {
        let cpus: Vec<Vec<CpuConfig>> = self.batches.iter().map(|b| b.cpus.clone()).collect();
        SessionTask::perturbing_group(
            self.workload.app(),
            self.watchpoints.clone(),
            self.backend,
            &cpus,
        )
    }

    /// Scatter the finished task's output to per-cell overheads, tagged
    /// with their original cell index — entry for cell `c` is
    /// byte-identical to `jobs[c].overhead(baselines)`.
    ///
    /// # Panics
    ///
    /// Panics when `output` is not a perturbing-group output, and as
    /// [`SessionJob::overhead`].
    pub fn overheads_from(
        &self,
        output: TaskOutput,
        baselines: &BaselineCache,
    ) -> Vec<(usize, Option<f64>)> {
        let w = &self.workload;
        let base = baseline(w, self.batches[0].cpus[0], baselines);
        // A group-wide error (invalid or unsupported watchpoints) is
        // every sub-batch's error.
        let per_batch = output.into_group().unwrap_or_else(|e| vec![Err(e); self.batches.len()]);
        self.batches
            .iter()
            .zip(per_batch)
            .flat_map(|(b, r)| b.cells.iter().copied().zip(overheads(w, r, b.cells.len(), &base)))
            .collect()
    }
}

/// A grid group sharing functional work: many observing backends fanned
/// off one pass of the unmodified application ([`ObserverGroup`]), or a
/// perturbing backend's engine-configuration sub-batches restored
/// copy-on-write from one built image ([`PerturbGroup`]).
#[derive(Clone, Debug)]
pub enum CellGroup {
    /// Observing backends sharing the application's own pass.
    Observe(ObserverGroup),
    /// A perturbing backend's sub-batches off one shared image.
    Perturb(PerturbGroup),
}

impl CellGroup {
    /// The group as a task — what the grid spawns. Observer groups go
    /// through the trace store at `trace` when one is configured
    /// ([`ObserverGroup::task_traced`]); perturbing groups always
    /// execute.
    pub fn task_traced(&self, trace: Option<&Path>) -> SessionTask {
        match self {
            CellGroup::Observe(g) => g.task_traced(trace),
            CellGroup::Perturb(g) => g.task(),
        }
    }

    /// Scatter a drained task's output back to per-cell overheads,
    /// tagged with their original cell indices.
    ///
    /// # Panics
    ///
    /// Panics when `output`'s shape does not match this group (a caller
    /// bug: the output must come from this group's
    /// [`CellGroup::task_traced`]), and as [`SessionJob::overhead`].
    pub fn overheads_from(
        &self,
        output: TaskOutput,
        baselines: &BaselineCache,
    ) -> Vec<(usize, Option<f64>)> {
        match self {
            CellGroup::Observe(g) => g.overheads_from(output, baselines),
            CellGroup::Perturb(g) => g.overheads_from(output, baselines),
        }
    }
}

/// Group grid cells for single-pass execution — the cell-key lattice
/// generalising [`BackendKind::split_timing`] across watchpoint sets
/// and backends:
///
/// * every cell's backend is first split into its functional core and
///   folded timing knobs;
/// * cells whose functional core **observes** (virtual memory, hardware
///   registers, DISE comparators) group by (kernel) alone into an
///   [`ObserverGroup`] — one pass of the unmodified application serves
///   every watchpoint set, every observing backend and every timing
///   configuration at once; within a group, cells sharing a
///   (backend, watchpoints) pair share one member (and one detector);
/// * cells whose functional core **perturbs** (single-stepping,
///   rewriting, DISE production injection) group by (kernel,
///   watchpoints, backend) into a [`PerturbGroup`] that builds one image,
///   with one sub-batch — one private functional stream, replayed under
///   each member's timing configuration — per DISE engine capacity.
///
/// Kernel identity is the full workload (not just its name — two scales
/// of the same kernel are different programs). Groups appear in
/// first-appearance order and members keep cell order; grouping looks
/// only at the jobs, so the partition — and with it the reassembled
/// output — is identical for any worker count.
pub fn batch_session_jobs(jobs: &[SessionJob]) -> Vec<CellGroup> {
    let mut groups: Vec<CellGroup> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (backend, cpu) = job.backend.split_timing(job.cpu);
        if backend.observation_only() {
            let existing = groups.iter_mut().find_map(|g| match g {
                CellGroup::Observe(o) if o.workload == job.workload => Some(o),
                _ => None,
            });
            let group = match existing {
                Some(o) => o,
                None => {
                    groups.push(CellGroup::Observe(ObserverGroup {
                        workload: job.workload.clone(),
                        members: Vec::new(),
                    }));
                    let Some(CellGroup::Observe(o)) = groups.last_mut() else { unreachable!() };
                    o
                }
            };
            match group
                .members
                .iter_mut()
                .find(|m| m.backend == backend && m.watchpoints == job.watchpoints)
            {
                Some(m) => {
                    m.cpus.push(cpu);
                    m.cells.push(i);
                }
                None => group.members.push(ObserverMember {
                    backend,
                    watchpoints: job.watchpoints.clone(),
                    cpus: vec![cpu],
                    cells: vec![i],
                }),
            }
        } else {
            let existing = groups.iter_mut().find_map(|g| match g {
                CellGroup::Perturb(p)
                    if p.backend == backend
                        && p.workload == job.workload
                        && p.watchpoints == job.watchpoints =>
                {
                    Some(p)
                }
                _ => None,
            });
            let group = match existing {
                Some(p) => p,
                None => {
                    groups.push(CellGroup::Perturb(PerturbGroup {
                        workload: job.workload.clone(),
                        watchpoints: job.watchpoints.clone(),
                        backend,
                        batches: Vec::new(),
                    }));
                    let Some(CellGroup::Perturb(p)) = groups.last_mut() else { unreachable!() };
                    p
                }
            };
            match group.batches.iter_mut().find(|b| b.cpus[0].engine == cpu.engine) {
                Some(b) => {
                    b.cpus.push(cpu);
                    b.cells.push(i);
                }
                None => {
                    group.batches.push(PerturbSubBatch { cpus: vec![cpu], cells: vec![i] });
                }
            }
        }
    }
    groups
}

/// Default scheduler slice budget (dynamic instructions per grant):
/// large enough that slicing overhead is noise, small enough that a
/// full grid still preempts hundreds of times.
pub const DEFAULT_SLICE: u64 = 65_536;

/// The machine's available parallelism (1 when unknown): the worker
/// count an [`crate::Experiment`] starts with, and the default the
/// binaries give `DISE_JOBS`.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run a whole overhead grid: group the cells into single functional
/// passes ([`batch_session_jobs`]), spawn every group as one
/// [`SessionTask`] on a [`Scheduler`] granting `slice` instructions per
/// slice, drain it with `workers` threads, and scatter the results back
/// to cell order. With `trace: Some(dir)`, observer groups record their
/// shared pass into the trace store at `dir` on a miss and replay it on
/// a hit.
///
/// Task ids are spawn order, so the output is byte-identical to the
/// cell-by-cell `cells.iter().map(|c| c.overhead(baselines))` for every
/// worker count, slice budget and store state.
///
/// # Panics
///
/// Panics when `workers` or `slice` is zero, and as the groups'
/// `overheads_from` (including on a stale or corrupt stored trace).
pub fn run_overhead_grid(
    cells: &[SessionJob],
    workers: usize,
    baselines: &BaselineCache,
    slice: u64,
    trace: Option<&Path>,
) -> Vec<Option<f64>> {
    let groups = batch_session_jobs(cells);
    let scheduler = Scheduler::new(slice);
    for group in &groups {
        scheduler.spawn(group.task_traced(trace));
    }
    let mut out = vec![None; cells.len()];
    for (id, output) in scheduler.drain(workers) {
        for (cell, o) in groups[id].overheads_from(output, baselines) {
            out[cell] = o;
        }
    }
    out
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
    fn reference(jobs: &[SessionJob], baselines: &BaselineCache) -> Vec<Option<f64>> {
        jobs.iter().map(|job| job.overhead(baselines)).collect()
    }

    /// A group whose task panicked re-raises the panic's message
    /// instead of rendering its cells as "no experiment", whichever
    /// group shape settled with it.
    #[test]
    fn a_panicked_group_is_re_raised() {
        let w = &all(10)[0];
        let jobs = [
            (BackendKind::dise_default(), WatchKind::Hot),
            (BackendKind::VirtualMemory, WatchKind::Cold),
        ]
        .map(|(b, k)| SessionJob::new(w.clone(), vec![w.watchpoint(k)], b, CpuConfig::default()));
        let baselines = BaselineCache::new();
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 2, "one perturbing and one observing group");
        for group in groups {
            let err = Err(DebugError::Panicked("boom".into()));
            let output = match &group {
                CellGroup::Observe(_) => TaskOutput::Observe(err),
                CellGroup::Perturb(_) => TaskOutput::Group(err),
            };
            let cause = catch_unwind(AssertUnwindSafe(|| group.overheads_from(output, &baselines)))
                .expect_err("a panicked group must re-raise");
            let msg = cause.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("session panicked: boom"), "{msg}");
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
        let CellGroup::Perturb(dise) = &groups[0] else {
            panic!("DISE perturbs: must run off a shared image")
        };
        assert_eq!(dise.batches.len(), 1, "identical engines share one functional stream");
        assert_eq!(dise.batches[0].cells, vec![0, 1]);
        assert!(dise.batches[0].cpus[1].multithreaded_dise_calls, "mt knob folded into the config");
        let CellGroup::Observe(hw) = &groups[1] else { panic!("hardware registers observe") };
        assert_eq!(hw.members[0].cells, vec![2]);
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
        let CellGroup::Observe(o) = &groups[0] else { panic!("first group must observe") };
        assert_eq!(o.members.len(), 2);
        assert_eq!(o.members[0].backend, BackendKind::VirtualMemory);
        assert_eq!(o.members[0].cells, vec![0, 3, 6]);
        assert_eq!(o.members[1].backend, BackendKind::hw4());
        assert_eq!(o.members[1].cells, vec![1, 4, 7]);
        let CellGroup::Perturb(ss) = &groups[1] else {
            panic!("single-step must replay privately")
        };
        assert_eq!(ss.batches.len(), 1);
        assert_eq!(ss.batches[0].cells, vec![2, 5, 8]);
    }

    /// The lattice's final axis: observing cells that differ in
    /// *watchpoint set* — and in backend, and in timing — all collapse
    /// into one per-workload group, one member per distinct
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
        let CellGroup::Observe(o) = &groups[0] else { panic!("first group must observe") };
        assert_eq!(o.members.len(), 9, "3 sets x 3 observing backends");
        for m in &o.members {
            assert_eq!(m.cpus.len(), 2, "each member carries its two timing configs");
        }
        assert!(sets.iter().all(|s| o.members.iter().any(|m| &m.watchpoints == s)));
        for g in &groups[1..] {
            let CellGroup::Perturb(p) = g else { panic!("DISE must replay privately") };
            assert_eq!(p.backend, BackendKind::dise_default());
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
        let [CellGroup::Observe(o)] = groups.as_slice() else { panic!("one observer group") };
        assert_eq!(o.members[0].cells, vec![0, 1]);
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
        // The engine-divergent cells 0 and 2 share one image (one group,
        // two sub-batches — two functional streams, one load); the
        // different watchpoint stands alone.
        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 2);
        let CellGroup::Perturb(p) = &groups[0] else { panic!("perturbing cells must group") };
        assert_eq!(p.batches.len(), 2, "one sub-batch per engine configuration");
        assert_eq!(p.batches[0].cells, vec![0]);
        assert_eq!(p.batches[1].cells, vec![2]);
    }

    /// The acceptance bar: a grid containing batchable cells (a
    /// transition-cost sweep plus an unsupported combination) produces
    /// byte-identical overheads to the unbatched cell-by-cell reference,
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
        // watchpoints) and fails there per member.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Indirect)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        ));
        assert_eq!(
            batch_session_jobs(&jobs).len(),
            2,
            "one per-workload observer group (incl. the unsupported member), one DISE sweep"
        );

        let baselines = BaselineCache::new();
        let unbatched = reference(&jobs, &baselines);
        for workers in [1, 4] {
            for slice in [DEFAULT_SLICE, 97] {
                let batched = run_overhead_grid(&jobs, workers, &baselines, slice, None);
                assert_eq!(batched, unbatched, "workers={workers} slice={slice}");
            }
        }
        assert_eq!(unbatched[6], None, "unsupported cell renders the no-experiment bar");
    }

    /// The copy-on-write acceptance bar: a perturbing sweep spanning
    /// *engine capacities* (cells that can never share a functional
    /// stream) restores every sub-batch from one shared image and still
    /// matches the cell-by-cell reference.
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
        // inline evaluation renders the no-experiment bar through the
        // group path too.
        jobs.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Hot), w.watchpoint(WatchKind::Cold)],
            BackendKind::Dise(DiseStrategy::evaluate_inline(true)),
            CpuConfig::default(),
        ));

        let groups = batch_session_jobs(&jobs);
        assert_eq!(groups.len(), 3, "one group per (backend, watchpoints)");
        let CellGroup::Perturb(dise) = &groups[0] else { panic!("DISE perturbs") };
        assert_eq!(dise.batches.len(), 2, "two engine sub-batches share one image");

        let baselines = BaselineCache::new();
        let cell_by_cell = reference(&jobs, &baselines);
        let grouped = run_overhead_grid(&jobs, 1, &baselines, DEFAULT_SLICE, None);
        assert_eq!(grouped, cell_by_cell, "grouped grid diverged from cell-by-cell reference");
        assert_eq!(cell_by_cell[8], None, "unsupported cell renders the no-experiment bar");
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
