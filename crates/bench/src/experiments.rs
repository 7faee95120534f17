//! The experiment implementations, one per table/figure.
//!
//! Each table/figure is decomposed into independent grid cells (see
//! [`crate::grid`]), run on the experiment's worker pool, and
//! reassembled in cell order, so output is identical for any worker
//! count. Each overhead figure is declared once, by a public
//! `*_figure` function returning its [`Figure`]: a header and rows of
//! labelled cells. The figure renders from that one declaration, and
//! tests check the very grid it runs ([`Figure::cells`]) against the
//! cell-by-cell reference.
//!
//! Figures re-run each other's cells (fig8's "no-MT" column, fig9's
//! "unprotected" column and fig5's DISE column are fig3's DISE cells),
//! so an [`Experiment`] runs one *round*: its plan is the deduplicated
//! union of the cells of every figure it will render (all of
//! [`FIGURES`] by default, narrowed by [`Experiment::with_plan`]),
//! built at the first grid call, and it keeps every report it has
//! computed. A figure reads its reports from that memo. On a miss it
//! runs every *slot* ([`crate::grid::Slot`]: one functional stream
//! under one detector) that holds one of its unfinished cells, with all
//! of that slot's planned cells: the extra cells differ only in timing,
//! so they ride the pass the figure needs anyway. A slot no requested
//! cell sits in waits for the figure that needs it, so each slot runs
//! once a round, while a kernel's observer pass runs once for each
//! figure that observes it. Every report equals its cell run alone, so
//! the order figures render in never changes their text.

use std::sync::{Mutex, OnceLock};

use dise_cpu::{footprints_overlap, CpuConfig, RunStats};
use dise_debug::{run_baseline, BackendKind, DebugError, DiseStrategy, SessionReport, Watchpoint};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind, Workload};

use crate::grid::{
    batch_session_jobs, default_workers, run_grid_with, run_session_grid, SessionJob,
};

/// A figure's declaration: what [`Experiment::with_plan`] plans.
type Declare = fn(&Experiment) -> Figure;

/// A figure's renderer: its text, from the round's reports.
type Render = fn(&Experiment) -> String;

/// The overhead figures of a round, in the order `all_experiments`
/// renders them: each one's name, renderer and declaration.
/// [`Experiment::new`] plans all of them.
pub const FIGURES: [(&str, Render, Declare); 9] = [
    ("fig3", fig3, fig3_figure),
    ("fig4", fig4, fig4_figure),
    ("fig5", fig5, fig5_figure),
    ("fig6", fig6, fig6_figure),
    ("fig7", fig7, fig7_figure),
    ("fig8", fig8, fig8_figure),
    ("fig9", fig9, fig9_figure),
    ("sensitivity", sensitivity, sensitivity_figure),
    ("watchpoint_sets", watchpoint_sets, watchpoint_sets_figure),
];

/// Shared experiment context: workload scale, machine configuration,
/// how grids run (workers, slice budget), each kernel's undebugged
/// baseline run and store census, each computed once, and the round's
/// plan with every report computed so far.
pub struct Experiment {
    /// Kernel iteration count.
    pub iters: u32,
    /// Machine configuration.
    pub cpu: CpuConfig,
    /// Worker threads that drain experiment grids.
    pub workers: usize,
    /// Scheduler slice budget (instructions per grant) for grids:
    /// `u64::MAX` by default, so each group runs whole on its worker
    /// and a round holds only the groups its workers are running.
    /// Reports are byte-identical for every budget; a finite one
    /// interleaves the groups with preemptions instead, and the
    /// scheduler's admission-first rule then starts every group of a
    /// grid before it resumes any, keeping a whole figure of passes
    /// resident.
    pub slice: u64,
    workloads: Vec<Workload>,
    /// Each workload's baseline, parallel to `workloads`.
    baselines: Vec<OnceLock<RunStats>>,
    /// Each workload's store census, parallel to `workloads`: taken by
    /// whichever table asks first, never at construction.
    censuses: Vec<OnceLock<Census>>,
    /// The overhead figures the round plans for.
    figures: Vec<Declare>,
    /// The round's plan and memo, built at the first grid call.
    round: Mutex<Option<Round>>,
}

/// One kernel's store census, the data of Tables 1 and 2: its dynamic
/// stores, and how many of them overlapped each watched expression's
/// storage ([`WatchKind::ALL`] order) as of the store.
#[derive(Clone, Copy, Default)]
struct Census {
    stores: u64,
    hits: [u64; WatchKind::ALL.len()],
}

/// One round's plan: every planned cell once, with its report once the
/// cell's slot has run.
struct Round {
    cells: Vec<SessionJob>,
    /// Parallel to `cells`.
    reports: Vec<Option<Result<SessionReport, DebugError>>>,
}

impl Round {
    /// The plan of `cells`, duplicates dropped, nothing run.
    fn plan(cells: impl IntoIterator<Item = SessionJob>) -> Round {
        let mut round = Round { cells: Vec::new(), reports: Vec::new() };
        for cell in cells {
            round.index(&cell);
        }
        round
    }

    /// The cell's place in the plan; a cell the plan lacks joins it.
    fn index(&mut self, cell: &SessionJob) -> usize {
        self.cells.iter().position(|c| c == cell).unwrap_or_else(|| {
            self.cells.push(cell.clone());
            self.reports.push(None);
            self.cells.len() - 1
        })
    }

    /// The unfinished cells to run for `wanted`, in plan order: every
    /// slot of the unfinished cells that holds a wanted one, whole.
    fn due(&self, wanted: &[usize]) -> Vec<usize> {
        let open: Vec<usize> =
            (0..self.cells.len()).filter(|&i| self.reports[i].is_none()).collect();
        let jobs: Vec<SessionJob> = open.iter().map(|&i| self.cells[i].clone()).collect();
        let mut want = vec![false; self.cells.len()];
        for &i in wanted {
            want[i] = true;
        }
        let mut due: Vec<usize> = batch_session_jobs(&jobs)
            .iter()
            .flat_map(|group| &group.slots)
            .filter(|slot| slot.cells.iter().any(|&c| want[open[c]]))
            .flat_map(|slot| slot.cells.iter().map(|&c| open[c]))
            .collect();
        due.sort_unstable();
        due
    }
}

impl Experiment {
    /// Build a context at the given scale, on [`default_workers`]
    /// threads running each grid group whole ([`Experiment::slice`] is
    /// `u64::MAX`), planning a round of every overhead figure in
    /// [`FIGURES`]. Reads nothing from the environment.
    pub fn new(iters: u32, cpu: CpuConfig) -> Experiment {
        let workloads = all(iters);
        Experiment {
            iters,
            cpu,
            workers: default_workers(),
            slice: u64::MAX,
            baselines: workloads.iter().map(|_| OnceLock::new()).collect(),
            censuses: workloads.iter().map(|_| OnceLock::new()).collect(),
            workloads,
            figures: FIGURES.iter().map(|&(_, _, declare)| declare).collect(),
            round: Mutex::new(None),
        }
    }

    /// The binaries' context: [`Experiment::new`] under the paper's
    /// default machine, configured once from the environment —
    /// `DISE_ITERS` (default 400), `DISE_JOBS` (default
    /// [`default_workers`]) and `DISE_SLICE` (unset: each group runs
    /// whole, as in [`Experiment::new`]; set, the scheduler's slice
    /// budget, such as [`DEFAULT_SLICE`](crate::DEFAULT_SLICE)).
    ///
    /// # Panics
    ///
    /// Panics on an unparsable value, a zero `DISE_JOBS` or a zero
    /// `DISE_SLICE` — a typo must fail loudly, not silently run another
    /// experiment.
    pub fn from_env() -> Experiment {
        let mut ctx =
            Experiment::new(dise_env::env_number("DISE_ITERS", 400), CpuConfig::default())
                .with_workers(dise_env::env_number("DISE_JOBS", default_workers()));
        ctx.slice = dise_env::env_number("DISE_SLICE", u64::MAX);
        assert!(ctx.slice > 0, "DISE_SLICE must be at least one instruction");
        ctx
    }

    /// Override the worker-pool size (1 = serial).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Experiment {
        assert!(workers > 0, "worker pool needs at least one thread");
        self.workers = workers;
        self
    }

    /// Plan the round for these overhead figures alone (the default is
    /// all of [`FIGURES`]). A binary that renders one figure narrows to
    /// it, so its passes carry no timing configurations of figures it
    /// will not render: at `DISE_ITERS=400` on a 2-core host, a lone
    /// fig3 took 11 % less wall time narrowed (lower in 17 of 20
    /// alternating runs). A figure outside the plan still renders; its
    /// cells join the plan when first asked for. Starts a new round:
    /// reports computed before are dropped.
    #[must_use]
    pub fn with_plan(mut self, figures: &[fn(&Experiment) -> Figure]) -> Experiment {
        self.figures = figures.to_vec();
        self.round = Mutex::new(None);
        self
    }

    /// The six kernels.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Baseline (undebugged) statistics for a kernel under this
    /// experiment's machine: computed once for each of
    /// [`Experiment::workloads`], afresh for any other kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to assemble.
    pub fn baseline(&self, w: &Workload) -> RunStats {
        let run = || run_baseline(w.app(), self.cpu).expect("kernel assembles");
        match self.workloads.iter().position(|x| x == w) {
            Some(i) => *self.baselines[i].get_or_init(run),
            None => run(),
        }
    }

    /// The store census of one of [`Experiment::workloads`]: one
    /// undebugged functional pass under this experiment's machine, taken
    /// once.
    fn census(&self, w: &Workload) -> Census {
        let i = self.workloads.iter().position(|x| x == w).expect("one of the six kernels");
        *self.censuses[i].get_or_init(|| {
            let exprs = WatchKind::ALL.map(|k| w.watch_expr(k));
            let mut census = Census::default();
            let mut exec = w.app().prepared().expect("kernel assembles").executor(self.cpu);
            while !exec.is_halted() {
                let Some(m) = exec.step().mem.filter(|m| m.is_store) else { continue };
                census.stores += 1;
                for (hits, expr) in census.hits.iter_mut().zip(&exprs) {
                    let watched = expr.watched_intervals(exec.mem());
                    *hits += u64::from(
                        watched.iter().any(|&(b, len)| footprints_overlap(m.addr, m.width, b, len)),
                    );
                }
            }
            census
        })
    }

    /// One grid cell under this experiment's machine configuration.
    pub fn job(
        &self,
        w: &Workload,
        wps: Vec<dise_debug::Watchpoint>,
        backend: BackendKind,
    ) -> SessionJob {
        SessionJob::new(w.clone(), wps, backend, self.cpu)
    }

    /// One cell's overhead: its execution time normalised to its
    /// kernel's [`Experiment::baseline`], or `None` — the paper's "no
    /// experiment" bar — when the backend cannot implement the
    /// watchpoints or they are ill-formed.
    ///
    /// # Panics
    ///
    /// Panics on any other error, naming the kernel — a poll that
    /// panicked ([`DebugError::Panicked`]) re-raises here, so a figure
    /// never renders it as a "no experiment" cell — and on a report
    /// carrying an execution error: the calibrated kernels must run
    /// clean.
    fn overhead_of(
        &self,
        cell: &SessionJob,
        result: &Result<SessionReport, DebugError>,
    ) -> Option<f64> {
        let w = &cell.workload;
        match result {
            Ok(report) => {
                assert_eq!(report.error, None, "{}: session must run clean", w.name());
                Some(report.overhead_vs(&self.baseline(w)))
            }
            Err(DebugError::Unsupported { .. } | DebugError::InvalidWatchpoint { .. }) => None,
            Err(e) => panic!("{}: {e}", w.name()),
        }
    }

    /// Reports of a cell grid, in cell order, from the round's memo.
    /// The first call plans the round. On a miss, every slot that holds
    /// a requested unfinished cell runs on the worker pool, with all of
    /// that slot's planned cells, and every report is kept. Selecting
    /// and storing hold the lock; the drain does not, so two renders
    /// that miss the same slot at once both run it, to the same bytes.
    fn grid_reports(&self, cells: &[SessionJob]) -> Vec<Result<SessionReport, DebugError>> {
        let lock = || self.round.lock().expect("round memo poisoned");
        let (wanted, due, jobs) = {
            let mut guard = lock();
            let round = guard.get_or_insert_with(|| {
                Round::plan(self.figures.iter().flat_map(|declare| declare(self).cells()))
            });
            let wanted: Vec<usize> = cells.iter().map(|c| round.index(c)).collect();
            let due = round.due(&wanted);
            let jobs: Vec<SessionJob> = due.iter().map(|&i| round.cells[i].clone()).collect();
            (wanted, due, jobs)
        };
        let reports = run_session_grid(&jobs, self.workers, self.slice);
        let mut guard = lock();
        let round = guard.as_mut().expect("planned above");
        for (i, report) in due.into_iter().zip(reports) {
            round.reports[i] = Some(report);
        }
        wanted.iter().map(|&i| round.reports[i].clone().expect("its slot has run")).collect()
    }

    /// Overheads of a whole cell grid, in cell order.
    fn grid_overheads(&self, cells: &[SessionJob]) -> Vec<Option<f64>> {
        let reports = self.grid_reports(cells);
        cells.iter().zip(&reports).map(|(cell, r)| self.overhead_of(cell, r)).collect()
    }

    /// One result per workload, computed on the worker pool, in
    /// workload order.
    fn per_workload<R: Send, F: Fn(&Workload) -> R + Sync>(&self, f: F) -> Vec<R> {
        run_grid_with(&self.workloads, self.workers, f)
    }
}

fn fmt_over(o: Option<f64>) -> String {
    match o {
        None => "      --".to_string(),
        Some(v) if v >= 1000.0 => format!("{v:>8.0}"),
        Some(v) => format!("{v:>8.2}"),
    }
}

/// **Table 1** — benchmark summary: dynamic instructions, IPC, store
/// density, per kernel.
pub fn table1(ctx: &Experiment) -> String {
    let mut out =
        String::from("benchmark  function                 instructions      IPC   store density\n");
    let rows = ctx.per_workload(|w| {
        let stores = ctx.census(w).stores;
        let base = ctx.baseline(w);
        format!(
            "{:<10} {:<24} {:>12} {:>8.2} {:>10.1}%\n",
            w.name(),
            w.function(),
            base.instructions,
            base.ipc(),
            100.0 * stores as f64 / base.instructions as f64,
        )
    });
    out.extend(rows);
    out
}

/// **Table 2** — watchpoint write frequency per 100K stores (stores
/// overlapping each watched expression's current storage).
pub fn table2(ctx: &Experiment) -> String {
    let mut out =
        String::from("benchmark       HOT    WARM1    WARM2     COLD INDIRECT    RANGE\n");
    let rows = ctx.per_workload(|w| {
        let Census { stores, hits } = ctx.census(w);
        let mut row = format!("{:<10}", w.name());
        for h in hits {
            row.push_str(&format!(" {:>8.1}", 100_000.0 * h as f64 / stores.max(1) as f64));
        }
        row.push('\n');
        row
    });
    out.extend(rows);
    out
}

/// One overhead figure, declared once: a header line and rows of
/// labelled grid cells. [`Figure::cells`] is the grid the figure runs;
/// each row renders as its label followed by, per cell, the separator
/// and the cell's overhead ([`fig5`] alone prints its own rows).
pub struct Figure {
    header: String,
    sep: &'static str,
    rows: Vec<(String, Vec<SessionJob>)>,
}

impl Figure {
    fn new(header: String, sep: &'static str) -> Figure {
        Figure { header, sep, rows: Vec::new() }
    }

    /// Append a row: one cell per backend, each watching `wps` on `w`.
    fn row(
        &mut self,
        ctx: &Experiment,
        label: String,
        w: &Workload,
        wps: &[Watchpoint],
        backends: &[BackendKind],
    ) {
        self.rows.push((label, backends.iter().map(|&b| ctx.job(w, wps.to_vec(), b)).collect()));
    }

    /// Every row's cells, flattened in row order: the figure's grid.
    pub fn cells(&self) -> Vec<SessionJob> {
        self.rows.iter().flat_map(|(_, cells)| cells.iter().cloned()).collect()
    }

    /// Run the grid on `ctx`'s worker pool and print the header, then
    /// every row.
    fn render(&self, ctx: &Experiment) -> String {
        let mut next = ctx.grid_overheads(&self.cells()).into_iter();
        let mut out = format!("{}\n", self.header);
        for (label, cells) in &self.rows {
            out.push_str(label);
            for _ in cells {
                out.push_str(self.sep);
                out.push_str(&fmt_over(next.next().expect("one overhead per cell")));
            }
            out.push('\n');
        }
        out
    }
}

/// Right-aligned column headings.
fn columns<'a>(labels: impl IntoIterator<Item = &'a str>, width: usize) -> String {
    labels.into_iter().map(|l| format!("{l:>width$}")).collect()
}

/// The named kernels, in the experiment's order.
fn kernels<'a>(ctx: &'a Experiment, names: &'a [&str]) -> impl Iterator<Item = &'a Workload> {
    ctx.workloads().iter().filter(|w| names.contains(&w.name()))
}

/// **Figure 3** — execution time (normalised to undebugged) of four
/// unconditional-watchpoint implementations, 6 kernels × 6 watchpoints.
pub fn fig3(ctx: &Experiment) -> String {
    fig3_figure(ctx).render(ctx)
}

/// **Figure 4** — the same grid with conditional watchpoints whose
/// predicate never holds.
pub fn fig4(ctx: &Experiment) -> String {
    fig4_figure(ctx).render(ctx)
}

/// Fig. 3: every kernel × watch kind × standard backend.
pub fn fig3_figure(ctx: &Experiment) -> Figure {
    watchpoint_grid(ctx, false)
}

/// Fig. 4: Fig. 3's grid with never-true conditional watchpoints.
pub fn fig4_figure(ctx: &Experiment) -> Figure {
    watchpoint_grid(ctx, true)
}

/// Figs. 3 and 4: every kernel × watch kind under the four
/// implementations the paper compares, plus the pure-observation DISE
/// comparator organisation as a fifth column (it
/// joins the per-workload observer batch, so the extra column costs no
/// extra functional execution).
fn watchpoint_grid(ctx: &Experiment, conditional: bool) -> Figure {
    let backends = [
        BackendKind::SingleStep,
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::dise_default(),
        BackendKind::DiseComparators,
    ];
    let header = format!(
        "{:<10} {:<9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "benchmark", "watch", "SingleStep", " VirtMem", " HwRegs", "  DISE", " DISE-Cmp"
    );
    let mut fig = Figure::new(header, "");
    for w in ctx.workloads() {
        for kind in WatchKind::ALL {
            let wp = if conditional { w.conditional_watchpoint(kind) } else { w.watchpoint(kind) };
            fig.row(ctx, format!("{:<10} {:<9}", w.name(), kind.label()), w, &[wp], &backends);
        }
    }
    fig
}

/// Fig. 5: every kernel × DISE and binary rewriting, on a COLD
/// watchpoint.
pub fn fig5_figure(ctx: &Experiment) -> Figure {
    let backends = [BackendKind::dise_default(), BackendKind::BinaryRewrite];
    let header =
        format!("{:<10}{:>10}{:>12}{:>14}", "benchmark", "DISE", "Rewriting", "text growth");
    let mut fig = Figure::new(header, "");
    for w in ctx.workloads() {
        fig.row(ctx, format!("{:<10}", w.name()), w, &[w.watchpoint(WatchKind::Cold)], &backends);
    }
    fig
}

/// **Figure 5** — DISE vs. static binary rewriting on a COLD
/// watchpoint, plus the static code growth that causes the difference.
pub fn fig5(ctx: &Experiment) -> String {
    let fig = fig5_figure(ctx);
    let reports = ctx.grid_reports(&fig.cells());

    let mut out = format!("{}\n", fig.header);
    for ((label, cells), reports) in fig.rows.iter().zip(reports.chunks(2)) {
        // Cell 0 is DISE, cell 1 binary rewriting.
        let overhead = |i: usize| {
            ctx.overhead_of(&cells[i], &reports[i]).expect("both support a single COLD scalar")
        };
        let text = |i: usize| reports[i].as_ref().map_or(0, |r| r.text_bytes);
        out.push_str(&format!(
            "{label}{:>10.2}{:>12.2}{:>13.2}x\n",
            overhead(0),
            overhead(1),
            text(1) as f64 / text(0).max(1) as f64,
        ));
    }
    out
}

/// Fig. 6: sweep kernel × watchpoint count × backend.
pub fn fig6_figure(ctx: &Experiment) -> Figure {
    let backends = [
        BackendKind::hw4(),
        BackendKind::Dise(DiseStrategy::default()),
        BackendKind::Dise(DiseStrategy::bloom(false)),
        BackendKind::Dise(DiseStrategy::bloom(true)),
        BackendKind::DiseComparators,
    ];
    let header = format!(
        "{:<10}{:>4}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "benchmark", "n", "Hw/VM", "Serial", "ByteBloom", "BitBloom", "Cmp"
    );
    let mut fig = Figure::new(header, "");
    for w in kernels(ctx, &["crafty", "gcc", "vortex"]) {
        for n in [1, 2, 3, 4, 5, 8, 16, 17, 20] {
            fig.row(
                ctx,
                format!("{:<10}{:>4}", w.name(), n),
                w,
                &w.sweep_watchpoints(n),
                &backends,
            );
        }
    }
    fig
}

/// **Figure 6** — impact of the number of watchpoints: the
/// hardware-register/virtual-memory hybrid against the three DISE
/// multi-matching organisations and the bound-register comparators, on
/// crafty, gcc and vortex. The 17- and 20-watchpoint rows sit past the
/// comparator file's 16 bound-register pairs: the comparator column
/// degrades to the paper's "no experiment" bar (`--`, a loud
/// `Unsupported` at setup) while the match-address organisations spill
/// their constants to memory and keep running.
pub fn fig6(ctx: &Experiment) -> String {
    fig6_figure(ctx).render(ctx)
}

/// Figs. 7 and 8: one row per kernel × scalar watch kind, a cell per
/// backend on that kind's single watchpoint.
fn scalar_figure<'a>(
    ctx: &Experiment,
    mut fig: Figure,
    kernels: impl Iterator<Item = &'a Workload>,
    backends: &[BackendKind],
) -> Figure {
    for w in kernels {
        for kind in [WatchKind::Hot, WatchKind::Warm1, WatchKind::Warm2, WatchKind::Cold] {
            let label = format!("{:<10}{:<7}", w.name(), kind.label());
            fig.row(ctx, label, w, &[w.watchpoint(kind)], backends);
        }
    }
    fig
}

/// Fig. 7: design-space kernel × scalar watch kind × DISE
/// organisation.
pub fn fig7_figure(ctx: &Experiment) -> Figure {
    let organisations = [
        ("MA/EE +cond", DiseStrategy::match_address_call(true)),
        ("EE/-- +cond", DiseStrategy::evaluate_inline(true)),
        ("MAV/-- +cond", DiseStrategy::match_address_value(true)),
        ("MA/EE -cond", DiseStrategy::match_address_call(false)),
        ("EE/-- -cond", DiseStrategy::evaluate_inline(false)),
        ("MAV/-- -cond", DiseStrategy::match_address_value(false)),
    ];
    let labels = columns(organisations.map(|(label, _)| label), 14);
    let fig = Figure::new(format!("{:<10}{:<7}{labels}", "benchmark", "watch"), "      ");
    let backends = organisations.map(|(_, strategy)| BackendKind::Dise(strategy));
    scalar_figure(ctx, fig, kernels(ctx, &["bzip2", "mcf", "twolf"]), &backends)
}

/// **Figure 7** — the DISE design space: three replacement-sequence
/// organisations with and without conditional trap/call support, on
/// bzip2, mcf and twolf (HOT/WARM1/WARM2/COLD).
pub fn fig7(ctx: &Experiment) -> String {
    fig7_figure(ctx).render(ctx)
}

/// Fig. 8: kernel × scalar watch kind × DISE without and with
/// multithreaded calls.
pub fn fig8_figure(ctx: &Experiment) -> Figure {
    let header = format!("{:<10}{:<7}{:>12}{:>12}", "benchmark", "watch", "no-MT", "with-MT");
    let backends = [
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy { multithreaded_calls: true, ..DiseStrategy::default() }),
    ];
    scalar_figure(ctx, Figure::new(header, "  "), ctx.workloads().iter(), &backends)
}

/// **Figure 8** — multithreaded DISE function calls: the paper's
/// default organisation with and without the second thread context.
pub fn fig8(ctx: &Experiment) -> String {
    fig8_figure(ctx).render(ctx)
}

/// Fig. 9: kernel × DISE without and with debugger protection, on a
/// COLD watchpoint.
pub fn fig9_figure(ctx: &Experiment) -> Figure {
    let backends = [
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy { protect_debugger: true, ..DiseStrategy::default() }),
    ];
    let header = format!("{:<10}{:>14}{:>12}", "benchmark", "unprotected", "protected");
    let mut fig = Figure::new(header, "  ");
    for w in ctx.workloads() {
        fig.row(ctx, format!("{:<10}", w.name()), w, &[w.watchpoint(WatchKind::Cold)], &backends);
    }
    fig
}

/// **Figure 9** — the cost of protecting the debugger's embedded data
/// (the Fig. 2f store-range check) on a COLD watchpoint.
pub fn fig9(ctx: &Experiment) -> String {
    fig9_figure(ctx).render(ctx)
}

/// The backends of the sensitivity and watchpoint-set sweeps: the
/// three observing backends plus DISE.
fn sweep_backends() -> [(&'static str, BackendKind); 4] {
    [
        ("VirtMem", BackendKind::VirtualMemory),
        ("HwRegs", BackendKind::hw4()),
        ("DISE-Cmp", BackendKind::DiseComparators),
        ("DISE", BackendKind::dise_default()),
    ]
}

/// The sensitivity table: kernel × sweep backend × transition cost, on
/// a WARM1 watchpoint.
pub fn sensitivity_figure(ctx: &Experiment) -> Figure {
    let costs = transition_cost_sweep(ctx.cpu);
    let labels = columns(costs.iter().map(|&(label, _)| label), 10);
    let mut fig = Figure::new(format!("{:<10}{:<9}{labels}", "benchmark", "backend"), "  ");
    for w in ctx.workloads() {
        for (name, backend) in sweep_backends() {
            let job = ctx.job(w, vec![w.watchpoint(WatchKind::Warm1)], backend);
            let cells = costs.iter().map(|&(_, cpu)| SessionJob { cpu, ..job.clone() }).collect();
            fig.rows.push((format!("{:<10}{name:<9}", w.name()), cells));
        }
    }
    fig
}

/// **Transition-cost sensitivity** (beyond the paper's figures): the
/// paper *measures* the application→debugger→application round trip at
/// ~290K cycles (gdb) and ~513K (Visual Studio) but conservatively
/// models 100K throughout §5. This table re-runs the WARM1 watchpoint
/// under all three costs. The three cells of each (kernel, backend) row
/// differ only in timing configuration, so the grid batches them into a
/// **single functional pass** — the sweep costs one execution per row,
/// not one per cell.
pub fn sensitivity(ctx: &Experiment) -> String {
    sensitivity_figure(ctx).render(ctx)
}

/// The watchpoint-set sweep: kernel × watchpoint set × sweep backend.
pub fn watchpoint_sets_figure(ctx: &Experiment) -> Figure {
    let labels = columns(sweep_backends().map(|(label, _)| label), 10);
    let mut fig = Figure::new(format!("{:<10}{:<12}{labels}", "benchmark", "watchpoints"), "  ");
    let backends = sweep_backends().map(|(_, backend)| backend);
    for w in ctx.workloads() {
        for (set, wps) in watchpoint_set_sweep(w) {
            fig.row(ctx, format!("{:<10}{set:<12}", w.name()), w, &wps, &backends);
        }
    }
    fig
}

/// **Watchpoint-set sweep** (beyond the paper's figures): three
/// qualitatively different watchpoint sets per kernel
/// ([`watchpoint_set_sweep`]) under every observing backend plus DISE.
/// The observing cells of one kernel — every set × VirtMem/HwRegs/
/// DISE-Cmp — batch into a **single** functional pass of the unmodified
/// application (`ObserverBatch` members each carry their own set);
/// only the DISE column pays a private replay per set. HwRegs renders
/// `--` on the RANGE set (non-scalars exceed register granularity)
/// without costing its co-members the shared pass.
pub fn watchpoint_sets(ctx: &Experiment) -> String {
    watchpoint_sets_figure(ctx).render(ctx)
}

/// Sanity harness used by the quickstart example and the integration
/// tests: one undebugged run of each kernel.
pub fn baseline_table(ctx: &Experiment) -> String {
    let mut out = String::from("benchmark   cycles  instructions   IPC\n");
    let rows = ctx.per_workload(|w| {
        let s = ctx.baseline(w);
        format!("{:<10}{:>9}{:>13}{:>7.2}\n", w.name(), s.cycles, s.instructions, s.ipc())
    });
    out.extend(rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        Experiment::new(60, CpuConfig::default())
    }

    #[test]
    fn table1_has_six_rows() {
        let t = table1(&tiny());
        assert_eq!(t.lines().count(), 7);
        assert!(t.contains("bzip2"));
        assert!(t.contains("generateMTFValues"));
    }

    #[test]
    fn table2_hot_dominates_cold() {
        let t = table2(&tiny());
        for line in t.lines().skip(1) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hot: f64 = fields[1].parse().unwrap();
            let cold: f64 = fields[4].parse().unwrap();
            assert!(hot > cold, "{line}");
        }
    }

    #[test]
    fn fig5_rewriting_bloats_text() {
        let t = fig5(&tiny());
        for line in t.lines().skip(1) {
            let growth: f64 =
                line.split_whitespace().last().unwrap().trim_end_matches('x').parse().unwrap();
            assert!(growth > 1.3, "{line}");
        }
    }

    #[test]
    fn fig3_row_for_one_cell_behaves() {
        let ctx = tiny();
        let w = &ctx.workloads()[0]; // bzip2
        let (hot, ind) = (w.watchpoint(WatchKind::Hot), w.watchpoint(WatchKind::Indirect));
        let cells = [
            (hot, BackendKind::SingleStep),
            (hot, BackendKind::dise_default()),
            (ind, BackendKind::VirtualMemory),
            (ind, BackendKind::hw4()),
            (ind, BackendKind::dise_default()),
        ]
        .map(|(wp, backend)| ctx.job(w, vec![wp], backend));
        let [ss, dise, ind_vm, ind_hw, ind_dise] =
            <[Option<f64>; 5]>::try_from(ctx.grid_overheads(&cells)).expect("five cells");
        let (ss, dise) = (ss.unwrap(), dise.unwrap());
        assert!(ss > 100.0, "single-stepping catastrophically slow: {ss}");
        assert!(dise < 5.0, "DISE stays modest: {dise}");
        // INDIRECT has no VM/HW experiment.
        assert!(ind_vm.is_none());
        assert!(ind_hw.is_none());
        assert!(ind_dise.is_some());
    }

    /// Every figure declaration is a rectangle of rows, each row on
    /// one kernel and labelled with its name, and its grid is its rows
    /// flattened in order.
    #[test]
    fn figure_rows_are_labelled_per_kernel() {
        let ctx = Experiment::new(10, CpuConfig::default());
        for (name, _, declare) in FIGURES {
            let fig = declare(&ctx);
            let width = fig.rows[0].1.len();
            assert!(width > 0, "{name}: rows hold cells");
            for (label, cells) in &fig.rows {
                assert_eq!(cells.len(), width, "{name} {label:?}: every row is as wide");
                let kernel = &cells[0].workload;
                assert!(
                    cells.iter().all(|c| c.workload == *kernel),
                    "{name} {label:?}: one kernel"
                );
                assert!(
                    label.starts_with(kernel.name()),
                    "{name} {label:?}: not {}",
                    kernel.name()
                );
            }
            let flat: Vec<&SessionJob> = fig.rows.iter().flat_map(|(_, cells)| cells).collect();
            let cells = fig.cells();
            assert_eq!(cells.len(), flat.len(), "{name}");
            assert!(cells.iter().zip(flat).all(|(a, b)| a == b), "{name}: cells() is the rows");
        }
    }

    /// fig3's slots carry every fig8 and sensitivity cell, which differ
    /// from fig3's own only in timing, but fig3 runs no slot it does not
    /// itself need: no fig4, fig6 or watchpoint-set cell outside fig3's
    /// grid is finished after it.
    #[test]
    fn a_figure_runs_its_own_slots_whole_and_no_others() {
        let ctx = Experiment::new(10, CpuConfig::default());
        fig3(&ctx);
        let guard = ctx.round.lock().expect("round memo poisoned");
        let round = guard.as_ref().expect("fig3 planned the round");
        let finished = |cell: &SessionJob| {
            round.cells.iter().zip(&round.reports).any(|(c, r)| c == cell && r.is_some())
        };
        let fig3_cells = fig3_figure(&ctx).cells();
        let figures: [(&str, Declare, bool); 5] = [
            ("fig8", fig8_figure, true),
            ("sensitivity", sensitivity_figure, true),
            ("fig4", fig4_figure, false),
            ("fig6", fig6_figure, false),
            ("watchpoint_sets", watchpoint_sets_figure, false),
        ];
        for (name, declare, rides) in figures {
            for (label, cells) in &declare(&ctx).rows {
                for (i, cell) in cells.iter().enumerate() {
                    let expected = rides || fig3_cells.contains(cell);
                    assert_eq!(finished(cell), expected, "{name} {label:?} cell {i}");
                }
            }
        }
    }

    /// A cell whose poll panicked re-raises the panic's message,
    /// naming the kernel, instead of rendering as "no experiment".
    #[test]
    fn a_panicked_group_is_re_raised() {
        let ctx = tiny();
        let w = &ctx.workloads()[0];
        let cell = ctx.job(w, vec![w.watchpoint(WatchKind::Hot)], BackendKind::dise_default());
        let panicked = Err(DebugError::Panicked("boom".into()));
        let cause = std::panic::catch_unwind(|| ctx.overhead_of(&cell, &panicked))
            .expect_err("a panicked cell must re-raise");
        let msg = cause.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("session panicked: boom"), "{msg}");
        assert!(msg.starts_with(w.name()), "{msg}");
    }

    /// Baselines are keyed by the workload itself, not its name: a
    /// kernel at another scale gets its own run, and the experiment's
    /// cached one is untouched by it.
    #[test]
    fn baselines_are_per_workload_not_per_name() {
        let ctx = tiny();
        let ours = &ctx.workloads()[0];
        let other = &all(10)[0];
        assert_eq!(ours.name(), other.name());
        let run = |w: &Workload| run_baseline(w.app(), ctx.cpu).unwrap();
        assert_eq!(ctx.baseline(ours), run(ours));
        assert_eq!(ctx.baseline(other), run(other));
        assert_ne!(ctx.baseline(other), ctx.baseline(ours));
    }
}
