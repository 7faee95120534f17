//! The experiment implementations, one per table/figure.
//!
//! Each table/figure is decomposed into independent grid cells (see
//! [`crate::grid`]), run on the experiment's worker pool, and
//! reassembled in cell order, so output is identical for any worker
//! count. Each grid experiment's cells come from a public `*_cells`
//! function, so tests check the very grid the experiment runs against
//! the cell-by-cell reference.

use std::sync::OnceLock;

use dise_cpu::{footprints_overlap, CpuConfig, RunStats};
use dise_debug::{run_baseline, BackendKind, DebugError, DiseStrategy, SessionReport};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind, Workload};

use crate::grid::{default_workers, run_grid_with, run_session_grid, SessionJob, DEFAULT_SLICE};

/// Shared experiment context: workload scale, machine configuration,
/// how grids run (workers, slice budget), and each kernel's undebugged
/// baseline run, computed once.
pub struct Experiment {
    /// Kernel iteration count.
    pub iters: u32,
    /// Machine configuration.
    pub cpu: CpuConfig,
    /// Worker threads that drain experiment grids.
    pub workers: usize,
    /// Scheduler slice budget (instructions per grant) for grids.
    pub slice: u64,
    workloads: Vec<Workload>,
    /// Each workload's baseline, parallel to `workloads`.
    baselines: Vec<OnceLock<RunStats>>,
}

impl Experiment {
    /// Build a context at the given scale, on [`default_workers`]
    /// threads with [`DEFAULT_SLICE`] slices. Reads nothing from the
    /// environment.
    pub fn new(iters: u32, cpu: CpuConfig) -> Experiment {
        let workloads = all(iters);
        let baselines = workloads.iter().map(|_| OnceLock::new()).collect();
        Experiment {
            iters,
            cpu,
            workers: default_workers(),
            slice: DEFAULT_SLICE,
            workloads,
            baselines,
        }
    }

    /// The binaries' context: [`Experiment::new`] under the paper's
    /// default machine, configured once from the environment —
    /// `DISE_ITERS` (default 400), `DISE_JOBS` (default
    /// [`default_workers`]) and `DISE_SLICE` (default [`DEFAULT_SLICE`]).
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
        ctx.slice = dise_env::env_number("DISE_SLICE", DEFAULT_SLICE);
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

    /// Overheads of a whole cell grid, on the worker pool, in cell
    /// order.
    fn grid_overheads(&self, cells: &[SessionJob]) -> Vec<Option<f64>> {
        let reports = run_session_grid(cells, self.workers, self.slice);
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

/// The four implementations compared in Figs. 3 and 4, plus the
/// pure-observation DISE comparator organisation as a fifth column (it
/// joins the per-workload observer batch, so the extra column costs no
/// extra functional execution).
fn standard_backends() -> [(&'static str, BackendKind); 5] {
    [
        ("Single-Stepping", BackendKind::SingleStep),
        ("Virtual-Memory", BackendKind::VirtualMemory),
        ("Hardware", BackendKind::hw4()),
        ("DISE", BackendKind::dise_default()),
        ("DISE-Cmp", BackendKind::DiseComparators),
    ]
}

/// **Table 1** — benchmark summary: dynamic instructions, IPC, store
/// density, per kernel.
pub fn table1(ctx: &Experiment) -> String {
    let mut out =
        String::from("benchmark  function                 instructions      IPC   store density\n");
    let rows = ctx.per_workload(|w| {
        // Functional pass for the store count; timed pass for IPC.
        let mut exec = w.app().prepared().expect("kernel assembles").executor(ctx.cpu);
        let mut stores = 0u64;
        while !exec.is_halted() {
            if exec.step().mem.is_some_and(|m| m.is_store) {
                stores += 1;
            }
        }
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
        let exprs: Vec<_> = WatchKind::ALL.iter().map(|k| w.watch_expr(*k)).collect();
        let mut hits = [0u64; 6];
        let mut stores = 0u64;
        let mut exec = w.app().prepared().expect("kernel assembles").executor(ctx.cpu);
        while !exec.is_halted() {
            let e = exec.step();
            if let Some(m) = e.mem {
                if m.is_store {
                    stores += 1;
                    for (i, expr) in exprs.iter().enumerate() {
                        let overlap = expr
                            .watched_intervals(exec.mem())
                            .iter()
                            .any(|&(base, len)| footprints_overlap(m.addr, m.width, base, len));
                        if overlap {
                            hits[i] += 1;
                        }
                    }
                }
            }
        }
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

/// **Figure 3** — execution time (normalised to undebugged) of four
/// unconditional-watchpoint implementations, 6 kernels × 6 watchpoints.
pub fn fig3(ctx: &Experiment) -> String {
    watchpoint_grid(ctx, false)
}

/// **Figure 4** — the same grid with conditional watchpoints whose
/// predicate never holds.
pub fn fig4(ctx: &Experiment) -> String {
    watchpoint_grid(ctx, true)
}

/// Fig. 3's cells: every kernel × watch kind × standard backend.
pub fn fig3_cells(ctx: &Experiment) -> Vec<SessionJob> {
    watchpoint_grid_cells(ctx, false)
}

/// Fig. 4's cells: Fig. 3's grid with never-true conditional
/// watchpoints.
pub fn fig4_cells(ctx: &Experiment) -> Vec<SessionJob> {
    watchpoint_grid_cells(ctx, true)
}

fn watchpoint_grid_cells(ctx: &Experiment, conditional: bool) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for kind in WatchKind::ALL {
            let wp = if conditional { w.conditional_watchpoint(kind) } else { w.watchpoint(kind) };
            for (_, backend) in standard_backends() {
                cells.push(ctx.job(w, vec![wp], backend));
            }
        }
    }
    cells
}

fn watchpoint_grid(ctx: &Experiment, conditional: bool) -> String {
    let overheads = ctx.grid_overheads(&watchpoint_grid_cells(ctx, conditional));

    let mut out = format!(
        "{:<10} {:<9}{:>9}{:>9}{:>9}{:>9}{:>9}\n",
        "benchmark", "watch", "SingleStep", " VirtMem", " HwRegs", "  DISE", " DISE-Cmp"
    );
    let mut next = overheads.into_iter();
    for w in ctx.workloads() {
        for kind in WatchKind::ALL {
            out.push_str(&format!("{:<10} {:<9}", w.name(), kind.label()));
            for _ in standard_backends() {
                out.push_str(&fmt_over(next.next().expect("one overhead per cell")));
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 5's cells: every kernel × DISE and binary rewriting, on a COLD
/// watchpoint.
pub fn fig5_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for backend in [BackendKind::dise_default(), BackendKind::BinaryRewrite] {
            cells.push(ctx.job(w, vec![w.watchpoint(WatchKind::Cold)], backend));
        }
    }
    cells
}

/// **Figure 5** — DISE vs. static binary rewriting on a COLD
/// watchpoint, plus the static code growth that causes the difference.
pub fn fig5(ctx: &Experiment) -> String {
    let cells = fig5_cells(ctx);
    let reports = run_session_grid(&cells, ctx.workers, ctx.slice);

    let mut out =
        format!("{:<10}{:>10}{:>12}{:>14}\n", "benchmark", "DISE", "Rewriting", "text growth");
    for (w, (cells, reports)) in ctx.workloads().iter().zip(cells.chunks(2).zip(reports.chunks(2)))
    {
        // Cell 0 is DISE, cell 1 binary rewriting.
        let overhead = |i: usize| {
            ctx.overhead_of(&cells[i], &reports[i]).expect("both support a single COLD scalar")
        };
        let text = |i: usize| reports[i].as_ref().map_or(0, |r| r.text_bytes);
        out.push_str(&format!(
            "{:<10}{:>10.2}{:>12.2}{:>13.2}x\n",
            w.name(),
            overhead(0),
            overhead(1),
            text(1) as f64 / text(0).max(1) as f64,
        ));
    }
    out
}

/// The named kernels, in the given order.
fn kernels<'a>(ctx: &'a Experiment, names: &[&str]) -> Vec<&'a Workload> {
    names
        .iter()
        .map(|name| ctx.workloads().iter().find(|w| w.name() == *name).expect("kernel exists"))
        .collect()
}

const FIG6_KERNELS: [&str; 3] = ["crafty", "gcc", "vortex"];
const FIG6_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 8, 16, 17, 20];

fn fig6_backends() -> [BackendKind; 5] {
    [
        BackendKind::hw4(),
        BackendKind::Dise(DiseStrategy::default()),
        BackendKind::Dise(DiseStrategy::bloom(false)),
        BackendKind::Dise(DiseStrategy::bloom(true)),
        BackendKind::DiseComparators,
    ]
}

/// Fig. 6's cells: sweep kernel × watchpoint count × backend.
pub fn fig6_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in kernels(ctx, &FIG6_KERNELS) {
        for n in FIG6_COUNTS {
            let wps = w.sweep_watchpoints(n);
            for backend in fig6_backends() {
                cells.push(ctx.job(w, wps.clone(), backend));
            }
        }
    }
    cells
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
    let overheads = ctx.grid_overheads(&fig6_cells(ctx));

    let mut out = format!(
        "{:<10}{:>4}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "benchmark", "n", "Hw/VM", "Serial", "ByteBloom", "BitBloom", "Cmp"
    );
    let mut next = overheads.into_iter();
    for w in kernels(ctx, &FIG6_KERNELS) {
        for n in FIG6_COUNTS {
            out.push_str(&format!("{:<10}{:>4}", w.name(), n));
            for _ in fig6_backends() {
                out.push_str(&fmt_over(next.next().expect("one overhead per cell")));
            }
            out.push('\n');
        }
    }
    out
}

/// The scalar watch kinds of Figs. 7 and 8.
const SCALAR_KINDS: [WatchKind; 4] =
    [WatchKind::Hot, WatchKind::Warm1, WatchKind::Warm2, WatchKind::Cold];

const FIG7_KERNELS: [&str; 3] = ["bzip2", "mcf", "twolf"];

fn fig7_organisations() -> [(&'static str, DiseStrategy); 6] {
    [
        ("MA/EE +cond", DiseStrategy::match_address_call(true)),
        ("EE/-- +cond", DiseStrategy::evaluate_inline(true)),
        ("MAV/-- +cond", DiseStrategy::match_address_value(true)),
        ("MA/EE -cond", DiseStrategy::match_address_call(false)),
        ("EE/-- -cond", DiseStrategy::evaluate_inline(false)),
        ("MAV/-- -cond", DiseStrategy::match_address_value(false)),
    ]
}

/// Fig. 7's cells: design-space kernel × scalar watch kind × DISE
/// organisation.
pub fn fig7_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in kernels(ctx, &FIG7_KERNELS) {
        for kind in SCALAR_KINDS {
            for (_, strategy) in fig7_organisations() {
                cells.push(ctx.job(w, vec![w.watchpoint(kind)], BackendKind::Dise(strategy)));
            }
        }
    }
    cells
}

/// **Figure 7** — the DISE design space: three replacement-sequence
/// organisations with and without conditional trap/call support, on
/// bzip2, mcf and twolf (HOT/WARM1/WARM2/COLD).
pub fn fig7(ctx: &Experiment) -> String {
    let overheads = ctx.grid_overheads(&fig7_cells(ctx));

    let mut out = format!("{:<10}{:<7}", "benchmark", "watch");
    for (label, _) in fig7_organisations() {
        out.push_str(&format!("{label:>14}"));
    }
    out.push('\n');
    let mut next = overheads.into_iter();
    for w in kernels(ctx, &FIG7_KERNELS) {
        for kind in SCALAR_KINDS {
            out.push_str(&format!("{:<10}{:<7}", w.name(), kind.label()));
            for _ in fig7_organisations() {
                out.push_str(&format!(
                    "      {}",
                    fmt_over(next.next().expect("one overhead per cell"))
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 8's cells: kernel × scalar watch kind × DISE without and with
/// multithreaded calls.
pub fn fig8_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let backends = [
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy { multithreaded_calls: true, ..DiseStrategy::default() }),
    ];
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for kind in SCALAR_KINDS {
            for backend in backends {
                cells.push(ctx.job(w, vec![w.watchpoint(kind)], backend));
            }
        }
    }
    cells
}

/// **Figure 8** — multithreaded DISE function calls: the paper's
/// default organisation with and without the second thread context.
pub fn fig8(ctx: &Experiment) -> String {
    let overheads = ctx.grid_overheads(&fig8_cells(ctx));

    let mut out = format!("{:<10}{:<7}{:>12}{:>12}\n", "benchmark", "watch", "no-MT", "with-MT");
    let mut next = overheads.into_iter();
    for w in ctx.workloads() {
        for kind in SCALAR_KINDS {
            let plain = next.next().expect("one overhead per cell");
            let mt = next.next().expect("one overhead per cell");
            out.push_str(&format!(
                "{:<10}{:<7}  {}  {}\n",
                w.name(),
                kind.label(),
                fmt_over(plain),
                fmt_over(mt)
            ));
        }
    }
    out
}

/// Fig. 9's cells: kernel × DISE without and with debugger protection,
/// on a COLD watchpoint.
pub fn fig9_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let backends = [
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy { protect_debugger: true, ..DiseStrategy::default() }),
    ];
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for backend in backends {
            cells.push(ctx.job(w, vec![w.watchpoint(WatchKind::Cold)], backend));
        }
    }
    cells
}

/// **Figure 9** — the cost of protecting the debugger's embedded data
/// (the Fig. 2f store-range check) on a COLD watchpoint.
pub fn fig9(ctx: &Experiment) -> String {
    let overheads = ctx.grid_overheads(&fig9_cells(ctx));

    let mut out = format!("{:<10}{:>14}{:>12}\n", "benchmark", "unprotected", "protected");
    let mut next = overheads.into_iter();
    for w in ctx.workloads() {
        let plain = next.next().expect("one overhead per cell");
        let prot = next.next().expect("one overhead per cell");
        out.push_str(&format!("{:<10}  {}  {}\n", w.name(), fmt_over(plain), fmt_over(prot)));
    }
    out
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
    let overheads = ctx.grid_overheads(&sensitivity_cells(ctx));

    let costs = transition_cost_sweep(ctx.cpu);
    let mut out = format!("{:<10}{:<9}", "benchmark", "backend");
    for (label, _) in &costs {
        out.push_str(&format!("{label:>10}"));
    }
    out.push('\n');
    let mut next = overheads.into_iter();
    for w in ctx.workloads() {
        for (name, _) in sweep_backends() {
            out.push_str(&format!("{:<10}{:<9}", w.name(), name));
            for _ in &costs {
                out.push_str(&format!(
                    "  {}",
                    fmt_over(next.next().expect("one overhead per cell"))
                ));
            }
            out.push('\n');
        }
    }
    out
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
    let overheads = ctx.grid_overheads(&watchpoint_set_cells(ctx));

    let mut out = format!("{:<10}{:<12}", "benchmark", "watchpoints");
    for (label, _) in sweep_backends() {
        out.push_str(&format!("{label:>10}"));
    }
    out.push('\n');
    let mut next = overheads.into_iter();
    for w in ctx.workloads() {
        for (set, _) in watchpoint_set_sweep(w) {
            out.push_str(&format!("{:<10}{set:<12}", w.name()));
            for _ in sweep_backends() {
                out.push_str(&format!(
                    "  {}",
                    fmt_over(next.next().expect("one overhead per cell"))
                ));
            }
            out.push('\n');
        }
    }
    out
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

/// The sensitivity table's cells: kernel × sweep backend × transition
/// cost, on a WARM1 watchpoint.
pub fn sensitivity_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for (_, backend) in sweep_backends() {
            for (_, cpu) in transition_cost_sweep(ctx.cpu) {
                cells.push(SessionJob::new(
                    w.clone(),
                    vec![w.watchpoint(WatchKind::Warm1)],
                    backend,
                    cpu,
                ));
            }
        }
    }
    cells
}

/// The watchpoint-set sweep's cells: kernel × watchpoint set × sweep
/// backend.
pub fn watchpoint_set_cells(ctx: &Experiment) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in ctx.workloads() {
        for (_, wps) in watchpoint_set_sweep(w) {
            for (_, backend) in sweep_backends() {
                cells.push(ctx.job(w, wps.clone(), backend));
            }
        }
    }
    cells
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
