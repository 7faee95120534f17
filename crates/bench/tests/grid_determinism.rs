//! The grid runner's contract with the experiments: how a grid is run
//! must be invisible in the output. Tables/figures render byte for byte
//! the same under 1 and 4 workers and under two slice budgets, and
//! every grouped grid — observer passes and copy-on-write perturbing
//! groups — equals the cell-by-cell
//! [`SessionJob::report`] reference.
//!
//! An experiment keeps every report of its round and reuses it in later
//! figures, so each figure here renders on a fresh experiment, and a
//! whole round, rendered in either order, must equal each figure
//! rendered alone.
//!
//! The full sweeps simulate a few hundred sessions (minutes in the dev
//! profile), so they are `#[ignore]`d by default and run explicitly by
//! CI (`-- --include-ignored`); light variants keep every `cargo test
//! -q` on the pooled, sliced path.

use dise_bench::{
    run_grid_with, run_session_grid, Experiment, Figure, SessionJob, DEFAULT_SLICE, FIGURES,
};
use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, DebugError, SessionReport};
use dise_workloads::{all, transition_cost_sweep, WatchKind};

type Render = fn(&Experiment) -> String;
type Declare = fn(&Experiment) -> Figure;

/// Worker counts and slice budgets every grid is run under: serial,
/// pooled, each group whole (an [`Experiment`]'s default), the
/// scheduler's default slice and an odd one that forces mid-block
/// yields.
const RUNS: [(usize, u64); 4] = [(2, u64::MAX), (1, DEFAULT_SLICE), (4, DEFAULT_SLICE), (4, 777)];

/// The round's figures named in `names`, in round order.
fn figures(names: &[&str]) -> Vec<(&'static str, Render, Declare)> {
    let chosen: Vec<_> = FIGURES.into_iter().filter(|(name, _, _)| names.contains(name)).collect();
    assert_eq!(chosen.len(), names.len(), "every name is a round figure: {names:?}");
    chosen
}

fn ctx(workers: usize, slice: u64) -> Experiment {
    let mut ctx = Experiment::new(10, CpuConfig::default()).with_workers(workers);
    ctx.slice = slice;
    ctx
}

/// Each experiment renders the same serial and pooled, whole and
/// sliced, each on a fresh context, so no render reads a report an
/// earlier one computed.
fn assert_deterministic(experiments: &[(&str, Render)]) {
    for (name, render) in experiments {
        let whole = render(&Experiment::new(10, CpuConfig::default()));
        assert_eq!(whole, render(&ctx(1, DEFAULT_SLICE)), "{name}: whole vs sliced serial");
        assert_eq!(whole, render(&ctx(4, 777)), "{name} output depends on how the grid ran");
    }
}

/// A round of `figures` on one experiment planned for them all, rendered
/// in the given order and in reverse, equals each figure rendered alone
/// on a fresh experiment planned for it alone, serial and pooled: which
/// figure pays for a shared slot never shows in the text.
fn assert_round_matches_each_figure_alone(figures: &[(&str, Render, Declare)]) {
    let plan: Vec<Declare> = figures.iter().map(|&(_, _, declare)| declare).collect();
    for (workers, slice) in [(1, DEFAULT_SLICE), (4, 777)] {
        let alone: Vec<String> = figures
            .iter()
            .map(|&(_, render, declare)| render(&ctx(workers, slice).with_plan(&[declare])))
            .collect();
        for reversed in [false, true] {
            let round = ctx(workers, slice).with_plan(&plan);
            let mut order: Vec<usize> = (0..figures.len()).collect();
            if reversed {
                order.reverse();
            }
            for i in order {
                let (name, render, _) = figures[i];
                assert_eq!(
                    render(&round),
                    alone[i],
                    "{name} in a round (reversed={reversed}) differs from {name} alone \
                     (workers={workers}, slice={slice})"
                );
            }
        }
    }
}

/// The cell-by-cell reference: every cell run as its own session.
fn reference(cells: &[SessionJob]) -> Vec<Result<SessionReport, DebugError>> {
    cells.iter().map(SessionJob::report).collect()
}

/// Every grouped run of `cells` equals the cell-by-cell reference,
/// report for report: cycles, transitions, text bytes and errors.
fn assert_matches_cells(what: &str, cells: &[SessionJob]) {
    let reference = reference(cells);
    for (workers, slice) in RUNS {
        assert_eq!(
            run_session_grid(cells, workers, slice),
            reference,
            "{what}: grouped grid diverged (workers={workers}, slice={slice})"
        );
    }
}

/// Each figure's own grid, as its declaration lays it out, equals the
/// cell-by-cell reference — restricted to the first `kernels` kernels
/// (fewer cells, the same shapes).
fn assert_grids_match_cells(kernels: usize, grids: &[(&str, Render, Declare)]) {
    let ctx = Experiment::new(10, CpuConfig::default());
    let names: Vec<&str> = ctx.workloads().iter().take(kernels).map(|w| w.name()).collect();
    for (name, _, declare) in grids {
        let mut cells = declare(&ctx).cells();
        cells.retain(|c| names.contains(&c.workload.name()));
        assert!(!cells.is_empty(), "{name} has cells on the chosen kernels");
        assert_matches_cells(name, &cells);
    }
}

/// A cheap slice of the sweep, always on: one table, one per-workload
/// report grid, one session grid.
#[test]
fn light_experiments_are_deterministic_across_worker_counts() {
    assert_deterministic(&[
        ("table1", dise_bench::table1),
        ("fig9", dise_bench::fig9),
        ("baseline_table", dise_bench::baseline_table),
    ]);
}

/// The figures that share slots with fig3 (fig8's and sensitivity's
/// extra timing configurations, fig5's and fig9's DISE COLD cells)
/// render the same in one round, in either order, as alone.
#[test]
fn light_round_matches_each_figure_alone() {
    assert_round_matches_each_figure_alone(&figures(&[
        "fig3",
        "fig5",
        "fig8",
        "fig9",
        "sensitivity",
    ]));
}

/// The full round, every overhead figure in `all_experiments` order and
/// in reverse, equals each figure alone.
#[test]
#[ignore = "renders every figure six times; CI runs it with --include-ignored"]
fn full_round_matches_each_figure_alone() {
    assert_round_matches_each_figure_alone(&FIGURES);
}

/// Single-pass batching must be invisible in the output: the grids
/// with batchable cells (fig8's multithreading pair shares a functional
/// pass; the sensitivity grid batches its transition costs, observing
/// backends *and* — via the watchpoint-set sweep — whole watchpoint
/// sets into one pass per kernel) equal the cell-by-cell reference on
/// two kernels.
#[test]
fn batched_and_unbatched_experiments_are_byte_identical() {
    assert_grids_match_cells(2, &figures(&["fig8", "sensitivity", "watchpoint_sets"]));
}

/// Every experiment produces identical bytes serial and pooled, at two
/// slice budgets.
#[test]
#[ignore = "simulates every figure twice (minutes in the dev profile); CI runs it with --include-ignored"]
fn all_experiments_are_deterministic_across_worker_counts() {
    let mut experiments: Vec<(&str, Render)> =
        vec![("table1", dise_bench::table1), ("table2", dise_bench::table2)];
    experiments.extend(FIGURES.map(|(name, render, _)| (name, render)));
    experiments.push(("baseline_table", dise_bench::baseline_table));
    assert_deterministic(&experiments);
}

/// The full sweep over every overhead experiment's grid on all six
/// kernels (tables have no session cells; the worker-count sweep above
/// covers them): fig3/fig4's observing columns — across *all six watch
/// kinds* — share one functional pass per kernel, fig5 reads its text
/// growth from the reports, fig6 batches up to 20
/// watchpoints under the hybrid and Bloom organisations, fig7 runs the
/// six DISE organisations, fig9 protects the debugger, and the
/// sensitivity and watchpoint-set grids share their observing rows.
/// Each equals the cell-by-cell reference.
#[test]
#[ignore = "runs every grid cell by cell (minutes in the dev profile); CI runs it with --include-ignored"]
fn all_experiments_are_batching_invariant() {
    assert_grids_match_cells(6, &FIGURES);
}

/// A perturbing sweep spanning two workloads, two perturbing backends
/// and two engine capacities runs one machine per (kernel, backend,
/// engine) and returns the cell-by-cell reports under a serial and a
/// pooled worker count alike.
#[test]
fn forked_and_unforked_grids_are_byte_identical_across_worker_counts() {
    let workloads = all(10);
    let small_engine = CpuConfig {
        engine: dise_engine::EngineConfig { pattern_entries: 8, replacement_entries: 64 },
        ..CpuConfig::default()
    };
    let mut jobs = Vec::new();
    for w in workloads.iter().take(2) {
        for backend in [BackendKind::dise_default(), BackendKind::SingleStep] {
            for engine_cpu in [CpuConfig::default(), small_engine] {
                for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
                    jobs.push(SessionJob::new(
                        w.clone(),
                        vec![w.watchpoint(WatchKind::Hot)],
                        backend,
                        cpu,
                    ));
                }
            }
        }
    }
    assert_eq!(
        dise_bench::batch_session_jobs(&jobs).len(),
        8,
        "one group per kernel x backend x engine"
    );
    assert_matches_cells("perturbing sweep", &jobs);
}

/// Two scales of one kernel share a name but are different programs:
/// in one grid, each cell's report equals that cell run alone.
#[test]
fn same_name_different_scale_cells_report_as_run_alone() {
    let mut cells = Vec::new();
    for w in [&all(10)[0], &all(40)[0]] {
        for backend in [BackendKind::dise_default(), BackendKind::VirtualMemory] {
            cells.push(SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Cold)],
                backend,
                CpuConfig::default(),
            ));
        }
    }
    assert_eq!(cells[0].workload.name(), cells[2].workload.name());
    assert_eq!(dise_bench::batch_session_jobs(&cells).len(), 4, "two groups per scale");
    assert_matches_cells("bzip2 at iters 10 and 40", &cells);
}

/// `run_grid_with(.., 1, ..)` is exactly the serial map, including for
/// real session jobs.
#[test]
fn single_worker_matches_serial_session_runs() {
    let w = &all(25)[0];
    let cells: Vec<SessionJob> = [BackendKind::dise_default(), BackendKind::hw4()]
        .into_iter()
        .map(|b| {
            SessionJob::new(w.clone(), vec![w.watchpoint(WatchKind::Hot)], b, CpuConfig::default())
        })
        .collect();
    assert_eq!(run_grid_with(&cells, 1, SessionJob::report), reference(&cells));
}
