//! # dise-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §5, each returning the
//! formatted rows the paper reports. Binary wrappers (`table1`, `fig3`,
//! …, `all_experiments`) print them; `all_experiments` also rewrites
//! `EXPERIMENTS.md` with measured-vs-paper notes.
//!
//! Scale: the paper simulates full SPEC functions (up to 1.8 G
//! instructions); we run the calibrated kernels for
//! [`Experiment::from_env`]'s iteration count (the `DISE_ITERS`
//! environment variable, default 400). Every reported quantity is a
//! ratio, so the *shape* — who wins, by what order of magnitude, where
//! the crossovers fall — is what these harnesses reproduce.
//!
//! Execution has one path. Each table/figure is decomposed into
//! independent [`SessionJob`] grid cells, and [`batch_session_jobs`]
//! groups the cells into [`CellGroup`]s that each share functional
//! work. Observing backends share one pass of the unmodified application
//! across watchpoint set × backend × timing
//! ([`dise_debug::ObserverBatch`]). A perturbing backend builds its
//! image once and runs one private pass per DISE engine configuration,
//! each restoring the image copy-on-write. Every group becomes a
//! resumable [`dise_debug::SessionTask`] on one cooperative
//! [`dise_debug::Scheduler`], drained by [`Experiment::workers`]
//! threads in [`Experiment::slice`]-instruction slices
//! ([`run_session_grid`]). Each cell's report scatters back in cell
//! order, byte-identical to its own [`SessionJob::report`] for every
//! worker count and slice budget (the grid determinism and scheduler
//! suites); the pass/load savings are pinned by execution-count
//! assertions (`tests/execution_counts.rs`). The [`Experiment`]
//! normalises reports against each kernel's baseline run, which it
//! computes once.
//!
//! Configuration is explicit: library code reads no environment
//! variable. The binaries parse `DISE_ITERS`, `DISE_JOBS` and
//! `DISE_SLICE` once, through [`Experiment::from_env`] or
//! `dise_env` directly, and the [`server`] module serves arbitrary job
//! lists through the same scheduler (`session_server` bin).

mod experiments;
pub mod grid;
pub mod paper;
pub mod server;

pub use experiments::{
    baseline_table, fig3, fig3_cells, fig4, fig4_cells, fig5, fig5_cells, fig6, fig6_cells, fig7,
    fig7_cells, fig8, fig8_cells, fig9, fig9_cells, sensitivity, sensitivity_cells, table1, table2,
    watchpoint_set_cells, watchpoint_sets, Experiment,
};
pub use grid::{
    batch_session_jobs, default_workers, run_grid_with, run_session_grid, CellGroup, SessionJob,
    DEFAULT_SLICE,
};

/// Render one figure/table section with a heading.
pub fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n{body}\n")
}
