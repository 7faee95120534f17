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
//! ([`dise_debug::ObserverBatch`]). A perturbing group is one machine:
//! one private pass per (backend, watchpoints, DISE engine), accounted
//! under every timing configuration of its cells. Every group becomes a
//! resumable [`dise_debug::SessionTask`] on one cooperative
//! [`dise_debug::Scheduler`], drained by [`Experiment::workers`]
//! threads, each group whole unless [`Experiment::slice`] sets a
//! budget ([`run_session_grid`]). Each cell's report scatters back in cell
//! order, byte-identical to its own [`SessionJob::report`] for every
//! worker count and slice budget (the grid determinism and scheduler
//! suites); the pass/load savings are pinned by execution-count
//! assertions (`tests/execution_counts.rs`). The [`Experiment`]
//! normalises reports against each kernel's baseline run, which it
//! computes once.
//!
//! Each overhead figure is declared once, where its cells and labels
//! live together: a public `*_figure` function ([`fig3_figure`], …,
//! [`watchpoint_sets_figure`]) returns its [`Figure`], a header line
//! and rows of labelled cells. [`Figure::cells`] is the grid the figure
//! runs, and the same rows lay out its text.
//!
//! An [`Experiment`] runs one round of figures. At its first grid call
//! it plans the deduplicated union of the cells of every figure it will
//! render (all of [`FIGURES`] by default; [`Experiment::with_plan`]
//! narrows it, as the single-figure binaries do), and it keeps every
//! report it computes. A figure reads its reports from that memo. On a
//! miss it runs every [`grid::Slot`] (one functional stream under one
//! detector: backend, watchpoints, engine) that holds one of its
//! unfinished cells, with all of that slot's planned cells, so the
//! timing-only cells of later figures ride the pass that first needs
//! them. A slot no requested cell sits in waits for its own figure. A
//! full round runs each slot once: 309 passes, where rendering figure
//! by figure ran 384. A kernel's unmodified observer pass still runs
//! once for each figure that observes it (fig3, fig4, fig6 and
//! `watchpoint_sets` hold different slots of it), which is why a round
//! is not the 294 passes one pass per functional stream would take.
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
    baseline_table, fig3, fig3_figure, fig4, fig4_figure, fig5, fig5_figure, fig6, fig6_figure,
    fig7, fig7_figure, fig8, fig8_figure, fig9, fig9_figure, sensitivity, sensitivity_figure,
    table1, table2, watchpoint_sets, watchpoint_sets_figure, Experiment, Figure, FIGURES,
};
pub use grid::{
    batch_session_jobs, default_workers, run_grid_with, run_session_grid, CellGroup, SessionJob,
    DEFAULT_SLICE,
};

/// Render one figure/table section with a heading.
pub fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n{body}\n")
}
