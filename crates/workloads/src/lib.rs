//! # dise-workloads — SPEC2000-integer-like benchmark kernels
//!
//! The paper evaluates on one "statically large and long running"
//! function from each of six SPEC2000 integer benchmarks (Table 1).
//! SPEC sources and Alpha binaries are not redistributable, so this
//! crate provides hand-written kernels in the `dise-isa` instruction set
//! that mimic each function's *algorithmic character* and are calibrated
//! toward the paper's workload statistics: store density (Table 1) and
//! per-watchpoint write frequency, including silent-store fractions
//! (Table 2). What the experiments actually exercise is the store
//! address/value stream, which these kernels reproduce in shape.
//!
//! | kernel | models | character |
//! |--------|--------|-----------|
//! | `bzip2` | `generateMTFValues` | move-to-front transform, byte shifting |
//! | `crafty` | `InitializeAttackBoards` | bitboard mask generation, shift/or chains |
//! | `gcc` | `regclass` | cost-table scans with per-class accumulation |
//! | `mcf` | `write_circs` | pointer-chasing list walk, cache-hostile |
//! | `twolf` | `uloop` | cell-swap annealing loop, conditional updates |
//! | `vortex` | `BMT_TraverseSets` | object-set traversal, status rewrites |
//!
//! Every kernel exposes the paper's six watchpoints: `HOT`, `WARM1`,
//! `WARM2`, `COLD` scalars, `INDIRECT` (a pointer to the same storage as
//! `HOT`), and `RANGE` (a small array).
//!
//! ```
//! use dise_workloads::{Workload, WatchKind};
//! use dise_debug::{run_baseline, Session, BackendKind};
//!
//! let w = Workload::bzip2(200);
//! let base = run_baseline(w.app(), Default::default())?;
//! let report = Session::new(w.app(), vec![w.watchpoint(WatchKind::Hot)],
//!                           BackendKind::dise_default())?.run();
//! assert!(report.overhead_vs(&base) < 3.0);
//! # Ok::<(), dise_debug::DebugError>(())
//! ```

mod kernels;
mod sweeps;
pub mod synthetic;
mod workload;

use kernels::{KERNELS, TEMPLATE_ITERS};
pub use sweeps::{transition_cost_sweep, watchpoint_set_sweep};
pub use workload::{WatchKind, Workload};

/// Build all six kernels at the given scale.
pub fn all(iters: u32) -> Vec<Workload> {
    KERNELS.iter().map(|(_, build)| build(TEMPLATE_ITERS).with_iters(iters)).collect()
}

/// A kernel by benchmark name, built and ready to scale: hold one
/// template and every [`Workload::with_iters`] of it shares its
/// preparation, so no scale is ever built, assembled or loaded again.
pub fn template(name: &str) -> Option<Workload> {
    KERNELS.iter().find(|(n, _)| *n == name).map(|(_, build)| build(TEMPLATE_ITERS))
}

/// Look up a kernel by benchmark name: its [`template`] at `iters`.
pub fn by_name(name: &str, iters: u32) -> Option<Workload> {
    template(name).map(|t| t.with_iters(iters))
}
