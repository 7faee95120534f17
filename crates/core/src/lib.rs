//! # dise-debug — the paper's contribution: low-overhead interactive
//! debugging via DISE
//!
//! This crate implements the breakpoint/watchpoint interface of an
//! interactive debugger over six interchangeable backends — the paper's
//! five, plus a pure-observation DISE organisation — so that their
//! overheads can be compared exactly as in §5 of *Low-Overhead
//! Interactive Debugging via Dynamic Instrumentation with DISE*
//! (HPCA 2005):
//!
//! | backend | mechanism | spurious transitions |
//! |---------|-----------|----------------------|
//! | [`BackendKind::SingleStep`] | transition at every source statement | address, value, predicate |
//! | [`BackendKind::VirtualMemory`] | trap every store that touches a watched page (the page-granularity fault `mprotect` would raise, computed from the store's footprint) | address (page sharing), value, predicate |
//! | [`BackendKind::HardwareRegisters`] | ≤4 quad-granularity watchpoint registers (page-trap fallback beyond) | value (silent stores), predicate, partial-quad address |
//! | [`BackendKind::BinaryRewrite`] | statically inline the check at every store | none — cost is code bloat |
//! | [`BackendKind::Dise`] | dynamically expand every store via DISE productions | none — cost is decode bandwidth |
//! | [`BackendKind::DiseComparators`] | byte-exact DISE range comparators, no production injection | value (silent stores), predicate — never address |
//!
//! The DISE backend generates real [`dise_engine::Production`]s (all
//! variants of the paper's Fig. 2), appends a real debugger-generated
//! expression-evaluation function and data region to the application
//! image (Fig. 2e), and supports the paper's complete design space:
//! conditional trap/call availability (Fig. 7), serial vs. Bloom-filter
//! multi-watchpoint matching (Fig. 6), multithreaded DISE calls
//! (Fig. 8), and debugger-structure protection (Fig. 2f / Fig. 9).
//!
//! Backends that *observe* without perturbing execution
//! ([`BackendKind::observation_only`]: virtual memory, hardware
//! registers, and the DISE comparator organisation) can share **one
//! functional pass** of the unmodified application per workload across
//! any number of watchpoint sets, backends and timing configurations
//! via [`ObserverBatch`]. Each has one transition detector, which a
//! private session feeds from its own machine and a batch feeds from
//! the shared stream, so batched reports are bit-identical to private
//! ones (enforced by the cross-backend differential conformance suite,
//! `tests/backend_conformance.rs`).
//!
//! ```
//! use dise_asm::{parse_asm, Layout};
//! use dise_debug::{Application, BackendKind, Session, WatchExpr, Watchpoint};
//! use dise_isa::Width;
//!
//! let app = Application::new(parse_asm("
//!     start:  la r1, x
//!             lda r2, 7(zero)
//!             .stmt
//!             stq r2, 0(r1)
//!             halt
//!     .data
//!     x: .quad 0
//! ").unwrap(), Layout::default());
//!
//! let x = app.prepared()?.symbol("x").unwrap();
//! let wp = Watchpoint::new(WatchExpr::Scalar { addr: x, width: Width::Q });
//! let report = Session::new(&app, vec![wp], BackendKind::dise_default())?.run();
//! assert_eq!(report.transitions.user, 1, "the store changed x");
//! assert_eq!(report.transitions.spurious_total(), 0, "DISE eliminates spurious transitions");
//! # Ok::<(), dise_debug::DebugError>(())
//! ```

mod app;
mod backend;
mod breakpoint;
mod iwatcher;
mod region;
mod sched;
mod session;
mod stats;
mod strategy;
mod task;
mod trace;
mod watch;

pub use app::{Application, Prepared};
pub use backend::BackendKind;
pub use breakpoint::{Breakpoint, BreakpointBackend};
pub use iwatcher::MonitoredRegion;
pub use region::DebugRegion;
pub use sched::{max_wait_slices, preemptions, slices_granted, SchedStats, Scheduler, MAX_BYPASS};
pub use session::{
    checkpoint_forks, functional_passes, image_loads, run_baseline, run_session, DebugError,
    ObserverBatch, Session, SessionReport,
};
pub use stats::{Transition, TransitionStats};
pub use strategy::{CheckKind, DiseStrategy, MultiMatch};
pub use task::{
    fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped, SessionTask, Step, TaskOutput,
    TaskProgress,
};
pub use trace::{record_session, trace_records, trace_replays};
pub use watch::{Condition, WatchExpr, WatchFilter, WatchState, WatchValue, Watchpoint};

// Callers matching on `DebugError::Trace` need the nested error type.
pub use dise_trace::TraceError;
