//! Workspace-root convenience crate for the DISE debugging reproduction.
//!
//! Re-exports the member crates so examples and integration tests can
//! `use dise_repro::...` a single dependency. See the individual crates for
//! the real APIs:
//!
//! * [`dise_isa`] — the Alpha-like instruction set
//! * [`dise_asm`] — assembler and program images
//! * [`dise_mem`] — copy-on-write memory, caches, TLBs
//! * [`dise_cpu`] — the cycle-level out-of-order core and functional simulator
//! * [`dise_engine`] — the DISE pattern/replacement engine
//! * [`dise_debug`] — the debugger (the paper's contribution)
//! * [`dise_workloads`] — SPEC2000-like benchmark kernels

pub use dise_asm as asm;
pub use dise_cpu as cpu;
pub use dise_debug as debug;
pub use dise_engine as engine;
pub use dise_isa as isa;
pub use dise_mem as mem;
pub use dise_workloads as workloads;
