//! # dise-cpu — the cycle-level simulated machine
//!
//! This crate is the reproduction's stand-in for the paper's
//! SimpleScalar-based simulator: a dynamically scheduled 4-way
//! superscalar core with a 12-stage pipeline, 128-entry reorder buffer,
//! 80 reservation stations, an 8K-entry hybrid branch predictor with a
//! 2K-entry BTB, intelligent load speculation, and the `dise-mem`
//! hierarchy — plus, crucially, a **DISE expansion hook at decode**.
//!
//! The simulator is split into two cooperating halves:
//!
//! * [`Executor`] — the *functional* half. It owns the architectural
//!   state (48-register file including the DISE bank, PC, memory, the
//!   DISE [`Engine`](dise_engine::Engine) and its DISEPC/replacement
//!   context) and produces the exact dynamic instruction stream,
//!   one [`Exec`] record per instruction, annotated with branch
//!   outcomes, memory effects, DISE flush causes and debugger events.
//! * [`Timing`] — the *cycle-accounting* half. It consumes [`Exec`]
//!   records in program order and models fetch grouping, I-cache and
//!   D-cache latency, branch prediction, window occupancy, issue and
//!   memory ports, in-order commit, and every flavour of pipeline flush
//!   (mispredicts; taken DISE branches; DISE call/return; debugger
//!   transitions).
//!
//! Replacement-sequence instructions are **not fetched**: they consume
//!   decode/dispatch bandwidth but no I-cache capacity and are never
//!   predicted, exactly the paper's cost model for DISE.
//!
//! ```
//! use dise_asm::{parse_asm, Layout};
//! use dise_cpu::Machine;
//!
//! let prog = parse_asm("
//!     start:  lda r1, 100(zero)
//!     loop:   subq r1, 1, r1
//!             bgt r1, loop
//!             halt
//! ").unwrap().assemble(Layout::default()).unwrap();
//!
//! let mut m = Machine::from_program(&prog);
//! let stats = m.run();
//! assert_eq!(stats.instructions, 1 + 100 * 2 + 1);
//! assert!(stats.cycles > 0);
//! ```

mod config;
mod exec;
mod predictor;
mod timing;
mod trace;

pub use config::{ConfigError, CpuConfig};
pub use exec::{
    byte_span, footprints_overlap, BlockCacheStats, Branch, BranchKind, ChunkSummary, Event, Exec,
    ExecChunk, ExecError, Executor, FlushKind, InstrFacts, MemOp, MAX_BLOCK_STEPS, NUM_REGS,
};
pub use predictor::{BpredConfig, Predictor};
pub use timing::{RunStats, Timing, TimingBatch};
pub use trace::{
    program_fingerprint, ExecDecoder, ExecEncoder, Fingerprint, TraceReader, TraceStats,
    TraceWriter,
};

use dise_asm::Program;

/// Convenience bundle: an [`Executor`] and a [`Timing`] model driven
/// together, for undebugged runs and simple experiments. Debugger
/// backends in `dise-debug` drive the two halves manually instead.
#[derive(Clone, Debug)]
pub struct Machine {
    /// The functional half.
    pub exec: Executor,
    /// The timing half.
    pub timing: Timing,
}

impl Machine {
    /// Build a machine with the paper's default configuration, load the
    /// program, and point the PC at its entry.
    pub fn from_program(prog: &Program) -> Machine {
        Machine::with_config(prog, CpuConfig::default())
    }

    /// Build a machine with an explicit configuration.
    pub fn with_config(prog: &Program, config: CpuConfig) -> Machine {
        Machine { exec: Executor::from_program(prog, config), timing: Timing::new(config) }
    }

    /// Run until `halt` (or an execution error), returning the final
    /// statistics. Traps are charged nothing here — an undebugged
    /// application never traps; debugger drivers implement their own
    /// loops.
    pub fn run(&mut self) -> RunStats {
        self.run_limit(u64::MAX)
    }

    /// Run at most `max_instructions`.
    pub fn run_limit(&mut self, max_instructions: u64) -> RunStats {
        let mut n = 0;
        let mut e = Exec::default();
        while !self.exec.is_halted() && n < max_instructions {
            self.exec.step_into(&mut e);
            self.timing.consume(&e);
            n += 1;
        }
        self.timing.finish()
    }
}
