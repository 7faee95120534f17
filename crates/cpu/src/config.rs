//! Core configuration.

use dise_engine::EngineConfig;
use dise_mem::MemConfig;

use crate::predictor::BpredConfig;

/// Parameters of the simulated core.
///
/// Defaults reproduce the paper's machine (§5 "Simulator"): 4-way
/// dynamically scheduled, 12-stage pipeline, 128-entry ROB, 80
/// reservation stations, 8K hybrid predictor, 2K BTB, the `dise-mem`
/// hierarchy, a modestly configured DISE engine, and the 100,000-cycle
/// spurious-debugger-transition cost used throughout the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuConfig {
    /// Instructions fetched/decoded/dispatched per cycle.
    pub width: u64,
    /// Instructions committed per cycle.
    pub commit_width: u64,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Reservation-station entries (window of dispatched, un-issued
    /// instructions).
    pub rs_entries: usize,
    /// Data-cache ports shared by loads and stores per cycle.
    pub mem_ports: u64,
    /// Front-end refill penalty of a branch mispredict (≈ pipeline
    /// depth before execute on the 12-stage pipe).
    pub mispredict_penalty: u64,
    /// Penalty of a DISE-internal redirect (taken DISE branch, DISE
    /// call/return, conventional taken branch inside a replacement
    /// sequence) — implemented with the mis-prediction recovery
    /// mechanism, so the same refill cost.
    pub dise_flush_penalty: u64,
    /// Stall charged for a *spurious* debugger transition
    /// (application→debugger→application round trip that does not reach
    /// the user). The paper measures 290K (gdb) and 513K (Visual Studio)
    /// cycles and conservatively models 100,000.
    pub debugger_transition_cost: u64,
    /// Execute the body of DISE-called functions on a second thread
    /// context, eliminating the call/return flushes (§4
    /// "Multithreading DISE function calls", evaluated in Fig. 8).
    pub multithreaded_dise_calls: bool,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Branch predictor parameters.
    pub bpred: BpredConfig,
    /// DISE engine capacities.
    pub engine: EngineConfig,
}

impl CpuConfig {
    /// The largest [`CpuConfig::debugger_transition_cost`] a session
    /// may be given: 2^32 cycles, over 8,000 times the largest cost the
    /// paper measured (513K cycles). Stall cycles add into `u64` cycle
    /// counts, so this leaves room for 2^32 spurious transitions; a cost
    /// near `u64::MAX` wraps the count at the first one.
    pub const MAX_TRANSITION_COST: u64 = 1 << 32;
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig {
            width: 4,
            commit_width: 4,
            rob_entries: 128,
            rs_entries: 80,
            mem_ports: 2,
            mispredict_penalty: 10,
            dise_flush_penalty: 10,
            debugger_transition_cost: 100_000,
            multithreaded_dise_calls: false,
            mem: MemConfig::default(),
            bpred: BpredConfig::default(),
            engine: EngineConfig::PAPER,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CpuConfig::default();
        assert_eq!(c.width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.rs_entries, 80);
        assert_eq!(c.debugger_transition_cost, 100_000);
        assert_eq!(c.mem.mem_latency, 100);
        assert_eq!(c.engine.pattern_entries, 32);
        assert_eq!(c.engine.replacement_entries, 512);
        assert!(!c.multithreaded_dise_calls);
    }
}
