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

    /// Check that the timing model can honour this machine: it fetches,
    /// commits and reaches memory at least one instruction per cycle,
    /// its ROB and RS hold at least one entry each, and its transition
    /// cost is at most [`CpuConfig::MAX_TRANSITION_COST`]. Admission
    /// refuses a machine that fails, rather than time it.
    ///
    /// # Errors
    ///
    /// The first field that fails, in declaration order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let zero = [
            ("width", self.width == 0),
            ("commit_width", self.commit_width == 0),
            ("rob_entries", self.rob_entries == 0),
            ("rs_entries", self.rs_entries == 0),
            ("mem_ports", self.mem_ports == 0),
        ];
        if let Some(&(field, _)) = zero.iter().find(|(_, zero)| *zero) {
            return Err(ConfigError { field, reason: "must be at least 1" });
        }
        if self.debugger_transition_cost > Self::MAX_TRANSITION_COST {
            return Err(ConfigError {
                field: "debugger_transition_cost",
                reason: "must be at most 2^32 cycles",
            });
        }
        Ok(())
    }
}

/// A [`CpuConfig`] field the timing model cannot honour (see
/// [`CpuConfig::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The field's name.
    pub field: &'static str,
    /// What it must be.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

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
        assert_eq!(c.validate(), Ok(()));
    }

    /// Each degenerate field is refused by name; the largest allowed
    /// cost passes.
    #[test]
    fn validate_names_the_first_bad_field() {
        let d = CpuConfig::default();
        let cases = [
            ("width", CpuConfig { width: 0, ..d }),
            ("commit_width", CpuConfig { commit_width: 0, ..d }),
            ("rob_entries", CpuConfig { rob_entries: 0, ..d }),
            ("rs_entries", CpuConfig { rs_entries: 0, ..d }),
            ("mem_ports", CpuConfig { mem_ports: 0, ..d }),
            (
                "debugger_transition_cost",
                CpuConfig { debugger_transition_cost: CpuConfig::MAX_TRANSITION_COST + 1, ..d },
            ),
            ("width", CpuConfig { width: 0, rob_entries: 0, ..d }),
        ];
        for (field, c) in cases {
            assert_eq!(c.validate().map_err(|e| e.field), Err(field));
        }
        let max = CpuConfig { debugger_transition_cost: CpuConfig::MAX_TRANSITION_COST, ..d };
        assert_eq!(max.validate(), Ok(()));
    }
}
