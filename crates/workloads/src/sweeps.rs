//! Declarative machine-configuration batches for sensitivity sweeps.
//!
//! The paper's sensitivity figures re-run the *same* workload under
//! many machine configurations. A sweep declared here is a batch of
//! [`CpuConfig`]s that differ only in timing parameters, so the grid
//! runner in `dise-bench` can drive all of them from **one** functional
//! pass per cell (`dise_debug::SessionTask::batch`) instead of paying
//! functional replay per grid cell.

use dise_cpu::CpuConfig;
use dise_debug::Watchpoint;

use crate::{WatchKind, Workload};

/// The debugger-transition-cost sensitivity batch.
///
/// The paper measures the application→debugger→application round trip
/// at ~290K cycles under gdb and ~513K under Visual Studio, then
/// conservatively models 100K throughout the evaluation (§5). This
/// sweep re-runs an experiment under all three costs; every other
/// machine parameter — and therefore the functional instruction
/// stream — is shared, so the three cells of a grid batch into a
/// single functional pass.
pub fn transition_cost_sweep(base: CpuConfig) -> Vec<(&'static str, CpuConfig)> {
    [("100K", 100_000), ("290K", 290_000), ("513K", 513_000)]
        .into_iter()
        .map(|(label, cost)| {
            let mut cpu = base;
            cpu.debugger_transition_cost = cost;
            (label, cpu)
        })
        .collect()
}

/// The multi-watchpoint-set sweep: three qualitatively different
/// watchpoint sets over one kernel — a hot scalar, a pair of cooler
/// scalars, and the non-scalar range. Every set leaves the kernel's
/// functional stream untouched under an observing backend, so a grid
/// over (set × observing backend × timing) batches into **one**
/// functional pass per workload (`dise_debug::ObserverBatch` members
/// each carry their own set); only perturbing backends pay per set.
///
/// The RANGE set doubles as a per-member "no experiment" probe:
/// hardware registers decline non-scalars, and the member-level error
/// must not cost the rest of the batch its shared pass.
pub fn watchpoint_set_sweep(w: &Workload) -> Vec<(&'static str, Vec<Watchpoint>)> {
    vec![
        ("HOT", vec![w.watchpoint(WatchKind::Hot)]),
        ("WARM1+COLD", vec![w.watchpoint(WatchKind::Warm1), w.watchpoint(WatchKind::Cold)]),
        ("RANGE", vec![w.watchpoint(WatchKind::Range)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchpoint_sets_are_distinct_and_nonempty() {
        let w = crate::all(10).remove(0);
        let sets = watchpoint_set_sweep(&w);
        assert_eq!(sets.len(), 3);
        for (label, set) in &sets {
            assert!(!set.is_empty(), "{label}");
        }
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                assert_ne!(sets[i].1, sets[j].1, "sets {i} and {j} must differ");
            }
        }
    }

    #[test]
    fn sweep_varies_only_the_transition_cost() {
        let base = CpuConfig::default();
        let sweep = transition_cost_sweep(base);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].1, base, "the paper's 100K model is the baseline configuration");
        for (_, cpu) in &sweep {
            let mut normalized = *cpu;
            normalized.debugger_transition_cost = base.debugger_transition_cost;
            assert_eq!(normalized, base, "only the transition cost may vary");
            assert_eq!(cpu.engine, base.engine, "functional parameters are shared");
        }
    }
}
