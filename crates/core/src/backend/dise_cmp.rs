//! A pure-observation DISE organisation: hardware **range comparators**
//! at the memory stage, no production injection.
//!
//! Every organisation in the paper's Fig. 2 expands stores into
//! replacement sequences — the DISE engine *perturbs* the executed
//! stream, which is why [`crate::ObserverBatch`] refuses those
//! strategies. This organisation instead spends the engine's pattern
//! hardware on a small file of byte-granularity bound-register pairs:
//! each statically addressable watched interval `[lo, lo+len)` loads
//! one pair, a store whose footprint overlaps a loaded pair traps to
//! the debugger, and the application's fetch/execute stream is never
//! touched. [`crate::BackendKind::observation_only`] therefore returns
//! `true`, and `DiseComparators` rides observer batches for free.
//!
//! Compared with the other observing backends the comparators are
//! *byte-exact*: page protection over-triggers on page sharing
//! (spurious address transitions) and quad comparators over-trigger on
//! partial-quad neighbours, but a bound pair covers exactly the watched
//! bytes, so every trap wrote a watched byte — spurious **address**
//! transitions are structurally impossible. Silent stores and failed
//! predicates still cost a round trip (the hardware compares addresses,
//! not values), so unlike the production-injecting organisations this
//! one is not spurious-free: it trades DISE's in-application value
//! check for a zero-perturbation stream.
//!
//! Indirect watchpoints (`watch *p`) work, uniquely among the observing
//! backends: the debugger loads one pair over the pointer cell and one
//! over the current target; a store to the pointer cell traps, and the
//! debugger re-dereferences and reprograms the target pair before
//! resuming. All retargeting state lives on the debugger's side of the
//! trap, so the mechanism remains observation-only. Because the pairs
//! always mirror the watchpoints' *current* watched intervals, the trap
//! predicate is exactly [`WatchState::store_overlaps`]. One semantic
//! caveat: on a repointing store the comparators report the
//! expression's value change (gdb's `watch *p` semantics, and the
//! conformance oracle's), whereas DISE's generated function
//! re-references silently — a pinned, documented divergence.

use dise_cpu::Exec;
use dise_mem::Memory;

use crate::backend::{classify, ObserverImpl};
use crate::session::DebugError;
use crate::{Transition, WatchExpr, WatchFilter, WatchState, Watchpoint};

/// Bound-register pairs the organisation provides: the paper's engine
/// tables are tens of entries, and each pair needs two address
/// registers plus an overlap comparator, so a small file is the
/// realistic design point. Scalars and ranges consume one pair;
/// indirect watchpoints consume two (pointer cell + current target).
pub(crate) const COMPARATOR_PAIRS: usize = 16;

/// How many bound-register pairs `wps` needs, or `Unsupported` when the
/// set exceeds the file.
fn pairs_needed(wps: &[Watchpoint]) -> Result<usize, DebugError> {
    let pairs: usize = wps
        .iter()
        .map(|w| match w.expr {
            WatchExpr::Scalar { .. } | WatchExpr::Range { .. } => 1,
            WatchExpr::Indirect { .. } => 2,
        })
        .sum();
    if pairs > COMPARATOR_PAIRS {
        return Err(DebugError::Unsupported {
            backend: "dise-comparators",
            reason: format!("{pairs} bound-register pairs needed, {COMPARATOR_PAIRS} available"),
        });
    }
    Ok(pairs)
}

/// The comparator detector: the bound pairs mirror the watchpoints'
/// current intervals, so it holds no state of its own.
pub(crate) struct CmpObserver;

impl CmpObserver {
    pub fn new(wps: &[Watchpoint]) -> Result<CmpObserver, DebugError> {
        pairs_needed(wps)?;
        Ok(CmpObserver)
    }
}

impl ObserverImpl for CmpObserver {
    fn observe(&mut self, e: &Exec, mem: &Memory, watch: &mut WatchState) -> Option<Transition> {
        // The pairs mirror the watchpoints' current intervals, so a
        // store traps iff it overlaps a watched byte, and every trap
        // wrote one: no spurious address transitions.
        let m = e.mem?;
        if !m.is_store || !watch.store_overlaps(mem, m.addr, m.width) {
            return None;
        }
        let (changed, pred_ok) = watch.reevaluate(mem);
        Some(classify(changed, pred_ok, true))
    }

    /// The bound pairs mirror the watchpoints' *current* intervals —
    /// for an indirect watch that is both the pointer cell and the
    /// present target, so a retargeting store always hits the filter
    /// and forces the scan that reprograms the pairs. Dynamic exactly
    /// when some expression follows run-time state.
    fn filter(&self, watch: &WatchState, mem: &Memory) -> WatchFilter {
        let dynamic = watch.watchpoints().any(|w| !w.expr.statically_addressable());
        WatchFilter::new(watch.watched_intervals(mem), dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::Width;

    fn scalar(addr: u64) -> Watchpoint {
        Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
    }

    #[test]
    fn pair_budget_counts_indirects_double() {
        let mut wps: Vec<Watchpoint> = (0..14).map(|i| scalar(0x1000 + 8 * i)).collect();
        wps.push(Watchpoint::new(WatchExpr::Indirect { ptr: 0x2000, width: Width::Q }));
        assert_eq!(pairs_needed(&wps).unwrap(), 16, "14 scalars + one indirect fill the file");
        wps.push(scalar(0x3000));
        assert!(matches!(pairs_needed(&wps), Err(DebugError::Unsupported { .. })));
    }

    #[test]
    fn ranges_cost_one_pair_regardless_of_length() {
        let wps = vec![Watchpoint::new(WatchExpr::Range { base: 0x1000, len: 4096 })];
        assert_eq!(pairs_needed(&wps).unwrap(), 1);
    }
}
