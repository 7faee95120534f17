//! Source-statement single-stepping (§2): the naive implementation that
//! transitions to the debugger at every statement.

use std::collections::HashSet;

use dise_cpu::{Exec, Executor};

use crate::app::Edits;
use crate::backend::{classify, BackendImpl};
use crate::session::DebugError;
use crate::{Application, Transition, TransitionStats, WatchState, Watchpoint};

#[derive(Debug, Default)]
pub(crate) struct SingleStep {
    stmts: StmtSet,
}

/// Most instruction words a [`StmtSet`] bitset spans: 4M instructions.
const MAX_STMT_WORDS: usize = 1 << 16;

/// Statement PCs as a bitset over the instruction words from the lowest
/// one. The assembler records a statement at an instruction's address,
/// so every PC it records lies on that word grid; PCs off the grid or
/// too far past the lowest (possible only in a hand-built program) are
/// kept in a list. Every fetched record is looked up, so the common
/// probe is a subtraction, a shift and a bit test.
#[derive(Debug, Default)]
struct StmtSet {
    base: u64,
    words: Box<[u64]>,
    off_grid: Box<[u64]>,
}

impl StmtSet {
    fn new(pcs: &HashSet<u64>) -> StmtSet {
        let base = pcs.iter().copied().min().unwrap_or(0);
        let mut words = Vec::new();
        let mut off_grid = Vec::new();
        for &pc in pcs {
            let d = pc - base;
            let bit = (d / 4) as usize;
            if !d.is_multiple_of(4) || bit / 64 >= MAX_STMT_WORDS {
                off_grid.push(pc);
                continue;
            }
            if words.len() <= bit / 64 {
                words.resize(bit / 64 + 1, 0);
            }
            words[bit / 64] |= 1u64 << (bit % 64);
        }
        StmtSet { base, words: words.into(), off_grid: off_grid.into() }
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty() && self.off_grid.is_empty()
    }

    /// Is `pc` a statement boundary? A grid PC within the bitset's span
    /// is in the list only if its bit is.
    #[inline]
    fn contains(&self, pc: u64) -> bool {
        let d = pc.wrapping_sub(self.base);
        if d.is_multiple_of(4) {
            if let Some(w) = self.words.get((d / 256) as usize) {
                return w >> (d / 4 % 64) & 1 != 0;
            }
        }
        self.off_grid.contains(&pc)
    }
}

impl BackendImpl for SingleStep {
    fn build_program(
        &mut self,
        app: &Application,
        _wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        self.stmts = StmtSet::new(app.prepared()?.stmt_pcs());
        if self.stmts.is_empty() {
            return Err(DebugError::Unsupported {
                backend: "single-step",
                reason: "application has no statement markers".to_string(),
            });
        }
        Ok(None)
    }

    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        watch: &mut WatchState,
        _stats: &mut TransitionStats,
    ) -> Option<Transition> {
        // The debugger regains control at each statement boundary and
        // re-evaluates every watched expression.
        if e.fetched && e.disepc == 0 && !e.in_dise_call && self.stmts.contains(e.pc) {
            let (changed, pred_ok) = watch.reevaluate(exec.mem());
            // Single-stepping cannot tell whether watched data was
            // written; an unchanged value is a spurious address
            // transition in the paper's taxonomy.
            Some(classify(changed, pred_ok, changed))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitset answers exactly as the set it was built from, for
    /// grid PCs, PCs between words, below the base, past the span, and
    /// off-grid or far-away statements a hand-built program may carry.
    #[test]
    fn stmt_set_matches_the_hash_set() {
        let base = 0x10_0000u64;
        let grid: HashSet<u64> = (0..300).map(|i| base + 4 * (i * i % 997)).collect();
        let mut mixed = grid.clone();
        mixed.extend([base + 6, base + 4 * 64 * MAX_STMT_WORDS as u64, u64::MAX, base - 4]);
        for (pcs, off_grid) in [(&grid, 0), (&mixed, 3)] {
            let set = StmtSet::new(pcs);
            assert_eq!(set.off_grid.len(), off_grid, "the lowest PC sets the grid");
            let probes = (base - 64..base + 4 * 1100).chain(pcs.iter().copied());
            for pc in probes.chain([0, 3, u64::MAX - 3, base + 4 * 64 * MAX_STMT_WORDS as u64]) {
                assert_eq!(set.contains(pc), pcs.contains(&pc), "pc {pc:#x}");
            }
        }
        assert!(StmtSet::new(&HashSet::new()).is_empty());
    }
}
