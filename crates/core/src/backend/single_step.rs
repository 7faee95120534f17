//! Source-statement single-stepping (§2): the naive implementation that
//! transitions to the debugger at every statement.

use std::collections::HashSet;
use std::sync::Arc;

use dise_cpu::{Exec, Executor};

use crate::app::Edits;
use crate::backend::{classify, BackendImpl};
use crate::session::DebugError;
use crate::{Application, Transition, TransitionStats, WatchState, Watchpoint};

#[derive(Clone, Debug, Default)]
pub(crate) struct SingleStep {
    stmt_pcs: Arc<HashSet<u64>>,
}

impl BackendImpl for SingleStep {
    fn boxed_clone(&self) -> Box<dyn BackendImpl> {
        Box::new(self.clone())
    }

    fn build_program(
        &mut self,
        app: &Application,
        _wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        self.stmt_pcs = app.prepared()?.shared_stmt_pcs();
        if self.stmt_pcs.is_empty() {
            return Err(DebugError::Unsupported {
                backend: "single-step",
                reason: "application has no statement markers".to_string(),
            });
        }
        Ok(None)
    }

    fn configure(&mut self, _exec: &mut Executor, _wps: &[Watchpoint]) -> Result<(), DebugError> {
        Ok(())
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
        if e.fetched && e.disepc == 0 && !e.in_dise_call && self.stmt_pcs.contains(&e.pc) {
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
