//! An iWatcher-style *programmatic* monitoring interface (§6 of the
//! paper: "the same techniques we describe can also efficiently
//! implement other debugging interfaces: … programmatic ones like
//! iWatcher").
//!
//! The application (or a testing harness) registers pairs of interesting
//! memory regions and **callback functions that live in the
//! application's own text segment**; whenever a store touches a
//! registered region, the callback runs — without any operating-system
//! or debugger-process involvement. Here the mechanism is pure DISE:
//!
//! * every store is expanded with a range check per registered region
//!   (the same sequences as the RANGE watchpoint productions);
//! * on a match, a `d_ccall` transfers to the registered callback, which
//!   reads the faulting address from DISE register `dr1` via `d_mfr` and
//!   returns with `d_ret`;
//! * unlike iWatcher's bespoke range-table hardware, the tables here are
//!   "in effect lightweight software, i.e. injected instructions".
//!
//! Callbacks observe the *post-store* memory state, mirroring the
//! watchpoint handler's position after `T.INST`.
//!
//! The monitor is a backend of the debugger sessions' private pass
//! ([`Session::monitor`], [`SessionTask::monitor`]) that never reports a
//! transition.

use dise_cpu::{CpuConfig, Executor};
use dise_engine::{Pattern, Production, TOperand, TReg, TemplateInst};
use dise_isa::{AluOp, Cond, OpClass, Reg};

use crate::app::Edits;
use crate::backend::BackendImpl;
use crate::session::DebugError;
use crate::{Application, Session, SessionTask, Watchpoint};

/// A registered watch: a byte region and the application-resident
/// callback invoked on stores into it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MonitoredRegion {
    /// First watched byte.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Address of the callback function (must end in `d_ret` and treat
    /// all registers as callee-saved).
    pub callback: u64,
}

impl Session {
    /// [`SessionTask::monitor`], admitted now.
    ///
    /// # Errors
    ///
    /// As that task settles: more than three regions, or a production
    /// too large for the engine.
    pub fn monitor(
        app: &Application,
        regions: &[MonitoredRegion],
        cpu: CpuConfig,
    ) -> Result<Session, DebugError> {
        Session::admit(app, Vec::new(), Box::new(IWatcher(regions.to_vec())), cpu)
    }
}

impl SessionTask {
    /// An iWatcher-style monitor (§6), batch-shaped: stores into
    /// `regions` call their callbacks, and nothing transitions. More
    /// than three regions settle it as [`DebugError::Unsupported`].
    pub fn monitor(app: &Application, regions: &[MonitoredRegion], cpu: CpuConfig) -> SessionTask {
        let backend = Box::new(IWatcher(regions.to_vec()));
        SessionTask::private(app, Vec::new(), backend, &[cpu])
    }
}

/// The monitor as the backend of a private pass. Each region consumes
/// two DISE registers (bounds), taken from `dr5` upward, and one for
/// its callback, from `dr12`; at most three regions fit the register
/// budget (iWatcher's hierarchy would spill to memory —
/// register-resident checks are the fast path both there and here).
struct IWatcher(Vec<MonitoredRegion>);

impl BackendImpl for IWatcher {
    fn build_program(
        &mut self,
        app: &Application,
        _wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        let n = self.0.len();
        if n > 3 {
            return Err(DebugError::Unsupported {
                backend: "iwatcher",
                reason: format!("{n} regions exceed the register-resident budget of 3"),
            });
        }
        app.prepared()?;
        Ok(None)
    }

    /// Load the region registers and install one production chaining
    /// every region's check: several productions with the same store
    /// pattern would shadow each other under most-specific-wins
    /// arbitration.
    fn configure(&mut self, exec: &mut Executor, _wps: &[Watchpoint]) -> Result<(), DebugError> {
        let t1 = Reg::dise(1);
        let t2 = Reg::dise(2);
        let mut seq = vec![
            TemplateInst::Trigger,
            TemplateInst::Lda { rd: TReg::Lit(t1), base: TReg::Rs1, disp: dise_engine::TDisp::Imm },
        ];
        for (i, r) in self.0.iter().enumerate() {
            let lo = Reg::dise(5 + 2 * i as u8);
            let len = Reg::dise(6 + 2 * i as u8);
            let target = Reg::dise(12 + i as u8);
            exec.set_reg(lo, r.base);
            exec.set_reg(len, r.len);
            exec.set_reg(target, r.callback);
            seq.push(TemplateInst::Alu {
                op: AluOp::Sub,
                rd: TReg::Lit(t2),
                ra: TReg::Lit(t1),
                rb: TOperand::Reg(TReg::Lit(lo)),
            });
            seq.push(TemplateInst::Alu {
                op: AluOp::CmpUlt,
                rd: TReg::Lit(t2),
                ra: TReg::Lit(t2),
                rb: TOperand::Reg(TReg::Lit(len)),
            });
            seq.push(TemplateInst::Fixed(dise_isa::Instr::DCCall {
                cond: Cond::Ne,
                rs: t2,
                target,
            }));
        }
        exec.engine_mut()
            .install(Production::new("monitor", Pattern::opclass(OpClass::Store), seq))
            .map_err(DebugError::Engine)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use dise_asm::{parse_asm, Layout};
    use dise_cpu::{CpuConfig, Machine};

    /// Application with a monitored buffer and a callback that counts
    /// writes into it (the count lives in `hits`).
    fn app() -> Application {
        Application::new(
            parse_asm(
                "start:  la r1, buf
                         la r2, elsewhere
                         lda r3, 10(zero)
                 loop:   stq r3, 0(r2)      # unmonitored
                         and r3, 3, r4
                         s8addq r4, r1, r4
                         stq r3, 0(r4)      # monitored: buf[r3 % 4]
                         subq r3, 1, r3
                         bgt r3, loop
                         halt
                 # --- the registered callback: count invocations -------
                 monitor_fn:
                         stq r5, -8(sp)
                         stq r6, -16(sp)
                         la r5, hits
                         ldq r6, 0(r5)
                         addq r6, 1, r6
                         stq r6, 0(r5)
                         ldq r6, -16(sp)
                         ldq r5, -8(sp)
                         d_ret
                 .data
                 buf:        .space 32
                 elsewhere:  .quad 0
                 hits:       .quad 0",
            )
            .unwrap(),
            Layout::default(),
        )
    }

    #[test]
    fn callback_runs_on_every_monitored_store() {
        let a = app();
        let prog = a.program().unwrap();
        let region = MonitoredRegion {
            base: prog.symbol("buf").unwrap(),
            len: 32,
            callback: prog.symbol("monitor_fn").unwrap(),
        };
        let (_, exec) =
            Session::monitor(&a, &[region], CpuConfig::default()).unwrap().run_with_state();
        let hits = prog.symbol("hits").unwrap();
        assert_eq!(exec.mem().read_u(hits, 8), 10, "one callback per monitored store");
    }

    #[test]
    fn unmonitored_stores_do_not_call_back() {
        let a = app();
        let prog = a.program().unwrap();
        // Monitor `elsewhere` instead: also 10 stores.
        let region = MonitoredRegion {
            base: prog.symbol("elsewhere").unwrap(),
            len: 8,
            callback: prog.symbol("monitor_fn").unwrap(),
        };
        let (_, exec) =
            Session::monitor(&a, &[region], CpuConfig::default()).unwrap().run_with_state();
        let hits = prog.symbol("hits").unwrap();
        assert_eq!(exec.mem().read_u(hits, 8), 10);
    }

    #[test]
    fn two_regions_call_independent_callbacks() {
        let a = app();
        let prog = a.program().unwrap();
        let cb = prog.symbol("monitor_fn").unwrap();
        let regions = [
            MonitoredRegion { base: prog.symbol("buf").unwrap(), len: 32, callback: cb },
            MonitoredRegion { base: prog.symbol("elsewhere").unwrap(), len: 8, callback: cb },
        ];
        let (_, exec) =
            Session::monitor(&a, &regions, CpuConfig::default()).unwrap().run_with_state();
        let hits = prog.symbol("hits").unwrap();
        assert_eq!(exec.mem().read_u(hits, 8), 20, "both regions trigger the callback");
    }

    #[test]
    fn region_budget_enforced() {
        let a = app();
        let r = MonitoredRegion { base: 0, len: 8, callback: 0 };
        assert!(matches!(
            Session::monitor(&a, &[r; 4], CpuConfig::default()),
            Err(DebugError::Unsupported { .. })
        ));
    }

    #[test]
    fn monitoring_overhead_is_bandwidth_only() {
        let a = app();
        let prog = a.program().unwrap();
        let base = {
            let mut m = Machine::with_config(&prog, CpuConfig::default());
            m.run()
        };
        let region = MonitoredRegion {
            base: prog.symbol("buf").unwrap(),
            len: 32,
            callback: prog.symbol("monitor_fn").unwrap(),
        };
        let stats = Session::monitor(&a, &[region], CpuConfig::default()).unwrap().run().run;
        // No 100K-cycle debugger transitions anywhere: the callback runs
        // in-application.
        assert!(stats.debugger_stalls == 0);
        assert!(
            stats.cycles < base.cycles * 6,
            "monitoring cost is expansion + calls, not context switches: \
             {} vs {}",
            stats.cycles,
            base.cycles
        );
    }
}
