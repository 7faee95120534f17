//! Control breakpoints (§4.1 of the paper) — conditional and
//! unconditional — over three implementations:
//!
//! * [`BreakpointBackend::TrapPatch`] — the standard static
//!   binary-transformation technique \[Rosenberg\]: the breakpoint
//!   instruction is temporarily replaced with `trap`; resuming requires
//!   the three-step *restore original / single-step / re-install trap*
//!   dance, which this implementation performs literally.
//! * [`BreakpointBackend::DiseCodeword`] — the paper's first DISE way:
//!   the instruction is replaced with a **DISE codeword** whose
//!   production expands to a trap followed by the original instruction,
//!   so no restart dance is needed.
//! * [`BreakpointBackend::DisePcPattern`] — the paper's second way,
//!   paralleling hardware breakpoint registers: a **PC pattern** matches
//!   the unmodified instruction and prepends the trap; the application
//!   is not modified at all.
//!
//! Conditional breakpoints attach a predicate over a program variable;
//! for the DISE implementations the predicate is compiled directly into
//! the replacement sequence (§4.3: "it often makes sense to compile the
//! condition into the replacement sequence directly"), so a false
//! predicate never leaves the application. The trap-patching
//! implementation must take a debugger transition to evaluate it —
//! the spurious predicate transitions of §2.
//!
//! Each implementation is a backend of the watchpoint sessions' private
//! pass ([`Session::breakpoints`], [`SessionTask::breakpoints`]), so it
//! is sliced, scheduled and panic-contained like any other.

use dise_cpu::{CpuConfig, Event, Exec, Executor};
use dise_engine::{Pattern, Production, TOperand, TReg, TemplateInst};
use dise_isa::{encode, AluOp, Cond, Instr, Reg, Width};

use crate::app::Edits;
use crate::backend::BackendImpl;
use crate::session::DebugError;
use crate::{
    Application, Session, SessionTask, Transition, TransitionStats, WatchState, Watchpoint,
};

/// How breakpoints are implemented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakpointBackend {
    /// Replace the instruction with `trap`; restore/step/re-install to
    /// resume.
    TrapPatch,
    /// Replace the instruction with a DISE codeword; the production
    /// supplies trap + original.
    DiseCodeword,
    /// Match the unmodified instruction's PC with a DISE pattern.
    DisePcPattern,
}

/// A control breakpoint at `pc`, optionally conditional on
/// `variable == value`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Breakpoint {
    /// The broken instruction's address.
    pub pc: u64,
    /// Optional predicate: `(variable address, required value)`; the
    /// user is invoked only when the quad at the address equals the
    /// value.
    pub condition: Option<(u64, u64)>,
}

impl Breakpoint {
    /// An unconditional breakpoint.
    pub fn new(pc: u64) -> Breakpoint {
        Breakpoint { pc, condition: None }
    }

    /// A conditional breakpoint on `variable == value`.
    pub fn conditional(pc: u64, variable: u64, value: u64) -> Breakpoint {
        Breakpoint { pc, condition: Some((variable, value)) }
    }
}

/// Conditional DISE breakpoints that fit the register budget: each
/// holds its variable's address and its value in a pair of DISE
/// registers, `dr4`/`dr5` through `dr12`/`dr13`.
const CONDITION_PAIRS: usize = 5;

impl Session {
    /// [`SessionTask::breakpoints`], admitted now.
    ///
    /// # Errors
    ///
    /// As that task settles: no instruction at a PC, two breakpoints at
    /// one PC, a sixth conditional DISE breakpoint, or productions too
    /// large for the engine.
    pub fn breakpoints(
        app: &Application,
        breakpoints: Vec<Breakpoint>,
        backend: BreakpointBackend,
        cpu: CpuConfig,
    ) -> Result<Session, DebugError> {
        Session::admit(app, Vec::new(), Box::new(Breakpoints::new(backend, breakpoints)), cpu)
    }
}

impl SessionTask {
    /// A control-breakpoint session (§4.1), batch-shaped. Trap-patched
    /// hits whose condition fails count as `spurious_predicate`; every
    /// other hit is a `user` transition. A PC holding no instruction, a
    /// PC named twice, or a sixth conditional DISE breakpoint settles it
    /// as [`DebugError::Unsupported`].
    pub fn breakpoints(
        app: &Application,
        breakpoints: Vec<Breakpoint>,
        backend: BreakpointBackend,
        cpu: CpuConfig,
    ) -> SessionTask {
        let backend = Box::new(Breakpoints::new(backend, breakpoints));
        SessionTask::private(app, Vec::new(), backend, &[cpu])
    }
}

/// A breakpoint set under one implementation: the backend of a private
/// pass with no watchpoints.
struct Breakpoints {
    backend: BreakpointBackend,
    breakpoints: Vec<Breakpoint>,
    /// Each breakpoint's original instruction, decoded at admission.
    originals: Vec<Instr>,
    /// Trap patching: the breakpoint whose original instruction is
    /// stepping, so its trap goes back in after the next record.
    replant: Option<u64>,
}

impl Breakpoints {
    fn new(backend: BreakpointBackend, breakpoints: Vec<Breakpoint>) -> Breakpoints {
        Breakpoints { backend, breakpoints, originals: Vec::new(), replant: None }
    }
}

impl BackendImpl for Breakpoints {
    /// Validate the breakpoints; the image runs unchanged.
    fn build_program(
        &mut self,
        app: &Application,
        _wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        let conditional = self.breakpoints.iter().filter(|bp| bp.condition.is_some()).count();
        if self.backend != BreakpointBackend::TrapPatch && conditional > CONDITION_PAIRS {
            return Err(DebugError::Unsupported {
                backend: "breakpoint",
                reason: format!(
                    "{conditional} conditional breakpoints exceed the DISE register budget of \
                     {CONDITION_PAIRS}"
                ),
            });
        }
        // The implementations would disagree on which of two breakpoints
        // at one PC decides a hit, so a repeated PC is refused.
        for (i, bp) in self.breakpoints.iter().enumerate() {
            if self.breakpoints[..i].iter().any(|b| b.pc == bp.pc) {
                return Err(DebugError::Unsupported {
                    backend: "breakpoint",
                    reason: format!("two breakpoints at {:#x}", bp.pc),
                });
            }
        }
        let prepared = app.prepared()?;
        self.originals = self
            .breakpoints
            .iter()
            .map(|bp| {
                prepared.decode_at(bp.pc).ok_or_else(|| DebugError::Unsupported {
                    backend: "breakpoint",
                    reason: format!("no instruction at {:#x}", bp.pc),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(None)
    }

    fn configure(&mut self, exec: &mut Executor, _wps: &[Watchpoint]) -> Result<(), DebugError> {
        // Register pairs are numbered over conditional breakpoints only.
        let mut pairs = 0u8;
        for (i, (bp, &original)) in self.breakpoints.iter().zip(&self.originals).enumerate() {
            let production = match self.backend {
                BreakpointBackend::TrapPatch => {
                    exec.patch_code(bp.pc, encode(&Instr::Trap));
                    continue;
                }
                BreakpointBackend::DiseCodeword => {
                    let idx = i as u16;
                    exec.patch_code(bp.pc, encode(&Instr::Codeword(idx)));
                    let seq = breakpoint_sequence(bp, original, &mut pairs, exec);
                    Production::new(&format!("bp-codeword-{i}"), Pattern::codeword(idx), seq)
                }
                BreakpointBackend::DisePcPattern => {
                    // The trigger is the unmodified instruction; the
                    // production re-emits it via `Trigger`.
                    let mut seq = breakpoint_sequence(bp, original, &mut pairs, exec);
                    *seq.last_mut().expect("sequence nonempty") = TemplateInst::Trigger;
                    Production::new(&format!("bp-pc-{i}"), Pattern::at_pc(bp.pc), seq)
                }
            };
            exec.engine_mut().install(production).map_err(DebugError::Engine)?;
        }
        Ok(())
    }

    /// Classify a breakpoint trap. Trap patching resumes with the
    /// paper's three-step restart, performed literally across two
    /// records: at the trap the debugger evaluates any condition,
    /// restores the original instruction and points the PC back at it;
    /// the pass steps the original; its record re-installs the trap.
    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        _watch: &mut WatchState,
        _stats: &mut TransitionStats,
    ) -> Option<Transition> {
        if let Some(pc) = self.replant.take() {
            exec.patch_code(pc, encode(&Instr::Trap));
            return None;
        }
        if !matches!(e.event, Some(Event::Trap)) {
            return None;
        }
        let i = self.breakpoints.iter().position(|bp| bp.pc == e.pc)?;
        let bp = self.breakpoints[i];
        match self.backend {
            BreakpointBackend::TrapPatch => {
                let pred_ok =
                    bp.condition.is_none_or(|(var, val)| exec.mem().read_u(var, 8) == val);
                exec.patch_code(bp.pc, encode(&self.originals[i]));
                exec.set_pc(bp.pc);
                self.replant = Some(bp.pc);
                // A user transition is masked; a false predicate is a
                // spurious round trip, charged by the pass.
                Some(if pred_ok { Transition::User } else { Transition::SpuriousPredicate })
            }
            // The replacement sequence already evaluated any condition:
            // every trap is a user transition, and the original
            // instruction follows within the expansion.
            BreakpointBackend::DiseCodeword | BreakpointBackend::DisePcPattern => {
                Some(Transition::User)
            }
        }
    }
}

/// Build the replacement sequence for a DISE breakpoint: condition
/// evaluation (if any), trap, then the original instruction (replaced by
/// `Trigger` for PC-pattern productions). A conditional breakpoint loads
/// its operands into the next free register pair, `dr4 + 2k` /
/// `dr5 + 2k` for the `k`-th conditional breakpoint (`pairs` counts the
/// pairs taken; admission checks the budget).
fn breakpoint_sequence(
    bp: &Breakpoint,
    original: Instr,
    pairs: &mut u8,
    exec: &mut Executor,
) -> Vec<TemplateInst> {
    let mut seq = Vec::new();
    match bp.condition {
        None => seq.push(TemplateInst::Fixed(Instr::Trap)),
        Some((var, val)) => {
            // One address register and one constant register per
            // conditional breakpoint (§4.3: "one or two dedicated DISE
            // registers are used as temporaries").
            let addr_reg = Reg::dise(4 + 2 * *pairs);
            let val_reg = Reg::dise(5 + 2 * *pairs);
            *pairs += 1;
            exec.set_reg(addr_reg, var);
            exec.set_reg(val_reg, val);
            seq.push(TemplateInst::Load {
                width: Width::Q,
                rd: TReg::Lit(Reg::dise(1)),
                base: TReg::Lit(addr_reg),
                disp: dise_engine::TDisp::Lit(0),
            });
            seq.push(TemplateInst::Alu {
                op: AluOp::CmpEq,
                rd: TReg::Lit(Reg::dise(2)),
                ra: TReg::Lit(Reg::dise(1)),
                rb: TOperand::Reg(TReg::Lit(val_reg)),
            });
            seq.push(TemplateInst::Fixed(Instr::CTrap { cond: Cond::Ne, rs: Reg::dise(2) }));
        }
    }
    seq.push(TemplateInst::Fixed(original));
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Application, Session};
    use dise_asm::{parse_asm, Layout};
    use dise_cpu::CpuConfig;

    fn app() -> Application {
        Application::new(
            parse_asm(
                "start:  la r1, v
                         lda r2, 20(zero)
                 loop:   ldq r3, 0(r1)
                         addq r3, 1, r3
                 bp_here:stq r3, 0(r1)
                         subq r2, 1, r2
                         bgt r2, loop
                         halt
                 .data
                 v: .quad 0",
            )
            .unwrap(),
            Layout::default(),
        )
    }

    fn bp_pc(a: &Application) -> u64 {
        a.program().unwrap().symbol("bp_here").unwrap()
    }

    #[test]
    fn unconditional_breakpoint_hits_every_pass() {
        let a = app();
        let pc = bp_pc(&a);
        for backend in [
            BreakpointBackend::TrapPatch,
            BreakpointBackend::DiseCodeword,
            BreakpointBackend::DisePcPattern,
        ] {
            let r =
                Session::breakpoints(&a, vec![Breakpoint::new(pc)], backend, CpuConfig::default())
                    .unwrap()
                    .run();
            assert_eq!(r.transitions.user, 20, "{backend:?}");
            assert_eq!(r.transitions.spurious_total(), 0, "{backend:?}");
        }
    }

    #[test]
    fn displaced_instruction_still_executes() {
        // The store under the breakpoint must still happen (v reaches 20)
        // for every implementation: breakpoints must not perturb the
        // application.
        let a = app();
        let pc = bp_pc(&a);
        let v = a.program().unwrap().symbol("v").unwrap();
        for backend in [
            BreakpointBackend::TrapPatch,
            BreakpointBackend::DiseCodeword,
            BreakpointBackend::DisePcPattern,
        ] {
            let s =
                Session::breakpoints(&a, vec![Breakpoint::new(pc)], backend, CpuConfig::default())
                    .unwrap();
            let (report, exec) = s.run_with_state();
            assert_eq!(report.transitions.user, 20, "{backend:?}");
            assert_eq!(exec.mem().read_u(v, 8), 20, "{backend:?}");
        }
    }

    #[test]
    fn conditional_breakpoint_taxonomy() {
        let a = app();
        let pc = bp_pc(&a);
        let v = a.program().unwrap().symbol("v").unwrap();
        // Condition: v == 10 — true on exactly one of the 20 passes
        // (checked before the store, when v counts 0..19).
        let bp = Breakpoint::conditional(pc, v, 10);

        // Trap patching transitions on every pass; 19 are spurious.
        let tp =
            Session::breakpoints(&a, vec![bp], BreakpointBackend::TrapPatch, CpuConfig::default())
                .unwrap()
                .run();
        assert_eq!(tp.transitions.user, 1);
        assert_eq!(tp.transitions.spurious_predicate, 19);
        assert!(tp.run.cycles > 19 * 100_000);

        // DISE evaluates the predicate in the replacement sequence:
        // exactly one (masked) transition, no stalls.
        for backend in [BreakpointBackend::DiseCodeword, BreakpointBackend::DisePcPattern] {
            let r =
                Session::breakpoints(&a, vec![bp], backend, CpuConfig::default()).unwrap().run();
            assert_eq!(r.transitions.user, 1, "{backend:?}");
            assert_eq!(r.transitions.spurious_total(), 0, "{backend:?}");
            assert!(r.run.cycles < tp.run.cycles / 10, "{backend:?}");
        }
    }

    /// Conditional breakpoints that never hold, one on each of five
    /// instructions other than `bp_here`: the rest of the loop body and
    /// the `halt` (20 + 20 + 20 + 20 + 1 executions).
    fn never_true(a: &Application) -> Vec<Breakpoint> {
        let prog = a.program().unwrap();
        let (lp, bp) = (prog.symbol("loop").unwrap(), prog.symbol("bp_here").unwrap());
        let v = prog.symbol("v").unwrap();
        [lp, lp + 4, bp + 4, bp + 8, bp + 12]
            .into_iter()
            .map(|pc| Breakpoint::conditional(pc, v, 1000))
            .collect()
    }

    const BACKENDS: [BreakpointBackend; 3] = [
        BreakpointBackend::TrapPatch,
        BreakpointBackend::DiseCodeword,
        BreakpointBackend::DisePcPattern,
    ];

    /// Regression: register pairs used to be chosen by breakpoint index
    /// modulo five, so a sixth conditional breakpoint overwrote the
    /// first one's variable and value and DISE silently reported
    /// `user = 0`. A sixth conditional DISE breakpoint is now refused;
    /// trap patching, which needs no registers, still reports the hit.
    #[test]
    fn a_sixth_conditional_dise_breakpoint_is_unsupported() {
        let a = app();
        let v = a.program().unwrap().symbol("v").unwrap();
        let mut bps = vec![Breakpoint::conditional(bp_pc(&a), v, 10)];
        bps.extend(never_true(&a));
        assert_eq!(bps.len(), 6);
        for backend in BACKENDS {
            let session = Session::breakpoints(&a, bps.clone(), backend, CpuConfig::default());
            if backend == BreakpointBackend::TrapPatch {
                let r = session.unwrap().run();
                assert_eq!(r.transitions.user, 1);
                assert_eq!(r.transitions.spurious_predicate, 19 + 4 * 20 + 1);
            } else {
                assert!(
                    matches!(session, Err(DebugError::Unsupported { backend: "breakpoint", .. })),
                    "{backend:?}"
                );
            }
        }
    }

    /// Two breakpoints on one PC used to mean different things per
    /// implementation: trap patching obeyed the first one's condition,
    /// both DISE implementations the last one's. A set that names a PC
    /// twice is now refused by every implementation.
    #[test]
    fn a_repeated_breakpoint_pc_is_unsupported() {
        let a = app();
        let (pc, v) = (bp_pc(&a), a.program().unwrap().symbol("v").unwrap());
        let bps = vec![Breakpoint::conditional(pc, v, 3), Breakpoint::new(pc)];
        for backend in BACKENDS {
            let session = Session::breakpoints(&a, bps.clone(), backend, CpuConfig::default());
            assert!(
                matches!(session, Err(DebugError::Unsupported { backend: "breakpoint", .. })),
                "{backend:?}"
            );
        }
    }

    /// Five conditional breakpoints fill the register budget, and
    /// unconditional ones among them take no register pair: the
    /// conditional ones before and after an unconditional one keep
    /// distinct registers, so every implementation reports every hit.
    #[test]
    fn five_conditional_breakpoints_among_unconditional_ones_all_report() {
        let a = app();
        let prog = a.program().unwrap();
        let (start, lp) = (prog.symbol("start").unwrap(), prog.symbol("loop").unwrap());
        let v = prog.symbol("v").unwrap();
        let never = never_true(&a);
        // Index-based numbering paired the `v == 10` breakpoint (index
        // 1) with the last never-true one (index 6).
        let bps = vec![
            Breakpoint::new(start),
            Breakpoint::conditional(bp_pc(&a), v, 10),
            Breakpoint::new(lp - 4),
            never[0],
            never[1],
            never[2],
            never[3],
        ];
        for backend in BACKENDS {
            let r =
                Session::breakpoints(&a, bps.clone(), backend, CpuConfig::default()).unwrap().run();
            assert_eq!(r.transitions.user, 3, "{backend:?}: two one-shot hits and v == 10");
            let spurious = if backend == BreakpointBackend::TrapPatch { 19 + 4 * 20 } else { 0 };
            assert_eq!(r.transitions.spurious_predicate, spurious, "{backend:?}");
        }
    }

    #[test]
    fn multiple_breakpoints_via_codewords() {
        let a = app();
        let prog = a.program().unwrap();
        let pc1 = prog.symbol("bp_here").unwrap();
        let pc2 = prog.symbol("loop").unwrap();
        let r = Session::breakpoints(
            &a,
            vec![Breakpoint::new(pc1), Breakpoint::new(pc2)],
            BreakpointBackend::DiseCodeword,
            CpuConfig::default(),
        )
        .unwrap()
        .run();
        assert_eq!(r.transitions.user, 40);
    }
}
