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

use dise_cpu::{CpuConfig, Event, Executor, RunStats, Timing};
use dise_engine::{Pattern, Production, TOperand, TReg, TemplateInst};
use dise_isa::{encode, AluOp, Cond, Instr, Reg, Width};

use crate::session::DebugError;
use crate::{Application, Transition, TransitionStats};

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

/// Results of a breakpoint session.
#[derive(Clone, Debug)]
pub struct BreakpointReport {
    /// Machine statistics (cycles include debugger stalls).
    pub run: RunStats,
    /// Transition counts: `user` are breakpoint hits delivered to the
    /// user; `spurious_predicate` are hits whose condition failed.
    pub transitions: TransitionStats,
}

impl BreakpointReport {
    /// Execution time normalised to a baseline.
    pub fn overhead_vs(&self, baseline: &RunStats) -> f64 {
        self.run.cycles as f64 / baseline.cycles.max(1) as f64
    }
}

/// A breakpoint debugging session.
pub struct BreakpointSession {
    exec: Executor,
    timing: Timing,
    backend: BreakpointBackend,
    breakpoints: Vec<(Breakpoint, Instr)>,
    cost: u64,
}

impl BreakpointSession {
    /// Establish the session: validate the breakpoints, transform the
    /// image or install productions per the chosen backend.
    ///
    /// # Errors
    ///
    /// Fails when a breakpoint PC holds no decodable instruction or
    /// production installation exceeds engine capacity.
    pub fn new(
        app: &Application,
        breakpoints: Vec<Breakpoint>,
        backend: BreakpointBackend,
        cpu: CpuConfig,
    ) -> Result<BreakpointSession, DebugError> {
        let prepared = app.prepared()?;
        let mut with_originals = Vec::with_capacity(breakpoints.len());
        for bp in &breakpoints {
            let original = prepared.decode_at(bp.pc).ok_or_else(|| DebugError::Unsupported {
                backend: "breakpoint",
                reason: format!("no instruction at {:#x}", bp.pc),
            })?;
            with_originals.push((*bp, original));
        }

        let mut exec = prepared.executor(cpu);
        match backend {
            BreakpointBackend::TrapPatch => {
                // Static transformation: plant traps.
                for (bp, _) in &with_originals {
                    exec.patch_code(bp.pc, encode(&Instr::Trap));
                }
            }
            BreakpointBackend::DiseCodeword => {
                for (i, (bp, original)) in with_originals.iter().enumerate() {
                    let idx = i as u16;
                    exec.patch_code(bp.pc, encode(&Instr::Codeword(idx)));
                    let seq = breakpoint_sequence(i, bp, *original, &mut exec);
                    exec.engine_mut()
                        .install(Production::new(
                            &format!("bp-codeword-{i}"),
                            Pattern::codeword(idx),
                            seq,
                        ))
                        .map_err(DebugError::Engine)?;
                }
            }
            BreakpointBackend::DisePcPattern => {
                for (i, (bp, original)) in with_originals.iter().enumerate() {
                    // The trigger is the unmodified instruction; the
                    // production re-emits it via `Trigger`.
                    let mut seq = breakpoint_sequence(i, bp, *original, &mut exec);
                    *seq.last_mut().expect("sequence nonempty") = TemplateInst::Trigger;
                    exec.engine_mut()
                        .install(Production::new(&format!("bp-pc-{i}"), Pattern::at_pc(bp.pc), seq))
                        .map_err(DebugError::Engine)?;
                }
            }
        }

        Ok(BreakpointSession {
            exec,
            timing: Timing::new(cpu),
            backend,
            breakpoints: with_originals,
            cost: cpu.debugger_transition_cost,
        })
    }

    /// Run to completion, also returning the final machine state.
    pub fn run_with_state(mut self) -> (BreakpointReport, Executor) {
        let report = self.drive();
        (report, self.exec)
    }

    /// Run to completion.
    pub fn run(mut self) -> BreakpointReport {
        self.drive()
    }

    fn drive(&mut self) -> BreakpointReport {
        let mut stats = TransitionStats::default();
        while !self.exec.is_halted() {
            let e = self.exec.step();
            self.timing.consume(&e);
            if !matches!(e.event, Some(Event::Trap)) {
                continue;
            }
            let hit = self.breakpoints.iter().find(|(bp, _)| bp.pc == e.pc).copied();
            let Some((bp, original)) = hit else { continue };
            match self.backend {
                BreakpointBackend::TrapPatch => {
                    // The debugger evaluates the condition.
                    let pred_ok = match bp.condition {
                        None => true,
                        Some((var, val)) => self.exec.mem().read_u(var, 8) == val,
                    };
                    if pred_ok {
                        stats.count(Transition::User); // masked
                    } else {
                        stats.count(Transition::SpuriousPredicate);
                        self.timing.debugger_stall(self.cost);
                    }
                    // Restore original / single-step / re-install — the
                    // paper's three-step restart, performed literally.
                    self.exec.patch_code(bp.pc, encode(&original));
                    self.exec.set_pc(bp.pc);
                    let orig = self.exec.step();
                    self.timing.consume(&orig);
                    self.exec.patch_code(bp.pc, encode(&Instr::Trap));
                }
                BreakpointBackend::DiseCodeword | BreakpointBackend::DisePcPattern => {
                    // The replacement sequence already evaluated any
                    // condition: every trap is a user transition, and the
                    // original instruction follows within the expansion.
                    stats.count(Transition::User);
                }
            }
        }
        BreakpointReport { run: self.timing.finish(), transitions: stats }
    }
}

/// Build the replacement sequence for a DISE breakpoint: condition
/// evaluation (if any), trap, then the original instruction (replaced by
/// `Trigger` for PC-pattern productions). Loads the condition operands
/// into DISE registers `dr5 + 2i` / `dr6 + 2i`.
fn breakpoint_sequence(
    index: usize,
    bp: &Breakpoint,
    original: Instr,
    exec: &mut Executor,
) -> Vec<TemplateInst> {
    let mut seq = Vec::new();
    match bp.condition {
        None => seq.push(TemplateInst::Fixed(Instr::Trap)),
        Some((var, val)) => {
            // One address register and one constant register per
            // breakpoint (§4.3: "one or two dedicated DISE registers are
            // used as temporaries").
            let addr_reg = Reg::dise(4 + (2 * index as u8) % 10);
            let val_reg = Reg::dise(5 + (2 * index as u8) % 10);
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
    use crate::Application;
    use dise_asm::{parse_asm, Layout};

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
            let r = BreakpointSession::new(
                &a,
                vec![Breakpoint::new(pc)],
                backend,
                CpuConfig::default(),
            )
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
            let s = BreakpointSession::new(
                &a,
                vec![Breakpoint::new(pc)],
                backend,
                CpuConfig::default(),
            )
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
        let tp = BreakpointSession::new(
            &a,
            vec![bp],
            BreakpointBackend::TrapPatch,
            CpuConfig::default(),
        )
        .unwrap()
        .run();
        assert_eq!(tp.transitions.user, 1);
        assert_eq!(tp.transitions.spurious_predicate, 19);
        assert!(tp.run.cycles > 19 * 100_000);

        // DISE evaluates the predicate in the replacement sequence:
        // exactly one (masked) transition, no stalls.
        for backend in [BreakpointBackend::DiseCodeword, BreakpointBackend::DisePcPattern] {
            let r =
                BreakpointSession::new(&a, vec![bp], backend, CpuConfig::default()).unwrap().run();
            assert_eq!(r.transitions.user, 1, "{backend:?}");
            assert_eq!(r.transitions.spurious_total(), 0, "{backend:?}");
            assert!(r.run.cycles < tp.run.cycles / 10, "{backend:?}");
        }
    }

    #[test]
    fn multiple_breakpoints_via_codewords() {
        let a = app();
        let prog = a.program().unwrap();
        let pc1 = prog.symbol("bp_here").unwrap();
        let pc2 = prog.symbol("loop").unwrap();
        let r = BreakpointSession::new(
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
