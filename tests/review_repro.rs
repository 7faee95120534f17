//! Regression: the clean prefix buffered before a dirty retargeting
//! record must be flushed — and scanned against the filters as they
//! stood — before the retarget is observed.

use dise_repro::asm::{Asm, Layout};
use dise_repro::cpu::CpuConfig;
use dise_repro::debug::{
    Application, BackendKind, DebugError, SessionReport, SessionTask, Step, WatchExpr, Watchpoint,
};
use dise_repro::isa::{Instr, Reg, Width};

fn kernel() -> Asm {
    let (ptr, slots, noise) = (Reg::gpr(16), Reg::gpr(17), Reg::gpr(18));
    let mut a = Asm::new();
    a.label("start");
    a.load_addr(ptr, "ptr", 0);
    a.load_addr(slots, "slots", 0);
    a.load_addr(noise, "noise", 0);
    // Aim the pointer at slot 0.
    a.inst(Instr::Lda { rd: Reg::gpr(2), base: slots, disp: 0 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(2), base: ptr, disp: 0 });
    // Retarget -> slot 3.
    a.inst(Instr::Lda { rd: Reg::gpr(2), base: slots, disp: 24 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(2), base: ptr, disp: 0 });
    // Clean store to slot 0 (unwatched right now).
    a.inst(Instr::li(Reg::gpr(3), 5));
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(3), base: slots, disp: 0 });
    // Clean noise store above slot 3 to stretch the chunk bounding box.
    a.inst(Instr::li(Reg::gpr(3), 7));
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(3), base: noise, disp: 0 });
    // Retarget -> slot 0 (dirty: hits the pointer cell).
    a.inst(Instr::Lda { rd: Reg::gpr(2), base: slots, disp: 0 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(2), base: ptr, disp: 0 });
    a.inst(Instr::Halt);
    a.data_label("ptr").quad(0);
    a.data_label("slots").space(32);
    a.data_label("noise").space(2048);
    a
}

#[test]
fn clean_prefix_scan_after_dirty_retarget() {
    let app = Application::new(kernel(), Layout::default());
    let prog = app.program().unwrap();
    let (ptr, slots) = (prog.symbol("ptr").unwrap(), prog.symbol("slots").unwrap());
    let cpus = vec![CpuConfig::default()];
    let members = vec![
        (
            BackendKind::DiseComparators,
            vec![Watchpoint::new(WatchExpr::Indirect { ptr, width: Width::Q })],
            cpus.clone(),
        ),
        (
            BackendKind::VirtualMemory,
            vec![Watchpoint::new(WatchExpr::Scalar { addr: slots + 8, width: Width::Q })],
            cpus.clone(),
        ),
    ];
    // The oracle: each member's private per-record session.
    let oracle: Vec<Result<Vec<SessionReport>, DebugError>> = members
        .iter()
        .map(|(backend, wps, cpus)| {
            SessionTask::session(&app, wps.clone(), *backend, cpus[0])
                .run_to_completion()
                .into_batch()
        })
        .collect();
    // Unsliced, the whole kernel is one chunk around the dirty records;
    // budgets of one and three cut it at every record and mid-prefix.
    for budget in [u64::MAX, 1, 3] {
        let mut task = SessionTask::observer(&app, members.clone());
        let out = loop {
            match task.poll(budget) {
                Step::Done(out) => break out,
                Step::Yielded(_) => {}
                Step::Blocked(r) => panic!("blocked: {r}"),
            }
        };
        assert_eq!(out.into_observe().unwrap(), oracle, "budget {budget}: fan-out diverged");
    }
}
