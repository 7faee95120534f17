//! Prepared images: what an [`Application`] assembles and loads once,
//! and what every session instantiates from it copy-on-write, must be
//! exactly what assembling and loading from scratch would give.
//!
//! - A kernel scaled with [`Workload::with_iters`] (one patched quad
//!   over a shared preparation) equals [`by_name`] and the kernel built
//!   from source at that scale: text, data, symbols, entry, stack top,
//!   statement PCs and fingerprint.
//! - Every backend's admitted machine holds, byte for byte, the memory
//!   [`Executor::from_program`] loads from the whole program the backend
//!   runs ([`BackendKind::instrument`]): text, data and every appended
//!   region (DISE's handler and `__dbg_area`, rewriting's `__bw_prev`).
//! - An application that does not assemble settles as
//!   [`DebugError::Asm`] from every entry point.

use std::path::PathBuf;

use dise_asm::{parse_asm, Asm, DataItem, Layout, Program};
use dise_cpu::{program_fingerprint, CpuConfig, Executor};
use dise_debug::{
    run_baseline, run_session, Application, BackendKind, DebugError, DiseStrategy, Scheduler,
    Session, SessionTask, WatchExpr, Watchpoint,
};
use dise_isa::{Reg, Width};
use dise_workloads::{by_name, template, WatchKind, Workload};

const KERNELS: [&str; 6] = ["bzip2", "crafty", "gcc", "mcf", "twolf", "vortex"];

/// Loop trips per iteration, as each kernel's source spells out
/// `n_iters: .quad {iters × scale}`.
fn scale(kernel: &str) -> u64 {
    match kernel {
        "bzip2" => 16,
        "crafty" => 12,
        "gcc" => 10,
        "mcf" | "vortex" => 14,
        "twolf" => 8,
        other => panic!("no kernel {other}"),
    }
}

/// `w`'s assembly unit with its `n_iters` quad written as `n` in the
/// source — the program a kernel built directly at that scale
/// assembles.
fn built_at(w: &Workload, n: u64) -> Program {
    let asm = w.app().asm();
    let mut unit = Asm::new();
    unit.set_text_items(asm.text_items().to_vec());
    let mut after_label = false;
    for item in asm.data_items() {
        match item {
            DataItem::Label(name) => {
                unit.data_label(name);
            }
            DataItem::Bytes(b) if after_label => {
                assert_eq!(b.len(), 8, "n_iters is one quad");
                unit.quad(n);
            }
            DataItem::Bytes(b) => {
                unit.bytes(b);
            }
            DataItem::Space(k) => {
                unit.space(*k);
            }
            DataItem::Align(k) => {
                unit.align(*k);
            }
            DataItem::AddrOf(sym) => {
                unit.addr_quad(sym);
            }
        }
        after_label = matches!(item, DataItem::Label(name) if name == "n_iters");
    }
    unit.assemble(w.app().layout()).expect("kernel assembles")
}

fn assert_same_program(what: &str, a: &Program, b: &Program) {
    assert_eq!(a.text_base, b.text_base, "{what}: text base");
    assert_eq!(a.text, b.text, "{what}: text");
    assert_eq!(a.data_base, b.data_base, "{what}: data base");
    assert!(a.data == b.data, "{what}: data");
    assert_eq!(a.entry, b.entry, "{what}: entry");
    assert_eq!(a.stack_top, b.stack_top, "{what}: stack top");
    assert_eq!(a.symbols, b.symbols, "{what}: symbols");
    assert_eq!(a.stmt_pcs, b.stmt_pcs, "{what}: statement PCs");
}

/// The prepared image holds exactly `prog`'s bytes, and the prepared
/// facts and fingerprint describe it.
fn assert_prepared_is(what: &str, app: &Application, prog: &Program) {
    let p = app.prepared().expect("assembles");
    assert_eq!(p.text(), &prog.text[..], "{what}: prepared text");
    assert_eq!((p.entry(), p.stack_top()), (prog.entry, prog.stack_top), "{what}: entry/sp");
    assert_eq!((p.data_base(), p.data_end()), (prog.data_base, prog.data_end()), "{what}: data");
    assert_eq!(p.symbols(), &prog.symbols, "{what}: prepared symbols");
    assert_eq!(p.stmt_pcs(), &prog.stmt_pcs, "{what}: prepared statement PCs");
    assert_eq!(p.fingerprint(), program_fingerprint(prog), "{what}: fingerprint");
    let mut loaded = dise_mem::Memory::new();
    prog.load(&mut loaded);
    assert_same_bytes(what, &p.memory(), &loaded, prog);
}

/// `got` and `want` agree on every text and data byte of `prog`.
fn assert_same_bytes(what: &str, got: &dise_mem::Memory, want: &dise_mem::Memory, prog: &Program) {
    for (base, end) in [(prog.text_base, prog.text_end()), (prog.data_base, prog.data_end())] {
        let len = (end - base) as usize;
        assert!(
            got.read_bytes(base, len) == want.read_bytes(base, len),
            "{what}: image differs from a fresh load in {base:#x}..{end:#x}"
        );
    }
}

#[test]
fn with_iters_is_the_kernel_built_at_that_scale() {
    for kernel in KERNELS {
        let t = template(kernel).expect("a kernel");
        for iters in [1, 3, 40, 120, 400] {
            let what = format!("{kernel} × {iters}");
            let scaled = t.with_iters(iters);
            let named = by_name(kernel, iters).expect("a kernel");
            assert_eq!(scaled, named, "{what}: with_iters and by_name describe one program");
            let want = built_at(&t, u64::from(iters) * scale(kernel));
            assert_same_program(&what, &scaled.app().program().expect("assembles"), &want);
            assert_same_program(&what, &named.app().program().expect("assembles"), &want);
            assert_prepared_is(&what, scaled.app(), &want);
            assert_prepared_is(&what, named.app(), &want);
        }
    }
}

#[test]
fn rescaling_a_scaled_kernel_patches_from_the_template() {
    let t = template("bzip2").expect("a kernel");
    let twice = t.with_iters(7).with_iters(9);
    assert_eq!(twice, t.with_iters(9));
    assert_prepared_is("bzip2 7→9", twice.app(), &built_at(&t, 9 * scale("bzip2")));
}

fn backends() -> Vec<BackendKind> {
    let protected = DiseStrategy { protect_debugger: true, ..DiseStrategy::default() };
    vec![
        BackendKind::SingleStep,
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::DiseComparators,
        BackendKind::BinaryRewrite,
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy::match_address_call(false)),
        BackendKind::Dise(DiseStrategy::bloom(true)),
        BackendKind::Dise(DiseStrategy::bloom(false)),
        BackendKind::Dise(DiseStrategy::evaluate_inline(true)),
        BackendKind::Dise(DiseStrategy::match_address_value(false)),
        BackendKind::Dise(protected),
        BackendKind::Dise(DiseStrategy {
            protect_debugger: true,
            ..DiseStrategy::evaluate_inline(true)
        }),
    ]
}

#[test]
fn admitted_machines_hold_the_backend_program_byte_for_byte() {
    let cpu = CpuConfig::default();
    let (mut compared, mut extensions) = (0, 0);
    for w in dise_workloads::all(3) {
        let app_prog = w.app().program().expect("kernel assembles");
        for backend in backends() {
            for kind in WatchKind::ALL {
                let what = format!("{} {backend:?} {}", w.name(), kind.label());
                let wps = vec![w.watchpoint(kind)];
                let session = match Session::with_config(w.app(), wps.clone(), backend, cpu) {
                    Ok(s) => s,
                    Err(DebugError::Unsupported { .. }) => continue,
                    Err(e) => panic!("{what}: {e}"),
                };
                let prog = backend
                    .instrument(w.app(), &wps, app_prog.clone())
                    .expect("builds as admitted");
                let fresh = Executor::from_program(&prog, cpu);
                let exec = session.executor();
                assert_eq!(exec.pc(), fresh.pc(), "{what}: entry");
                assert_eq!(exec.reg(Reg::SP), fresh.reg(Reg::SP), "{what}: stack top");
                assert_same_bytes(&what, exec.mem(), fresh.mem(), &prog);
                let extended =
                    prog.text.len() > app_prog.text.len() || prog.data.len() > app_prog.data.len();
                if extended {
                    extensions += 1;
                } else {
                    assert!(prog.text == app_prog.text, "{what}: text changed in place");
                }
                assert!(
                    !extended
                        || matches!(backend, BackendKind::BinaryRewrite | BackendKind::Dise(_)),
                    "{what}: only code-changing backends extend the program"
                );
                assert_eq!(session.report().text_bytes, prog.text_bytes(), "{what}: text bytes");
                compared += 1;
            }
        }
    }
    assert!(compared > 300, "only {compared} admissions compared");
    assert!(extensions > 150, "only {extensions} admissions extended the program");
}

/// An application whose text names a label it never defines.
fn unassemblable() -> Application {
    Application::new(
        parse_asm(
            "start:  la r1, nowhere
                     stq r1, 0(r1)
                     halt
             .data
             x:      .quad 0",
        )
        .expect("parses"),
        Layout::default(),
    )
}

/// `r` is the assembly error.
fn asm<T>(r: Result<T, DebugError>, what: &str) {
    match r {
        Err(DebugError::Asm(_)) => {}
        Err(e) => panic!("{what}: expected DebugError::Asm, got {e:?}"),
        Ok(_) => panic!("{what}: expected DebugError::Asm, got Ok"),
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dise-prepared-{name}-{}.dtrc", std::process::id()))
}

#[test]
fn an_application_that_does_not_assemble_settles_as_asm_everywhere() {
    let app = unassemblable();
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: 0x0100_0000, width: Width::Q });
    let cpu = CpuConfig::default();
    for backend in backends() {
        let what = format!("{backend:?}");
        asm(
            SessionTask::session(&app, vec![wp], backend, cpu).run_to_completion().into_batch(),
            &format!("session {what}"),
        );
        asm(
            SessionTask::batch(&app, vec![wp], backend, &[cpu, cpu])
                .run_to_completion()
                .into_batch(),
            &format!("batch {what}"),
        );
        asm(run_session(&app, vec![wp], backend, cpu), &format!("run_session {what}"));
    }
    let members = || vec![(BackendKind::VirtualMemory, vec![wp], vec![cpu])];
    asm(SessionTask::observer(&app, members()).run_to_completion().into_observe(), "observer");
    let path = scratch("asm");
    asm(
        SessionTask::observer_recorded(&app, members(), &path).run_to_completion().into_observe(),
        "observer_recorded",
    );
    assert!(!path.exists(), "a failed admission records nothing");
    asm(
        SessionTask::observer_replay(&app, members(), &path).run_to_completion().into_observe(),
        "observer_replay",
    );
    asm(run_baseline(&app, cpu), "run_baseline");
    assert!(app.program().is_err() && app.prepared().is_err(), "the error is kept, not a panic");
}

/// Rewriting moves code: an address-of quad in the data naming a text
/// label must follow the label, as it would if the rewritten unit were
/// assembled whole, or the indirect jump through it lands inside the
/// inlined check.
#[test]
fn rewriting_repoints_code_addresses_held_in_data() {
    let app = Application::new(
        parse_asm(
            "start:  la r1, x
                     lda r2, 5(zero)
                     stq r2, 0(r1)
                     la r3, table
                     ldq r4, 0(r3)
                     jmp (r4)
                     halt
             after:  lda r2, 7(zero)
                     stq r2, 0(r1)
                     halt
             .data
             x:      .quad 0
             table:  .addr after",
        )
        .expect("parses"),
        Layout::default(),
    );
    let p = app.prepared().expect("assembles");
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: p.symbol("x").unwrap(), width: Width::Q });
    let cpu = CpuConfig::default();
    for backend in [BackendKind::BinaryRewrite, BackendKind::dise_default()] {
        let mut session = Session::with_config(&app, vec![wp], backend, cpu).expect("admits");
        // Bounded: a jump into the middle of the rewritten code need not halt.
        assert!(!session.run_budget(10_000), "{backend:?}: the program halts");
        let report = session.report();
        assert_eq!(report.error, None, "{backend:?}");
        assert_eq!(report.transitions.user, 2, "{backend:?}: both stores change x");
        assert_eq!(session.executor().mem().read_u(p.symbol("x").unwrap(), 8), 7, "{backend:?}");
    }
}

/// A store addressed through a register the rewriting backend scavenges.
fn scavenged_store() -> (Application, Watchpoint) {
    let app = Application::new(
        parse_asm(
            "start:  la r25, x
                     lda r1, 5(zero)
                     stq r1, 0(r25)
                     halt
             .data
             x:      .quad 0",
        )
        .expect("parses"),
        Layout::default(),
    );
    let x = app.prepared().expect("assembles").symbol("x").expect("x exists");
    (app, Watchpoint::new(WatchExpr::Scalar { addr: x, width: Width::Q }))
}

#[test]
fn rewriting_a_store_through_a_scavenged_register_is_unsupported() {
    let (app, wp) = scavenged_store();
    match run_session(&app, vec![wp], BackendKind::BinaryRewrite, CpuConfig::default()) {
        Err(DebugError::Unsupported { backend: "binary-rewrite", reason }) => {
            assert!(reason.contains("r25"), "{reason}");
        }
        other => panic!("expected Unsupported from binary-rewrite, got {other:?}"),
    }
    // Every other backend debugs the same program.
    let report = run_session(&app, vec![wp], BackendKind::dise_default(), CpuConfig::default())
        .expect("DISE does not scavenge registers");
    assert_eq!(report.transitions.user, 1);
}

/// A value kept in a scavenged register is refused, not corrupted: the
/// check inlined after each watched store would overwrite `r25`.
#[test]
fn rewriting_a_program_that_keeps_a_value_in_a_scavenged_register_is_unsupported() {
    let app = Application::new(
        parse_asm(
            "start:  la r1, x
                     la r2, out
                     lda r25, 7(zero)
                     lda r3, 5(zero)
                     stq r3, 0(r1)
                     stq r25, 0(r2)
                     lda r3, 6(zero)
                     stq r3, 0(r1)
                     stq r25, 0(r2)
                     halt
             .data
             x:      .quad 0
             out:    .quad 0",
        )
        .expect("parses"),
        Layout::default(),
    );
    let p = app.prepared().expect("assembles");
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: p.symbol("x").unwrap(), width: Width::Q });
    match run_session(&app, vec![wp], BackendKind::BinaryRewrite, CpuConfig::default()) {
        Err(DebugError::Unsupported { backend: "binary-rewrite", reason }) => {
            assert!(reason.contains("r25"), "{reason}");
        }
        other => panic!("expected Unsupported from binary-rewrite, got {other:?}"),
    }
    let mut session =
        Session::with_config(&app, vec![wp], BackendKind::dise_default(), CpuConfig::default())
            .expect("DISE does not scavenge registers");
    assert!(!session.run_budget(1_000), "the program halts");
    assert_eq!(session.executor().mem().read_u(p.symbol("out").unwrap(), 8), 7);
}

#[test]
fn a_scavenged_register_settles_its_slot_on_a_two_worker_scheduler() {
    let (app, wp) = scavenged_store();
    let w = by_name("gcc", 3).expect("a kernel");
    let cpu = CpuConfig::default();
    let sched = Scheduler::new(64);
    let good = sched.spawn(SessionTask::session(
        w.app(),
        vec![w.watchpoint(WatchKind::Hot)],
        BackendKind::BinaryRewrite,
        cpu,
    ));
    let bad = sched.spawn(SessionTask::session(&app, vec![wp], BackendKind::BinaryRewrite, cpu));
    let after = sched.spawn(SessionTask::session(
        w.app(),
        vec![w.watchpoint(WatchKind::Cold)],
        BackendKind::VirtualMemory,
        cpu,
    ));
    let mut out = sched.drain(2);
    out.sort_by_key(|(id, _)| *id);
    assert_eq!(out.len(), 3, "the drain finishes every task");
    let mut results = out.into_iter().map(|(_, o)| o.into_batch());
    let (g, b, a) = (results.next(), results.next(), results.next());
    assert!(g.is_some_and(|r| r.is_ok()), "task {good} ran");
    assert!(
        matches!(b, Some(Err(DebugError::Unsupported { backend: "binary-rewrite", .. }))),
        "task {bad} settles as unsupported"
    );
    assert!(a.is_some_and(|r| r.is_ok()), "task {after} ran");
}
