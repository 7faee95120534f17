//! Golden output of every breakpoint implementation and of the
//! iWatcher-style monitor.
//!
//! For each kernel at iters = 100, four breakpoint sets run under all
//! three [`BreakpointBackend`]s; each row prints the session's full
//! `RunStats` and `TransitionStats` and the final `hot` quad, so a
//! change to how breakpoint sessions are driven that moves a cycle, a
//! transition or a store fails here. One row pins the typed refusal of
//! a sixth conditional DISE breakpoint, and the last rows pin the
//! `programmatic_monitor` example's run.
//!
//! A change that is meant to alter these numbers must update
//! `data/breakpoints.golden` in the same commit and say why.

use std::fmt::Write as _;

use dise_asm::{parse_asm, Layout};
use dise_cpu::CpuConfig;
use dise_debug::{Application, Breakpoint, BreakpointBackend, MonitoredRegion, Session};
use dise_workloads::all;

const GOLDEN: &str = include_str!("data/breakpoints.golden");

const BACKENDS: [BreakpointBackend; 3] = [
    BreakpointBackend::TrapPatch,
    BreakpointBackend::DiseCodeword,
    BreakpointBackend::DisePcPattern,
];

/// The four breakpoint sets over a kernel's sorted statement PCs.
fn sets(stmts: &[u64], hot: u64) -> [(&'static str, Vec<Breakpoint>); 4] {
    [
        ("unconditional@min", vec![Breakpoint::new(stmts[0])]),
        ("hot==3@min", vec![Breakpoint::conditional(stmts[0], hot, 3)]),
        (
            "hot==7@five",
            stmts.iter().take(5).map(|&pc| Breakpoint::conditional(pc, hot, 7)).collect(),
        ),
        ("unconditional@seven", stmts.iter().take(7).map(|&pc| Breakpoint::new(pc)).collect()),
    ]
}

fn breakpoint_rows(out: &mut String) {
    let cpu = CpuConfig::default();
    for w in all(100) {
        let prog = w.app().prepared().expect("kernel assembles");
        let mut stmts: Vec<u64> = prog.stmt_pcs().iter().copied().collect();
        stmts.sort_unstable();
        let hot = prog.symbol("hot").expect("kernels have a hot variable");
        for (label, bps) in sets(&stmts, hot) {
            for backend in BACKENDS {
                let (r, exec) = Session::breakpoints(w.app(), bps.clone(), backend, cpu)
                    .expect("breakpoints admit")
                    .run_with_state();
                writeln!(
                    out,
                    "{} {label} ({} bps) {backend:?}\n  {:?}\n  {:?}\n  hot = {}",
                    w.name(),
                    bps.len(),
                    r.run,
                    r.transitions,
                    exec.mem().read_u(hot, 8)
                )
                .unwrap();
            }
        }
    }
    // A sixth conditional breakpoint exceeds the DISE register budget.
    let w = &all(100)[0];
    let prog = w.app().prepared().expect("kernel assembles");
    let first = *prog.stmt_pcs().iter().min().expect("kernels have statements");
    let hot = prog.symbol("hot").expect("kernels have a hot variable");
    let six: Vec<Breakpoint> =
        (0..6).map(|k| Breakpoint::conditional(first + 4 * k, hot, 7)).collect();
    let refused = Session::breakpoints(w.app(), six, BreakpointBackend::DiseCodeword, cpu).err();
    writeln!(out, "{} hot==7@six DiseCodeword\n  {refused:?}", w.name()).unwrap();
}

/// The `programmatic_monitor` example's application: a buffer overflow
/// onto a canary, caught by a callback in the application's own text.
const MONITORED: &str = "start:  la r1, buf
                 lda r2, 9(zero)        # 9 writes: the last one overflows!
         loop:   lda r3, 9(zero)
                 subq r3, r2, r3        # index 0,1,2,...
                 s8addq r3, r1, r4
                 stq r2, 0(r4)          # buf[i] = ...
                 subq r2, 1, r2
                 bgt r2, loop
                 halt

         # Registered callback: check the canary after each write.
         check_canary:
                 stq r5, -8(sp)
                 stq r6, -16(sp)
                 la r5, canary
                 ldq r6, 0(r5)
                 lda r5, 193(zero)      # expected magic
                 cmpeq r5, r6, r6
                 bne r6, ok
                 la r5, corrupted
                 ldq r6, 0(r5)
                 bne r6, ok             # record only the first time
                 d_mfr r6, dr1          # faulting store address
                 stq r6, 0(r5)
         ok:
                 ldq r6, -16(sp)
                 ldq r5, -8(sp)
                 d_ret
         .data
         buf:       .space 64           # 8 quads
         canary:    .quad 193
         corrupted: .quad 0";

fn monitor_rows(out: &mut String) {
    let app = Application::new(parse_asm(MONITORED).unwrap(), Layout::default());
    let prog = app.prepared().unwrap();
    let buf = prog.symbol("buf").unwrap();
    let region =
        MonitoredRegion { base: buf, len: 64 + 8, callback: prog.symbol("check_canary").unwrap() };
    let (report, exec) =
        Session::monitor(&app, &[region], CpuConfig::default()).unwrap().run_with_state();
    let (run, mem) = (report.run, exec.mem());
    writeln!(
        out,
        "programmatic_monitor\n  {run:?}\n  canary = {}\n  corrupted = {:#x}",
        mem.read_u(prog.symbol("canary").unwrap(), 8),
        mem.read_u(prog.symbol("corrupted").unwrap(), 8)
    )
    .unwrap();
}

#[test]
fn breakpoint_and_monitor_sessions_match_the_golden() {
    let mut out = String::new();
    breakpoint_rows(&mut out);
    monitor_rows(&mut out);
    for (i, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of breakpoints.golden", i + 1);
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count(), "breakpoints.golden length");
}
