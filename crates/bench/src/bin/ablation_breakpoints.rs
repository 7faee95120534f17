//! Breakpoint ablation (§4.1/§4.3): the paper reports no breakpoint
//! figure because unconditional breakpoints have an "ideal" conventional
//! implementation, and conditional breakpoints "exhibit
//! cross-implementation performance trends … similar to the trends
//! exhibited by conditional watchpoints". This harness verifies both
//! claims on the calibrated kernels: trap patching vs. the two DISE
//! breakpoint implementations, unconditional and conditional (predicate
//! true on ~1/64 of hits).

use dise_cpu::CpuConfig;
use dise_debug::{run_baseline, Breakpoint, BreakpointBackend, Session};
use dise_workloads::all;

fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 400);
    println!("Breakpoint ablation (iters = {iters})\n");
    println!(
        "{:<10}{:<14}{:>11}{:>12}{:>12}{:>9}{:>10}",
        "benchmark", "kind", "TrapPatch", "DISE cw", "DISE pc", "hits", "spurious"
    );
    for w in all(iters) {
        let prog = w.app().prepared().expect("kernel assembles");
        // Break on the instruction after the first statement marker —
        // inside the main loop of every kernel.
        let bp_pc = *prog.stmt_pcs().iter().min().expect("kernels have statements");
        let hot = prog.symbol("hot").expect("hot exists");
        let base = run_baseline(w.app(), CpuConfig::default()).expect("baseline runs");

        for (label, bp) in [
            ("unconditional", Breakpoint::new(bp_pc)),
            // A predicate over the HOT variable that is rarely true.
            ("cond (rare)", Breakpoint::conditional(bp_pc, hot, 3)),
        ] {
            let mut row = format!("{:<10}{:<14}", w.name(), label);
            let mut last = None;
            for backend in [
                BreakpointBackend::TrapPatch,
                BreakpointBackend::DiseCodeword,
                BreakpointBackend::DisePcPattern,
            ] {
                let r = Session::breakpoints(w.app(), vec![bp], backend, CpuConfig::default())
                    .expect("session")
                    .run();
                row.push_str(&format!("{:>11.2}", r.overhead_vs(&base)));
                last = Some(r);
            }
            let r = last.expect("ran");
            row.push_str(&format!(
                "{:>9}{:>10}",
                r.transitions.user,
                r.transitions.spurious_total()
            ));
            println!("{row}");
        }
    }
    println!(
        "\nconditional breakpoints mirror conditional watchpoints: trap \
         patching pays a 100K-cycle round trip per false predicate, DISE \
         evaluates it in the replacement sequence."
    );
}
