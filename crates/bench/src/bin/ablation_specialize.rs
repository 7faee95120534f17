//! Pattern-specialization ablation (§4.2 "Pattern matching
//! optimizations"): when no watched data lives on the stack, the
//! debugger can install a second, more-specific production that expands
//! stack-pointer stores to just themselves, sparing them the watchpoint
//! sequence. This harness builds a stack-heavy synthetic application
//! (the calibrated kernels deliberately avoid `sp`) and measures the
//! saving.

use dise_asm::{parse_asm, Layout};
use dise_cpu::CpuConfig;
use dise_debug::{
    run_baseline, Application, BackendKind, DiseStrategy, Session, WatchExpr, Watchpoint,
};
use dise_isa::Width;

fn stack_heavy_app(iters: u32) -> Application {
    // Per iteration: three stack spills (callee-save style) and one
    // store to a watched global.
    let src = format!(
        "start:  la r1, g
                 lda r2, {iters}(zero)
         loop:   stq r2, -8(sp)
                 stq r1, -16(sp)
                 stq r2, -24(sp)
                 ldq r3, 0(r1)
                 addq r3, 1, r3
                 stq r3, 0(r1)
                 subq r2, 1, r2
                 bgt r2, loop
                 halt
         .data
         g: .quad 0"
    );
    Application::new(parse_asm(&src).expect("parses"), Layout::default())
}

fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 2000);
    let app = stack_heavy_app(iters);
    let g = app.prepared().expect("assembles").symbol("g").unwrap();
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: g, width: Width::Q });
    let base = run_baseline(&app, CpuConfig::default()).expect("baseline");

    println!("Pattern specialization ablation ({iters} iterations, 3 of 4 stores to the stack)\n");
    for (label, specialize) in [("general store pattern", false), ("+ stack pass-through", true)] {
        let strategy = DiseStrategy { specialize_stack_stores: specialize, ..Default::default() };
        let r = Session::new(&app, vec![wp], BackendKind::Dise(strategy)).expect("session").run();
        println!(
            "{label:<24} overhead {:>5.2}x  ({} instructions executed)",
            r.overhead_vs(&base),
            r.run.instructions,
        );
    }
    println!(
        "\nwith the more-specific pattern installed, stack stores expand to \
         just themselves and the watchpoint sequence is spared — sound here \
         because no watched data lives on the stack."
    );
}
