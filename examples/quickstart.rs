//! Quickstart: set a DISE watchpoint on a tiny program and observe the
//! paper's central claim — every value change reaches the user with
//! *zero* spurious debugger transitions, at a small constant overhead.
//!
//! Run with: `cargo run --example quickstart`

use dise_repro::asm::{parse_asm, Layout};
use dise_repro::debug::{run_baseline, Application, BackendKind, Session, WatchExpr, Watchpoint};
use dise_repro::isa::Width;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little application: increments `counter` 50 times, with a
    // neighbouring variable written on every iteration too.
    let app = Application::new(
        parse_asm(
            "start:  la r1, counter
                     la r2, scratch
                     lda r3, 50(zero)
             loop:   .stmt
                     stq r3, 0(r2)      # unwatched neighbour
                     ldq r4, 0(r1)
                     addq r4, 1, r4
                     stq r4, 0(r1)      # watched!
                     subq r3, 1, r3
                     bgt r3, loop
                     halt
             .data
             counter: .quad 0
             scratch: .quad 0
            ",
        )?,
        Layout::default(),
    );

    let counter = app.prepared()?.symbol("counter").expect("symbol exists");
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: counter, width: Width::Q });

    // Undebugged baseline.
    let baseline = run_baseline(&app, Default::default())?;
    println!("baseline: {} cycles, IPC {:.2}", baseline.cycles, baseline.ipc());

    // The same program under a DISE watchpoint.
    let report = Session::new(&app, vec![wp], BackendKind::dise_default())?.run();
    println!(
        "DISE:     {} cycles ({:.2}x), {} user transitions, {} spurious",
        report.run.cycles,
        report.overhead_vs(&baseline),
        report.transitions.user,
        report.transitions.spurious_total(),
    );
    assert_eq!(report.transitions.user, 50);
    assert_eq!(report.transitions.spurious_total(), 0);

    // Contrast: the same watchpoint via page protection. The neighbour
    // shares the page, so every one of its stores is a spurious
    // 100,000-cycle round trip.
    let vm = Session::new(&app, vec![wp], BackendKind::VirtualMemory)?.run();
    println!(
        "VM:       {} cycles ({:.0}x), {} user transitions, {} spurious",
        vm.run.cycles,
        vm.overhead_vs(&baseline),
        vm.transitions.user,
        vm.transitions.spurious_total(),
    );
    assert!(vm.run.cycles > report.run.cycles * 10);
    println!("\nDISE embeds the check in the instruction stream: no context switches.");
    Ok(())
}
