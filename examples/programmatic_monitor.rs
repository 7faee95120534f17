//! iWatcher-style programmatic monitoring (§6): the *application* (or a
//! test harness) registers a buffer and a callback living in its own
//! text segment; DISE calls the callback on every store into the buffer
//! — no debugger process, no OS, no hardware tables.
//!
//! The callback here implements a tiny canary checker: it verifies that
//! a guard word next to the buffer still holds its magic value and
//! records the first corruption.
//!
//! Run with: `cargo run --example programmatic_monitor`

use dise_repro::asm::{parse_asm, Layout};
use dise_repro::debug::{Application, MonitoredRegion, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = Application::new(
        parse_asm(
            "start:  la r1, buf
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
             corrupted: .quad 0",
        )?,
        Layout::default(),
    );
    let prog = app.prepared()?;
    let buf = prog.symbol("buf").unwrap();

    // Monitor a window that includes the canary: writes past the buffer
    // end land on it.
    let region =
        MonitoredRegion { base: buf, len: 64 + 8, callback: prog.symbol("check_canary").unwrap() };
    let (report, exec) = Session::monitor(&app, &[region], Default::default())?.run_with_state();
    let stats = report.run;

    let corrupted = exec.mem().read_u(prog.symbol("corrupted").unwrap(), 8);
    let canary = exec.mem().read_u(prog.symbol("canary").unwrap(), 8);
    println!("canary value after run: {canary} (magic was 193)");
    if corrupted != 0 {
        println!(
            "callback caught the overflow: store at {corrupted:#x} \
             (buffer ends at {:#x})",
            buf + 64
        );
    }
    println!(
        "{} instructions, {} cycles, {} debugger stalls (always zero: \
         everything ran in-application)",
        stats.instructions, stats.cycles, stats.debugger_stalls
    );
    assert_eq!(corrupted, buf + 64, "the canary write is the 9th store");
    assert_eq!(canary, 1, "the overflow wrote the loop counter");
    Ok(())
}
