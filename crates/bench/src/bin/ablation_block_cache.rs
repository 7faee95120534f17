//! Block-level decoded-trace cache ablation: the same kernels through
//! the executor with the cache forced off and on (`set_block_cache`;
//! every new machine starts with it on), with and
//! without a storewatching DISE production installed so the fused
//! DISE-expansion path is measured too. The `Exec` streams are
//! byte-identical either way (the conformance and determinism suites
//! prove that); this harness shows the counters and the wall-clock win.

use std::time::Instant;

use dise_asm::{parse_asm, Layout, Program};
use dise_cpu::{CpuConfig, Executor};
use dise_engine::{Pattern, Production, TDisp, TOperand, TReg, TemplateInst};
use dise_isa::{AluOp, Cond, Instr, OpClass, Reg, Width};

/// A warm store loop: the block-cache best case (one hot block replayed
/// every iteration) and, with the production installed, the fused-
/// expansion best case (the expansion is stitched into the cached
/// block once instead of re-expanded every fetch).
fn store_loop(iters: u32) -> Program {
    // Displacements are 14-bit signed and `ldah` shifts by 14: split
    // the count into `hi * 2^14 + lo` with a sign-extended low half.
    let lo = ((iters as i64) << 50 >> 50) as i16;
    let hi = ((iters as i64 - lo as i64) >> 14) as i16;
    let src = format!(
        "start:  la r1, w
                 ldah r2, {hi}(zero)
                 lda r2, {lo}(r2)
         loop:   stq r2, 0(r1)
                 addq r2, 0, r3
                 xor r3, r2, r3
                 subq r2, 1, r2
                 bgt r2, loop
                 halt
         .data
         w: .quad 0"
    );
    parse_asm(&src).expect("parses").assemble(Layout::default()).expect("assembles")
}

/// The paper's Fig. 2a naive watchpoint production: every store
/// expands to a load/compare/branch/trap sequence.
fn install_fig2a(m: &mut Executor) {
    let dr1 = Reg::dise(1);
    m.engine_mut()
        .install(Production::new(
            "fig2a",
            Pattern::opclass(OpClass::Store),
            vec![
                TemplateInst::Trigger,
                TemplateInst::Load {
                    width: Width::Q,
                    rd: TReg::Lit(dr1),
                    base: TReg::Lit(Reg::DAR),
                    disp: TDisp::Lit(0),
                },
                TemplateInst::Alu {
                    op: AluOp::CmpEq,
                    rd: TReg::Lit(dr1),
                    ra: TReg::Lit(dr1),
                    rb: TOperand::Reg(TReg::Lit(Reg::DPV)),
                },
                TemplateInst::Fixed(Instr::DBr { cond: Cond::Ne, rs: dr1, disp: 1 }),
                TemplateInst::Fixed(Instr::Trap),
            ],
        ))
        .expect("production installs");
}

fn run_once(prog: &Program, dise: bool, cache: bool) -> (f64, Executor) {
    let mut m = Executor::from_program(prog, CpuConfig::default());
    if dise {
        install_fig2a(&mut m);
        // DAR/DPV track `w`, whose value never revisits 0 mid-loop, so
        // the expansion's trap arm stays cold and the loop stays hot.
        m.set_reg(Reg::DAR, prog.symbol("w").expect("w exists"));
        m.set_reg(Reg::DPV, 0);
    }
    m.set_block_cache(cache);
    let t = Instant::now();
    while !m.is_halted() {
        m.step();
    }
    (t.elapsed().as_secs_f64(), m)
}

fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 200_000);
    let prog = store_loop(iters);
    println!("Block decoded-trace cache ablation ({iters}-iteration store loop)\n");
    println!(
        "{:<26}{:>9}{:>12}{:>11}{:>9}{:>9}{:>8}",
        "configuration", "seconds", "instrs", "lookups", "hits", "misses", "inval"
    );
    for (label, dise) in [("plain loop", false), ("+ fig2a store production", true)] {
        let mut insns = Vec::new();
        for (tag, cache) in [("cache off", false), ("cache on", true)] {
            let (secs, m) = run_once(&prog, dise, cache);
            let b = m.block_cache_stats();
            println!(
                "{:<26}{:>9.3}{:>12}{:>11}{:>9}{:>9}{:>8}",
                format!("{label}, {tag}"),
                secs,
                m.instructions(),
                b.lookups,
                b.hits,
                b.misses,
                b.invalidations,
            );
            insns.push(m.instructions());
        }
        assert_eq!(insns[0], insns[1], "the cache must not change the instruction stream");
    }
    println!(
        "\nhits dominating misses is the point: the hot block decodes once and \
         replays from the cache every iteration, while stores into decoded \
         text or engine changes drop exactly the overlapping blocks. The \
         wall-clock win comes from the fused expansion — a production served \
         from a cached block skips the per-fetch pattern match and template \
         instantiation. On the plain loop the per-instruction decode cache \
         was already a tag check against an empty production list, so block \
         replay adds a few ns/step of cursor bookkeeping there; that is the \
         cost of the fused path being possible at all."
    );
}
