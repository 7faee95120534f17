//! Runs every table and figure of the paper's evaluation and writes the
//! results — side by side with the paper's reference numbers and
//! expected shapes — to `EXPERIMENTS.md` (or stdout with `--stdout`).

use std::fmt::Write as _;

use dise_bench::{paper, section, Experiment};

fn main() {
    let stdout_only = std::env::args().any(|a| a == "--stdout");
    let ctx = Experiment::from_env();
    let mut doc = String::new();

    writeln!(doc, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        doc,
        "Reproduction of every table and figure of *Low-Overhead Interactive \
         Debugging via Dynamic Instrumentation with DISE* (HPCA 2005) on the \
         `dise-repro` simulator. Workload scale: {} kernel iterations \
         (`DISE_ITERS` to override). Absolute numbers differ from the paper \
         (SPEC functions ran billions of instructions on the authors' \
         SimpleScalar configuration); the comparisons below are about \
         *shape*: who wins, by what order of magnitude, and where the \
         crossovers fall.\n",
        ctx.iters
    )
    .unwrap();

    writeln!(doc, "Regenerate any single experiment with `cargo run --release -p dise-bench --bin <table1|table2|fig3..fig9>`.\n").unwrap();

    // Tables with paper references.
    let t1 = dise_bench::table1(&ctx);
    doc.push_str(&section("Table 1 — benchmark summary (measured)", &code(&t1)));
    let mut t1p =
        String::from("benchmark  function                 instructions      IPC   store density\n");
    for (b, f, i, ipc, sd) in paper::TABLE1 {
        writeln!(t1p, "{b:<10} {f:<24} {i:>12} {ipc:>8.2} {sd:>10.1}%").unwrap();
    }
    doc.push_str(&section("Table 1 — paper", &code(&t1p)));

    let t2 = dise_bench::table2(&ctx);
    doc.push_str(&section(
        "Table 2 — watchpoint write frequency per 100K stores (measured)",
        &code(&t2),
    ));
    let mut t2p =
        String::from("benchmark       HOT    WARM1    WARM2     COLD INDIRECT    RANGE\n");
    for (b, v) in paper::TABLE2 {
        write!(t2p, "{b:<10}").unwrap();
        for x in v {
            write!(t2p, " {x:>8.1}").unwrap();
        }
        t2p.push('\n');
    }
    doc.push_str(&section("Table 2 — paper", &code(&t2p)));

    // Figures: every overhead figure of the round, in its order.
    for (name, render, _) in dise_bench::FIGURES {
        let (title, shape) = figure_section(name);
        eprintln!("running {title} ...");
        doc.push_str(&section(&format!("{title} (measured)"), &code(&render(&ctx))));
        writeln!(doc, "{shape}\n").unwrap();
    }

    writeln!(
        doc,
        "## Known calibration gaps\n\n\
         * At the default 400 iterations, kernel HOT write frequencies span \
           686 (gcc) to 30.7K (crafty) per 100K stores, a wider spread than \
           the paper's 455 (gcc) to 24.8K (bzip2). The HOT ordering differs: \
           ours is crafty > mcf > twolf > bzip2 > vortex > gcc, the paper's \
           bzip2 > mcf > vortex > crafty > twolf > gcc; only gcc lowest and \
           mcf second agree. The silent-store property (bzip2 mostly \
           non-silent, all others ≥50% silent), which drives the \
           hardware-register and DISE comparisons, is preserved.\n\
         * Store densities land at 5–14% vs. the paper's 10–20%. IPCs spread \
           wider than the paper's 0.33–2.45 band: mcf is memory-bound below \
           it, and crafty and vortex run above it.\n\
         * Fig. 5: our gcc kernel's loop footprint still fits the 32 KB L1I \
           even after rewriting, so its rewriting penalty is milder than the \
           paper's 2.83x; crafty and vortex show the instruction-cache \
           effect instead.\n\
         * Fig. 7: the Evaluate-Expression organisation shows less load-port \
           pain than the paper reports because the calibrated kernels are \
           lighter on load bandwidth than SPEC functions.\n"
    )
    .unwrap();

    if stdout_only {
        print!("{doc}");
    } else {
        std::fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
        println!("wrote EXPERIMENTS.md ({} bytes)", doc.len());
    }
}

/// A figure's section title and the shape it should take: the paper's,
/// or the reproduction's own expectation where the paper has no figure.
fn figure_section(name: &str) -> (&'static str, String) {
    let paper = |i: usize| format!("**Paper's shape:** {}", paper::FIGURE_NOTES[i].1);
    match name {
        "fig3" => ("Figure 3 — unconditional watchpoints", paper(0)),
        "fig4" => ("Figure 4 — conditional watchpoints", paper(1)),
        "fig5" => ("Figure 5 — DISE vs binary rewriting (COLD)", paper(2)),
        "fig6" => ("Figure 6 — number of watchpoints", paper(3)),
        "fig7" => ("Figure 7 — alternate DISE implementations", paper(4)),
        "fig8" => ("Figure 8 — multithreaded DISE calls", paper(5)),
        "fig9" => ("Figure 9 — protecting debugger structures", paper(6)),
        "sensitivity" => (
            "Transition-cost sensitivity — WARM1 under 100K/290K/513K-cycle round trips",
            "**Expected shape:** the paper models a conservative 100K-cycle spurious \
             round trip but measures ~290K under gdb and ~513K under Visual Studio; \
             DISE rows are flat (no spurious transitions to charge) while the \
             virtual-memory and hardware-register rows scale with the cost. Each \
             (kernel, backend) row is one functional pass replayed through three \
             timing configurations."
                .to_string(),
        ),
        "watchpoint_sets" => (
            "Watchpoint-set sweep — HOT / WARM1+COLD / RANGE per kernel",
            "**Expected shape:** every observing column (VirtMem, HwRegs, DISE-Cmp) \
             of one kernel — across all three watchpoint sets — is produced from a \
             single functional pass of the unmodified application; only the DISE \
             column replays per set. DISE-Cmp reads the same as HwRegs wherever \
             HwRegs runs; it differs only by also running RANGE, where HwRegs \
             shows `--` (non-scalar). VirtMem pays page-sharing costs."
                .to_string(),
        ),
        _ => panic!("no EXPERIMENTS.md section for figure {name}"),
    }
}

fn code(s: &str) -> String {
    format!("```text\n{s}```")
}
