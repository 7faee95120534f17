//! Regenerates the transition-cost sensitivity table (beyond the
//! paper's figures): WARM1 overheads under the paper's modeled 100K
//! and measured 290K (gdb) / 513K (Visual Studio) spurious-transition
//! round trips, one functional pass per (kernel, backend) row.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::sensitivity_figure]);
    println!("Transition-cost sensitivity: WARM1 under 100K/290K/513K-cycle round trips");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::sensitivity(&ctx));
}
