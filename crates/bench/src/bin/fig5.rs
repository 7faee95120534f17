//! Regenerates Figure 5 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig5_figure]);
    println!("Figure 5: DISE vs binary rewriting (COLD watchpoint)");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig5(&ctx));
}
