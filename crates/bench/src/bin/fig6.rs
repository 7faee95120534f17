//! Regenerates Figure 6 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig6_figure]);
    println!("Figure 6: impact of the number of watchpoints");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig6(&ctx));
}
