//! Regenerates Figure 7 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig7_figure]);
    println!("Figure 7: alternate DISE implementations");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig7(&ctx));
}
