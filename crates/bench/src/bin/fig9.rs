//! Regenerates Figure 9 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig9_figure]);
    println!("Figure 9: cost of protecting debugger structures");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig9(&ctx));
}
