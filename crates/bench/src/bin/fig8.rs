//! Regenerates Figure 8 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig8_figure]);
    println!("Figure 8: DISE overhead with multithreading");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig8(&ctx));
}
