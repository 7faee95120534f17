//! Regenerates Figure 4 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig4_figure]);
    println!("Figure 4: conditional watchpoints (exec time normalised to baseline)");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig4(&ctx));
}
