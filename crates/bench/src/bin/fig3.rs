//! Regenerates Figure 3 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::fig3_figure]);
    println!("Figure 3: unconditional watchpoints (exec time normalised to baseline)");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::fig3(&ctx));
}
