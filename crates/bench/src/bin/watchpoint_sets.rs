//! Regenerates the watchpoint-set sweep (beyond the paper's figures):
//! three watchpoint sets per kernel under every observing backend plus
//! DISE — the observing cells of each kernel share one functional pass.

fn main() {
    let ctx = dise_bench::Experiment::from_env().with_plan(&[dise_bench::watchpoint_sets_figure]);
    println!("Watchpoint-set sweep: HOT / WARM1+COLD / RANGE per kernel");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::watchpoint_sets(&ctx));
}
