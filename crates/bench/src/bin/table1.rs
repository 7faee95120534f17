//! Regenerates Table 1 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env();
    println!("Table 1: benchmark summary");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::table1(&ctx));
}
