//! Regenerates Table 2 of the paper.

fn main() {
    let ctx = dise_bench::Experiment::from_env();
    println!("Table 2: watchpoint write frequency (per 100K stores)");
    println!("(iters = {}, override with DISE_ITERS)\n", ctx.iters);
    print!("{}", dise_bench::table2(&ctx));
}
