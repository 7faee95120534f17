//! Criterion wrappers around the paper's experiments, one benchmark per
//! table/figure, at a reduced scale so `cargo bench` exercises every
//! experiment path end-to-end. Use the `dise-bench` binaries for
//! full-scale, formatted reproductions.

use criterion::{criterion_group, criterion_main, Criterion};

use dise_bench::{Experiment, Figure};
use dise_cpu::CpuConfig;

const BENCH_ITERS: u32 = 40;

fn ctx() -> Experiment {
    Experiment::new(BENCH_ITERS, CpuConfig::default())
}

/// A fresh context planned for one figure alone, so its benchmark times
/// that figure's passes without other figures' timing configurations.
fn alone(declare: fn(&Experiment) -> Figure) -> Experiment {
    ctx().with_plan(&[declare])
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.bench_function("table1", |b| b.iter(|| dise_bench::table1(&ctx())));
    g.bench_function("table2", |b| b.iter(|| dise_bench::table2(&ctx())));
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig3_unconditional", |b| {
        b.iter(|| dise_bench::fig3(&alone(dise_bench::fig3_figure)))
    });
    g.bench_function("fig4_conditional", |b| {
        b.iter(|| dise_bench::fig4(&alone(dise_bench::fig4_figure)))
    });
    g.bench_function("fig5_rewriting", |b| {
        b.iter(|| dise_bench::fig5(&alone(dise_bench::fig5_figure)))
    });
    g.bench_function("fig6_num_watchpoints", |b| {
        b.iter(|| dise_bench::fig6(&alone(dise_bench::fig6_figure)))
    });
    g.bench_function("fig7_alternate_impls", |b| {
        b.iter(|| dise_bench::fig7(&alone(dise_bench::fig7_figure)))
    });
    g.bench_function("fig8_multithreading", |b| {
        b.iter(|| dise_bench::fig8(&alone(dise_bench::fig8_figure)))
    });
    g.bench_function("fig9_protection", |b| {
        b.iter(|| dise_bench::fig9(&alone(dise_bench::fig9_figure)))
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures);
criterion_main!(benches);
