//! Golden digests of every rendered experiment.
//!
//! The simulator is deterministic, so each table and figure's text is
//! pinned as an FNV-1a digest. Unlike the determinism suites, which
//! compare two execution paths sharing one timing model, these digests
//! fail on any change to what a report says — a timing-model change
//! that moves a single cycle included. Tier-1 pins a small iteration
//! count; the `#[ignore]`d case pins the benchmark's iters = 100
//! digests (`perfbench::paper_grid::DIGESTS`):
//!
//! ```text
//! cargo test --release -p dise-bench --test report_golden -- --include-ignored
//! ```
//!
//! A change that is meant to alter reports must update both tables in
//! the same commit and say why.

use dise_bench::{
    fig3, fig4, fig5, fig6, fig7, fig8, fig9, sensitivity, table1, table2, watchpoint_sets,
    Experiment,
};
use dise_cpu::CpuConfig;

type Render = fn(&Experiment) -> String;

/// Every experiment, in the benchmark's order.
const EXPERIMENTS: [(&str, Render); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("sensitivity", sensitivity),
    ("watchpoint_sets", watchpoint_sets),
];

/// Digests at `SMALL_ITERS`, in [`EXPERIMENTS`] order.
const SMALL_ITERS: u32 = 6;
const SMALL_DIGESTS: [u64; 11] = [
    0xfb16_7c82_0402_33f9,
    0x81a6_2141_d84b_5723,
    0xa996_82b4_4585_ab17,
    0x1738_e34c_2de7_9474,
    0xb46c_7040_9416_c5c8,
    0x9080_0dfe_a76e_bb1c,
    0x3c02_b51d_872c_267d,
    0xf853_ad07_bd10_fdfb,
    0x53e9_f56f_922c_b101,
    0x7461_8518_27cf_e41a,
    0x7649_e6e8_f380_59d5,
];

/// Digests at iters = 100: the benchmark's pinned values.
const BENCH_DIGESTS: [u64; 11] = [
    0x40f6_b8ea_2c01_f736,
    0x94c3_588f_ff7f_184b,
    0xd38f_4aa5_872d_418b,
    0x8b46_6eea_da6a_5b15,
    0xd76b_b47b_3f4f_2f04,
    0xc009_c0ca_062c_ce74,
    0x8bb1_d0cd_8db1_168e,
    0xb2e0_97f5_0314_b56f,
    0x8279_322f_6d13_89de,
    0xe4e6_47a6_f393_fc5f,
    0x526a_fb20_a7a4_446c,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Render every experiment at `iters` and compare all digests at once,
/// so one failure lists every report that moved.
fn check(iters: u32, pinned: &[u64; 11]) {
    let ctx = Experiment::new(iters, CpuConfig::default()).with_workers(2);
    let moved: Vec<String> = EXPERIMENTS
        .iter()
        .zip(pinned)
        .filter_map(|((name, render), &want)| {
            let got = fnv1a(render(&ctx).as_bytes());
            (got != want).then(|| format!("{name}: rendered {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "reports changed at iters = {iters}:\n{}", moved.join("\n"));
}

#[test]
fn reports_match_golden_digests() {
    check(SMALL_ITERS, &SMALL_DIGESTS);
}

#[test]
#[ignore = "iters = 100; run with --release --include-ignored"]
fn reports_match_benchmark_digests() {
    check(100, &BENCH_DIGESTS);
}
