//! `paper_grid`: every table and figure `all_experiments` produces, at
//! a pinned kernel scale, on one explicitly built [`Experiment`].
//!
//! It is the end-to-end target the paper's results cost: the grid's
//! batching, observer fan-out, copy-on-write perturbing groups, DISE
//! expansion and above all the timing model. It never touches the trace
//! store and admits few, long sessions. Each round sets up a fresh
//! `Experiment`, baseline runs included, so every round does the same
//! work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dise_bench::Experiment;
use dise_cpu::CpuConfig;

use crate::measure::{fnv1a, Counters, Outcome, RssSampler, Stopwatch};
use crate::spans::Tracer;
use crate::{open_round, stats, LayerValues, Round, Rounds, RunConfig, WORKERS};

/// Kernel iterations of every experiment.
pub const ITERS: u32 = 100;

/// One table or figure.
pub type Render = fn(&Experiment) -> String;

/// The experiments `all_experiments` runs, in its order, with the
/// per-layer metric each one's time is reported as.
pub const EXPERIMENTS: [(&str, &str, Render); 11] = [
    ("table1", "bench.table1_s", dise_bench::table1),
    ("table2", "bench.table2_s", dise_bench::table2),
    ("fig3", "bench.fig3_s", dise_bench::fig3),
    ("fig4", "bench.fig4_s", dise_bench::fig4),
    ("fig5", "bench.fig5_s", dise_bench::fig5),
    ("fig6", "bench.fig6_s", dise_bench::fig6),
    ("fig7", "bench.fig7_s", dise_bench::fig7),
    ("fig8", "bench.fig8_s", dise_bench::fig8),
    ("fig9", "bench.fig9_s", dise_bench::fig9),
    ("sensitivity", "bench.sensitivity_s", dise_bench::sensitivity),
    ("watchpoint_sets", "bench.watchpoint_sets_s", dise_bench::watchpoint_sets),
];

/// FNV-1a digests of each experiment's rendered text at [`ITERS`], in
/// [`EXPERIMENTS`] order. The simulator is deterministic and its
/// reports must stay byte-identical, so any change here is a
/// correctness failure, not noise.
pub const DIGESTS: [u64; 11] = [
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

/// Simulated instructions in the session reports behind one round's
/// tables: the sum of `run.instructions` over every grid cell at
/// [`ITERS`]. The experiment functions return rendered text rather than
/// reports, so this total is pinned, which makes `sim_mips` here a fixed
/// multiple of 1/`wall_s`. A change to the grid's cells or kernels that
/// moves this total also moves [`DIGESTS`] and so fails the run; the
/// total becomes a measured figure once the experiments expose their
/// simulated instruction counts.
pub const SIM_INSTRUCTIONS: u64 = 57_729_926;

/// Build the round's experiment context: the six kernels, assembled,
/// and their undebugged baseline runs, which every figure normalises
/// against, in the context's cache.
fn setup() -> Experiment {
    let ctx = Experiment::new(ITERS, CpuConfig::default()).with_workers(WORKERS);
    for w in ctx.workloads() {
        w.app().program().expect("kernel assembles");
        ctx.baseline(w);
    }
    ctx
}

/// Run `paper_grid` for `cfg`.
pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome, layers: &mut LayerValues) {
    out.notes.push(format!(
        "paper_grid: {} experiments, iters={ITERS}, workers={WORKERS}, CpuConfig::default()",
        EXPERIMENTS.len()
    ));
    let mut rounds = Rounds::default();
    let mut traced_s: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let begin = Instant::now();
    while rounds.more(begin, cfg) {
        let traced = rounds.next_traced(cfg);
        let ctx = rounds.setup(setup);

        let span = open_round(tracer, "paper_grid", traced);
        let rss = RssSampler::start();
        let before = Counters::read();
        let watch = Stopwatch::start();
        let mut texts = Vec::with_capacity(EXPERIMENTS.len());
        let mut laps = Vec::with_capacity(EXPERIMENTS.len());
        for (i, (name, _, render)) in EXPERIMENTS.iter().enumerate() {
            let op = Stopwatch::start();
            let text = catch_unwind(AssertUnwindSafe(|| render(&ctx)));
            let lap = op.stop();
            if traced {
                tracer.record(
                    &format!("bench {name}"),
                    span,
                    lap.start,
                    lap.end,
                    u64::from(text.is_err()),
                );
                traced_s[i].push(lap.wall_s());
            }
            laps.push(lap);
            texts.push(text);
        }
        let round = watch.stop();
        let counters = Counters::read().since(&before);
        let peak_rss_mb = rss.stop();
        tracer.close(span, 1, 0);

        for ((name, _, _), (text, pinned)) in EXPERIMENTS.iter().zip(texts.iter().zip(DIGESTS)) {
            out.attempted += 1;
            match text {
                Err(_) => out.failures.fail(format!("{name} panicked")),
                Ok(text) => {
                    let digest = fnv1a(text.as_bytes());
                    out.failures.check(digest == pinned, || {
                        format!("{name} rendered digest {digest:#018x}, pinned {pinned:#018x}")
                    });
                }
            }
        }
        rounds.push(
            out,
            Round {
                traced,
                wall_s: round.wall_s(),
                cpu_s: round.cpu_s,
                op_ms: laps.iter().map(|l| l.wall_s() * 1e3).collect(),
                op_cpu_s: laps.iter().map(|l| l.cpu_s).collect(),
                instructions: SIM_INSTRUCTIONS,
                peak_rss_mb,
                counters,
            },
        );
    }
    rounds.end_to_end(out);
    if cfg.trace {
        for ((_, key, _), times) in EXPERIMENTS.iter().zip(&traced_s) {
            layers.insert(key, stats::median(times));
        }
        rounds.counter_layers(layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_layer_metric() {
        for (_, key, _) in EXPERIMENTS {
            assert!(crate::PER_LAYER.iter().any(|(k, _)| *k == key), "{key}");
        }
    }
}
