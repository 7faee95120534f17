//! # perfbench — the repository's benchmark
//!
//! Three workloads drive the library crates through their public APIs
//! and measure, from outside, what a user of the simulator pays in
//! host time:
//!
//! * [`paper_grid`] regenerates every table and figure of the paper;
//! * [`session_service`] serves a closed loop of short debugging
//!   sessions from four clients on one scheduler;
//! * [`trace_store`] records each kernel's execution to a `.dtrc` trace
//!   and replays it under many observer member sets.
//!
//! A run repeats its workload's full operation set in *rounds* until
//! its time is up, checks every round's outputs outside the timed
//! region, and reports medians over rounds. With tracing on, rounds
//! alternate between untraced and traced (so the difference is the
//! tracing overhead) and [`layers`] then times the benchmark's own
//! calls into each crate.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod paper_grid;
pub mod session_service;
pub mod spans;
pub mod stats;
pub mod trace_store;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use measure::{Counters, Outcome};
use spans::{SpanId, Tracer};

/// End-to-end metrics every workload reports with tracing off, as
/// `(name, unit)`. An *operation* is one table or figure in
/// `paper_grid`, one session in `session_service`, and one recording
/// or replay in `trace_store`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, as `(name, unit)`. A
/// layer a workload never calls reads 0 there and is named in the
/// run's notes.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("bench.table1_s", "s"),
    ("bench.table2_s", "s"),
    ("bench.fig3_s", "s"),
    ("bench.fig4_s", "s"),
    ("bench.fig5_s", "s"),
    ("bench.fig6_s", "s"),
    ("bench.fig7_s", "s"),
    ("bench.fig8_s", "s"),
    ("bench.fig9_s", "s"),
    ("bench.sensitivity_s", "s"),
    ("bench.watchpoint_sets_s", "s"),
    ("core.functional_passes", "count"),
    ("core.image_loads", "count"),
    ("core.checkpoint_forks", "count"),
    ("core.fanout.chunks", "count"),
    ("core.fanout.skip_ratio", "ratio"),
    ("core.observer.ns_per_member_record", "ns"),
    ("core.trace.recordings", "count"),
    ("core.trace.replays", "count"),
    ("core.task.admit_us", "us"),
    ("core.task.poll_us", "us"),
    ("core.task.instr_per_poll", "instr"),
    ("core.sched.wait_p50_ms", "ms"),
    ("core.sched.wait_p99_ms", "ms"),
    ("core.sched.slices", "count"),
    ("core.sched.preemptions", "count"),
    ("core.sched.max_wait_slices", "count"),
    ("cpu.exec.ns_per_record", "ns"),
    ("cpu.exec.block_hit_ratio", "ratio"),
    ("cpu.timing.ns_per_record", "ns"),
    ("cpu.trace.encode_ns_per_record", "ns"),
    ("cpu.trace.decode_ns_per_record", "ns"),
    ("cpu.trace.bytes_per_record", "B"),
    ("trace.finish_ms", "ms"),
    ("trace.open_ms", "ms"),
    ("mem.data_access_ns", "ns"),
    ("mem.fork_us", "us"),
    ("mem.pages_copied", "count"),
    ("dise.expand_ns", "ns"),
    ("dise.expansions", "count"),
    ("asm.assemble_us", "us"),
    ("workloads.build_ms", "ms"),
    ("store.record_mrec_per_s", "Mrec/s"),
    ("store.replay_mrec_per_s", "Mrec/s"),
    ("store.bytes_per_rec", "B"),
    ("tracing.overhead_s", "s"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "session_service", "trace_store"];

/// Worker threads every workload runs with.
pub const WORKERS: usize = 2;

/// Rounds every run completes, however short its time.
pub const MIN_ROUNDS: usize = 3;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for traces and span dumps, outside the source tree.
    pub scratch: PathBuf,
}

/// What one round of a workload's operation set measured.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Each operation's latency in ms, in the same order every round.
    pub op_ms: Vec<f64>,
    /// Each operation's process CPU seconds when the operations run one
    /// after another; empty when they overlap.
    pub op_cpu_s: Vec<f64>,
    /// Simulated instructions in the round's reports.
    pub instructions: u64,
    /// Peak resident memory sampled while the round ran.
    pub peak_rss_mb: f64,
    pub counters: Counters,
}

/// Every round of one run, and the set-up times before them.
///
/// A shared host's speed can drift, in bursts of a second or so that
/// slow whatever runs during them. Where operations run one after another,
/// each operation's median over rounds is taken first, which a burst
/// over part of a round cannot move; a round's time is then the sum of
/// those medians. Where operations overlap, wall and CPU time and each
/// round's latency percentiles are medians over rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
}

/// Per-layer values gathered by a traced run.
pub type LayerValues = BTreeMap<&'static str, f64>;

impl Rounds {
    /// True while another round should start: until [`MIN_ROUNDS`]
    /// rounds are done and `seconds` have passed since `begin`.
    pub fn more(&self, begin: Instant, cfg: &RunConfig) -> bool {
        self.rounds.len() < MIN_ROUNDS || begin.elapsed().as_secs_f64() < cfg.seconds
    }

    /// Whether the next round is traced: every second round of a traced
    /// run, so the difference between the two kinds is the tracing
    /// overhead.
    pub fn next_traced(&self, cfg: &RunConfig) -> bool {
        cfg.trace && self.rounds.len() % 2 == 1
    }

    /// Run and time a round's set-up. Every round sets up afresh, so
    /// `setup_s` is a median over as many set-ups as there are rounds.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup_s.push(t.elapsed().as_secs_f64());
        out
    }

    /// Log a round. Its counter deltas must repeat the first round's.
    pub fn push(&mut self, out: &mut Outcome, round: Round) {
        if let Some(first) = self.rounds.first() {
            let (a, b) = (first.counters, round.counters);
            out.failures.check(a.exact() == b.exact(), || {
                format!("counters changed between rounds: {a:?} then {b:?}")
            });
        }
        self.rounds.push(round);
    }

    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        stats::median(&self.untraced().map(f).collect::<Vec<_>>())
    }

    /// Each operation's median over untraced rounds.
    fn per_op(&self, f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
        let rows: Vec<&[f64]> = self.untraced().map(f).collect();
        (0..rows[0].len())
            .map(|i| stats::median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect()
    }

    fn sequential(&self) -> bool {
        self.rounds.iter().all(|r| !r.op_cpu_s.is_empty())
    }

    /// Append the end-to-end metrics, from untraced rounds only.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let ops = self.rounds[0].op_ms.len();
        let (wall, cpu, p50, tail_ms) = if self.sequential() {
            // Too few operations for a percentile to lie beyond the
            // median, so the tail is the slowest operation.
            let typical = self.per_op(|r| &r.op_ms);
            let wall = typical.iter().sum::<f64>() / 1e3;
            let slowest = typical.iter().copied().fold(0.0, f64::max);
            out.notes.push(format!(
                "op_tail_ms is the largest of {ops} per-operation medians over rounds"
            ));
            let cpu = self.per_op(|r| &r.op_cpu_s).iter().sum();
            (wall, cpu, stats::median(&typical), slowest)
        } else {
            let tail = stats::tail_rule(ops);
            let p = tail.percentile;
            let p50 = self.median_of(|r| stats::median(&r.op_ms));
            let tail_ms = self.median_of(|r| stats::tail_mean(&r.op_ms, p));
            out.notes.push(format!(
                "op_tail_ms is the mean latency beyond p{p} of each round's {ops} operations, \
                 median over rounds{}; p{p} itself {:.4} ms",
                if tail.fell_back { "; too few for ten beyond p99" } else { "" },
                self.median_of(|r| stats::percentile(&r.op_ms, p))
            ));
            (self.median_of(|r| r.wall_s), self.median_of(|r| r.cpu_s), p50, tail_ms)
        };
        out.metric("setup_s", "s", stats::median(&self.setup_s));
        out.metric("wall_s", "s", wall);
        out.metric("cpu_s", "s", cpu);
        out.metric("sim_mips", "Minstr/s", self.median_of(|r| r.instructions as f64) / wall / 1e6);
        // Freed memory stays with the allocator, so a round's peak also
        // holds whatever earlier rounds left behind; the smallest peak is
        // what one pass over the operation set needs.
        let peaks: Vec<f64> = self.untraced().map(|r| r.peak_rss_mb).collect();
        out.metric("peak_rss_mb", "MB", stats::percentile(&peaks, 0.0));
        out.metric("op_p50_ms", "ms", p50);
        out.metric("op_tail_ms", "ms", tail_ms);
        out.metric("ops_per_s", "1/s", ops as f64 / wall);
        let walls: Vec<f64> = self.untraced().map(|r| r.wall_s).collect();
        let [q1, q2, q3] = if walls.len() > 1 { stats::quartiles(&walls) } else { [walls[0]; 3] };
        out.notes.push(format!(
            "rounds: {} ({} traced); untraced round wall_s quartiles {q1:.4} {q2:.4} {q3:.4}, spread {:.4}",
            self.rounds.len(),
            self.rounds.iter().filter(|r| r.traced).count(),
            stats::spread(&walls)
        ));
    }

    /// Traced wall time minus untraced wall time, medians over rounds.
    pub fn tracing_overhead_s(&self) -> f64 {
        let traced: Vec<f64> = self.rounds.iter().filter(|r| r.traced).map(|r| r.wall_s).collect();
        if traced.is_empty() {
            return 0.0;
        }
        stats::median(&traced) - self.median_of(|r| r.wall_s)
    }

    /// The first round's counter deltas as per-layer values.
    pub fn counter_layers(&self, values: &mut LayerValues) {
        let c = self.rounds.first().map(|r| r.counters).unwrap_or_default();
        values.insert("core.functional_passes", c.functional_passes as f64);
        values.insert("core.image_loads", c.image_loads as f64);
        values.insert("core.checkpoint_forks", c.checkpoint_forks as f64);
        values.insert("core.fanout.chunks", c.fanout_chunks as f64);
        values.insert("core.fanout.skip_ratio", c.skip_ratio());
        values.insert("core.trace.recordings", c.trace_records as f64);
        values.insert("core.trace.replays", c.trace_replays as f64);
        values.insert("core.sched.slices", c.slices_granted as f64);
        values.insert("core.sched.preemptions", c.preemptions as f64);
        values.insert("core.sched.max_wait_slices", c.max_wait_slices as f64);
        values.insert("tracing.overhead_s", self.tracing_overhead_s());
    }
}

/// Open the span of a round under the root. Only traced rounds record
/// a span per operation beneath it.
pub fn open_round(tracer: &Tracer, workload: &str, traced: bool) -> SpanId {
    let kind = if traced { "traced" } else { "untraced" };
    tracer.open(&format!("{workload} round ({kind})"), Tracer::ROOT)
}

/// Run one workload as `cfg` asks.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(cfg: &RunConfig) -> (Outcome, Tracer) {
    let tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let mut layers = LayerValues::new();
    let totals_before = layers::baseline_totals();
    match cfg.workload.as_str() {
        "paper_grid" => paper_grid::run(cfg, &tracer, &mut out, &mut layers),
        "session_service" => session_service::run(cfg, &tracer, &mut out, &mut layers),
        "trace_store" => trace_store::run(cfg, &tracer, &mut out, &mut layers),
        other => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    }
    if cfg.trace {
        layers::probe(cfg, &tracer, &mut out, &mut layers);
        out.metrics.clear();
        let mut absent = Vec::new();
        for (name, unit) in PER_LAYER {
            let value = layers.get(name).copied().unwrap_or_else(|| {
                absent.push(name);
                0.0
            });
            out.metric(name, unit, value);
        }
        if !absent.is_empty() {
            out.notes.push(format!(
                "not on the {} path, reported as 0: {}",
                cfg.workload,
                absent.join(", ")
            ));
        }
    }
    out.attempted += 1;
    out.failures.check(layers::baseline_totals() == totals_before, || {
        "undebugged runs' cycles or MemSystem::stats changed within the run".to_string()
    });
    (out, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(traced: bool, op_ms: &[f64], counters: Counters) -> Round {
        Round {
            traced,
            wall_s: op_ms.iter().sum::<f64>() / 1e3,
            cpu_s: 0.0,
            op_ms: op_ms.to_vec(),
            op_cpu_s: vec![0.001; op_ms.len()],
            instructions: 1_000_000,
            peak_rss_mb: 10.0,
            counters,
        }
    }

    #[test]
    fn a_burst_in_any_one_round_leaves_the_per_operation_medians() {
        let mut rounds = Rounds::default();
        let mut out = Outcome::default();
        let c = Counters::default();
        rounds.setup(|| ());
        rounds.push(&mut out, round(false, &[900.0, 100.0], c));
        rounds.push(&mut out, round(false, &[10.0, 100.0], c));
        rounds.push(&mut out, round(false, &[10.0, 900.0], c));
        rounds.push(&mut out, round(true, &[12.0, 110.0], c));
        rounds.end_to_end(&mut out);
        let wall = out.metrics.iter().find(|m| m.name == "wall_s").expect("wall_s").value;
        assert!((wall - 0.11).abs() < 1e-12, "{wall}");
        let tail = out.metrics.iter().find(|m| m.name == "op_tail_ms").expect("op_tail_ms").value;
        assert_eq!(tail, 100.0, "the slowest operation's median");
        assert_eq!(out.failures.count, 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        assert!(out.notes.iter().any(|n| n.starts_with("op_tail_ms is the largest")));
    }

    #[test]
    fn overlapping_operations_name_the_percentile_fallback() {
        let mut rounds = Rounds::default();
        let mut out = Outcome::default();
        rounds.setup(|| ());
        for _ in 0..MIN_ROUNDS {
            let mut r = round(false, &[1.0, 2.0, 30.0], Counters::default());
            r.op_cpu_s.clear();
            rounds.push(&mut out, r);
        }
        rounds.end_to_end(&mut out);
        assert!(
            out.notes.iter().any(|n| n.contains("beyond p50") && n.contains("too few")),
            "the fallback below p99 is named: {:?}",
            out.notes
        );
    }

    #[test]
    fn counters_that_change_between_rounds_fail_the_run() {
        let mut rounds = Rounds::default();
        let mut out = Outcome::default();
        let mut c = Counters { functional_passes: 3, max_wait_slices: 1, ..Counters::default() };
        rounds.push(&mut out, round(false, &[1.0], c));
        c.max_wait_slices = 9;
        rounds.push(&mut out, round(false, &[1.0], c));
        assert_eq!(out.failures.count, 0, "a high-water mark may differ");
        c.functional_passes = 4;
        rounds.push(&mut out, round(false, &[1.0], c));
        assert_eq!(out.failures.count, 1);
    }
}
