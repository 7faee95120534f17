//! `trace_store`: for each kernel, record one observer batch to a
//! `.dtrc` trace, then replay that trace under [`REPLAYS`] member sets
//! of observing backends × `watchpoint_set_sweep` sets ×
//! `transition_cost_sweep` configs, ordered and accounted as the seed
//! draws them ([`member_choices`]).
//!
//! Recordings, then replays, run on a pool of two worker threads. It is
//! the only workload where the trace codec and store do the work:
//! recording and replaying are the write and read uses of one layer, so
//! a codec change that speeds one and slows the other shows.
//! Replay executes no instructions, so an `Executor` speed-up must
//! leave replay throughput unchanged.

use std::path::PathBuf;
use std::time::Instant;

use dise_bench::run_grid_with;
use dise_cpu::{CpuConfig, TraceReader};
use dise_debug::{BackendKind, DebugError, ObserverBatch, SessionReport, SessionTask, Watchpoint};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind, Workload};

use crate::gen::{member_choices, MemberChoice};
use crate::measure::{Counters, Outcome, RssSampler, SimTotals, Stopwatch};
use crate::spans::Tracer;
use crate::{open_round, stats, LayerValues, Round, Rounds, RunConfig, WORKERS};

/// Kernel iterations of every recording.
pub const ITERS: u32 = 100;

/// Replays of each kernel's trace per round.
pub const REPLAYS: usize = 16;

/// The backends that observe without perturbing execution.
pub fn observers() -> [BackendKind; 3] {
    [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators]
}

/// `(backend, watchpoints, configs)` members of one observer batch.
pub type Members = Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>;

/// The members a choice of indices names, for kernel `w`.
pub fn members(w: &Workload, choice: &MemberChoice) -> Members {
    let sets = watchpoint_set_sweep(w);
    let configs: Vec<CpuConfig> = {
        let sweep = transition_cost_sweep(CpuConfig::default());
        choice.configs.iter().map(|&i| sweep[i].1).collect()
    };
    let backends = observers();
    let mut out = Vec::new();
    for &b in &choice.backends {
        for &s in &choice.sets {
            out.push((backends[b], sets[s].1.clone(), configs.clone()));
        }
    }
    out
}

/// The batch each recording runs: DISE comparators on the HOT scalar.
fn recording_members(w: &Workload) -> Members {
    vec![(
        BackendKind::DiseComparators,
        vec![w.watchpoint(WatchKind::Hot)],
        vec![CpuConfig::default()],
    )]
}

type BatchResult = Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError>;

/// Check one batch result and add its reports to `totals`. A member
/// whose backend cannot implement its set (debug registers on the
/// RANGE array) is the expected "no experiment" cell, not a failure.
fn tally(what: &str, result: &BatchResult, totals: &mut SimTotals, out: &mut Outcome) {
    let members = match result {
        Ok(members) => members,
        Err(e) => return out.failures.fail(format!("{what}: {e}")),
    };
    for member in members {
        match member {
            Ok(reports) => {
                for r in reports {
                    match r.error {
                        None => totals.add(r),
                        Some(e) => out.failures.fail(format!("{what}: execution error {e:?}")),
                    }
                }
            }
            Err(DebugError::Unsupported { .. }) => {}
            Err(e) => out.failures.fail(format!("{what}: {e}")),
        }
    }
}

/// Removes the run's trace directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Inputs {
    workloads: Vec<Workload>,
    choices: Vec<Vec<MemberChoice>>,
}

fn setup(seed: u64) -> Inputs {
    let workloads = all(ITERS);
    for w in &workloads {
        w.app().program().expect("kernel assembles");
    }
    let choices = (0..workloads.len()).map(|k| member_choices(seed, k, REPLAYS)).collect();
    Inputs { workloads, choices }
}

/// Per-round figures of the store itself.
#[derive(Default)]
struct StoreRound {
    records: u64,
    bytes: u64,
    record_s: f64,
    replay_records: u64,
    replay_s: f64,
}

/// Run `trace_store` for `cfg`.
pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome, layers: &mut LayerValues) {
    out.notes.push(format!(
        "trace_store: 6 kernels at iters={ITERS}, one recording and {REPLAYS} replays each per round"
    ));
    let dir = TempDir(cfg.scratch.join(format!("trace_store-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&dir.0) {
        out.attempted += 1;
        return out.failures.fail(format!("create {}: {e}", dir.0.display()));
    }
    let mut rounds = Rounds::default();
    let mut live: Vec<Vec<BatchResult>> = Vec::new();
    let mut first: Option<SimTotals> = None;
    let mut store: Vec<(bool, StoreRound)> = Vec::new();
    let begin = Instant::now();
    while rounds.more(begin, cfg) {
        let traced = rounds.next_traced(cfg);
        let inputs = rounds.setup(|| setup(cfg.seed));
        if live.is_empty() {
            live = live_results(&inputs);
        }

        let span = open_round(tracer, "trace_store", traced);
        let rss = RssSampler::start();
        let before = Counters::read();
        let watch = Stopwatch::start();
        // Recordings first, then every replay, each phase on a pool of
        // WORKERS threads; a replay only needs its kernel's trace.
        let paths: Vec<PathBuf> =
            inputs.workloads.iter().map(|w| dir.0.join(format!("{}.dtrc", w.name()))).collect();
        let kernels: Vec<(&Workload, &PathBuf)> = inputs.workloads.iter().zip(&paths).collect();
        let recordings = run_grid_with(&kernels, WORKERS, |&(w, path)| {
            let _ = std::fs::remove_file(path);
            let op = Stopwatch::start();
            let result = SessionTask::observer_recorded(w.app(), recording_members(w), path)
                .run_to_completion()
                .into_observe();
            (op.stop(), result)
        });
        let replay_jobs: Vec<(usize, usize)> = (0..inputs.workloads.len())
            .flat_map(|k| (0..inputs.choices[k].len()).map(move |i| (k, i)))
            .collect();
        let replays = run_grid_with(&replay_jobs, WORKERS, |&(k, i)| {
            let w = &inputs.workloads[k];
            let op = Stopwatch::start();
            let result =
                SessionTask::observer_replay(w.app(), members(w, &inputs.choices[k][i]), &paths[k])
                    .run_to_completion()
                    .into_observe();
            (op.stop(), result)
        });
        let round = watch.stop();
        let counters = Counters::read().since(&before);
        let peak_rss_mb = rss.stop();
        tracer.close(span, 1, 0);

        let mut sr = StoreRound::default();
        for path in &paths {
            out.attempted += 1;
            match TraceReader::open(path, None) {
                Ok(reader) => {
                    let stats = reader.stats();
                    sr.records += stats.records;
                    sr.replay_records += stats.records * REPLAYS as u64;
                    sr.bytes += stats.file_bytes;
                }
                Err(e) => out.failures.fail(format!("reopen {}: {e}", path.display())),
            }
        }
        let mut totals = SimTotals::default();
        let mut laps = Vec::with_capacity(recordings.len() + replays.len());
        for (w, (lap, result)) in inputs.workloads.iter().zip(&recordings) {
            if traced {
                tracer.record("store record", span, lap.start, lap.end, u64::from(result.is_err()));
            }
            sr.record_s += lap.wall_s();
            laps.push(*lap);
            out.attempted += 1;
            tally(&format!("record {}", w.name()), result, &mut totals, out);
        }
        for (&(k, i), (lap, result)) in replay_jobs.iter().zip(&replays) {
            if traced {
                tracer.record("store replay", span, lap.start, lap.end, u64::from(result.is_err()));
            }
            sr.replay_s += lap.wall_s();
            laps.push(*lap);
            let what = format!("replay {} #{i}", inputs.workloads[k].name());
            out.attempted += 1;
            tally(&what, result, &mut totals, out);
            out.failures.check(*result == live[k][i], || {
                format!("{what} differs from the live ObserverBatch::run")
            });
        }
        match &first {
            None => first = Some(totals),
            Some(t0) => out.failures.check(*t0 == totals, || {
                format!("simulated totals changed between rounds: {t0:?} then {totals:?}")
            }),
        }
        rounds.push(
            out,
            Round {
                traced,
                wall_s: round.wall_s(),
                cpu_s: round.cpu_s,
                op_ms: laps.iter().map(|l| l.wall_s() * 1e3).collect(),
                op_cpu_s: Vec::new(),
                instructions: totals.instructions,
                peak_rss_mb,
                counters,
            },
        );
        store.push((traced, sr));
    }
    rounds.end_to_end(out);
    let pick = |traced: bool, f: &dyn Fn(&StoreRound) -> f64| -> f64 {
        let v: Vec<f64> = store.iter().filter(|(t, _)| *t == traced).map(|(_, s)| f(s)).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let record = |s: &StoreRound| s.records as f64 / s.record_s / 1e6;
    let replay = |s: &StoreRound| s.replay_records as f64 / s.replay_s / 1e6;
    let bytes = |s: &StoreRound| s.bytes as f64 / s.records as f64;
    out.notes.push(format!(
        "record_mrec_per_s {:.4}, replay_mrec_per_s {:.4}, trace_bytes_per_rec {:.4}, simulated totals per round {:?}",
        pick(false, &record),
        pick(false, &replay),
        pick(false, &bytes),
        first.unwrap_or_default()
    ));
    if cfg.trace {
        rounds.counter_layers(layers);
        layers.insert("store.record_mrec_per_s", pick(true, &record));
        layers.insert("store.replay_mrec_per_s", pick(true, &replay));
        layers.insert("store.bytes_per_rec", pick(true, &bytes));
    }
}

/// The live `ObserverBatch::run` of every replay's members: what each
/// replay must reproduce bit for bit.
fn live_results(inputs: &Inputs) -> Vec<Vec<BatchResult>> {
    inputs
        .workloads
        .iter()
        .zip(&inputs.choices)
        .map(|(w, choices)| {
            choices
                .iter()
                .map(|choice| {
                    let mut batch = ObserverBatch::new(w.app());
                    for (b, wps, cpus) in members(w, choice) {
                        batch.member(b, wps, cpus);
                    }
                    batch.run()
                })
                .collect()
        })
        .collect()
}
