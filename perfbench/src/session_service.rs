//! `session_service`: a closed loop of [`CLIENTS`] clients on one
//! [`Scheduler`] with [`WORKERS`] workers. Each client submits its next
//! session as soon as its previous one completes, from the scheduler's
//! completion callback.
//!
//! Sessions are short, so admission — assembly, image load, production
//! install, scheduler bookkeeping — is a large share of each, the
//! opposite of `paper_grid`. Continuous arrivals expose the latency
//! tail: the scheduler runs new admissions before yielded sessions, so
//! a long session waits behind every short one that arrives.

use std::sync::Mutex;
use std::time::Instant;

use dise_bench::server::{parse_jobs, JobSpec};
use dise_bench::{SessionJob, DEFAULT_SLICE};
use dise_cpu::CpuConfig;
use dise_debug::{DebugError, SchedStats, Scheduler, SessionReport, Step, TaskOutput};
use dise_workloads::by_name;

use crate::gen::{session_jobs, Rng};
use crate::measure::{Counters, Outcome, RssSampler, SimTotals, Stopwatch};
use crate::spans::{SpanId, Tracer};
use crate::{open_round, stats, LayerValues, Round, Rounds, RunConfig, WORKERS};

/// Sessions in one round: enough that ten lie beyond its p99.
pub const SESSIONS: usize = 1000;

/// Clients in the closed loop, each with at most one session out.
pub const CLIENTS: usize = 4;

/// Instructions per scheduler slice: the scheduler's default.
pub const SLICE: u64 = DEFAULT_SLICE;

/// Sessions per round re-run on the unscheduled path and compared.
pub const SAMPLE: usize = 3;

/// What one closed-loop round produced.
pub struct LoopRound {
    /// Each job's result, in job order.
    pub reports: Vec<Result<SessionReport, DebugError>>,
    /// Each job's spawn and completion instants, in job order.
    pub intervals: Vec<(Instant, Instant)>,
    /// Each job's spawn-to-completion latency, in job order.
    pub latency_ms: Vec<f64>,
    /// Most sessions any moment had submitted but not completed.
    pub max_outstanding: usize,
    pub stats: SchedStats,
}

struct Clients<'a> {
    jobs: &'a [JobSpec],
    /// Job indices in submission order.
    order: &'a [usize],
    next: usize,
    outstanding: usize,
    max_outstanding: usize,
    /// Job index of each scheduler task id.
    job_of: Vec<usize>,
    spawned: Vec<Option<Instant>>,
    done: Vec<Option<Instant>>,
}

impl Clients<'_> {
    /// Submit the next job, if any is left.
    fn submit(&mut self, sched: &Scheduler) {
        let Some(&j) = self.order.get(self.next) else {
            return;
        };
        self.next += 1;
        self.spawned[j] = Some(Instant::now());
        let id = sched.spawn(self.jobs[j].task());
        assert_eq!(id, self.job_of.len(), "scheduler ids are dense in spawn order");
        self.job_of.push(j);
        self.outstanding += 1;
        self.max_outstanding = self.max_outstanding.max(self.outstanding);
    }
}

/// Serve `jobs`, submitted in `order`, to `clients` closed-loop clients
/// on `workers` threads.
pub fn closed_loop(jobs: &[JobSpec], order: &[usize], clients: usize, workers: usize) -> LoopRound {
    let sched = Scheduler::new(SLICE);
    let state = Mutex::new(Clients {
        jobs,
        order,
        next: 0,
        outstanding: 0,
        max_outstanding: 0,
        job_of: Vec::with_capacity(jobs.len()),
        spawned: vec![None; jobs.len()],
        done: vec![None; jobs.len()],
    });
    {
        let mut st = state.lock().expect("client state");
        for _ in 0..clients {
            st.submit(&sched);
        }
    }
    let outputs = sched.drain_with(workers, |id, _| {
        let now = Instant::now();
        let mut st = state.lock().expect("client state");
        let j = st.job_of[id];
        st.done[j] = Some(now);
        st.outstanding -= 1;
        st.submit(&sched);
    });
    let st = state.into_inner().expect("client state");
    let mut reports: Vec<Option<Result<SessionReport, DebugError>>> = vec![None; jobs.len()];
    for (id, output) in outputs {
        reports[st.job_of[id]] = Some(output.into_batch().map(|mut rs| rs.remove(0)));
    }
    let intervals: Vec<(Instant, Instant)> = st
        .spawned
        .iter()
        .zip(&st.done)
        .map(|(s, d)| (s.expect("every job spawned"), d.expect("every job completed")))
        .collect();
    LoopRound {
        reports: reports.into_iter().map(|r| r.expect("every job reported")).collect(),
        latency_ms: intervals.iter().map(|(s, d)| (*d - *s).as_secs_f64() * 1e3).collect(),
        intervals,
        max_outstanding: st.max_outstanding,
        stats: sched.stats(),
    }
}

/// The unscheduled reference for one job: `SessionJob::report`.
pub fn reference(job: &JobSpec) -> Result<SessionReport, DebugError> {
    let w = by_name(&job.kernel, job.iters).expect("parse_jobs validated the kernel");
    let mut cpu = CpuConfig::default();
    if let Some(cost) = job.cost {
        cpu.debugger_transition_cost = cost;
    }
    SessionJob::new(w.clone(), vec![w.watchpoint(job.watch)], job.backend, cpu).report()
}

/// Run `session_service` for `cfg`. Every round serves the same jobs,
/// each in its own seeded arrival order, so the latency figures, medians
/// over rounds, speak for many orders rather than one.
pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome, layers: &mut LayerValues) {
    out.notes.push(format!(
        "session_service: {SESSIONS} sessions per round, {CLIENTS} closed-loop clients, \
         workers={WORKERS}, slice={SLICE}"
    ));
    let mut rounds = Rounds::default();
    let mut sample_rng = Rng::new(cfg.seed, 100);
    let mut first: Option<SimTotals> = None;
    let mut last_traced: Option<LoopRound> = None;
    let mut jobs = Vec::new();
    let mut round_no = 0;
    let begin = Instant::now();
    while rounds.more(begin, cfg) {
        let traced = rounds.next_traced(cfg);
        let parsed = rounds.setup(|| parse_jobs(&session_jobs(cfg.seed, SESSIONS)));
        jobs = match parsed {
            Ok(jobs) => jobs,
            Err(e) => {
                out.attempted += 1;
                return out.failures.fail(format!("generated job list does not parse: {e}"));
            }
        };
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        Rng::new(cfg.seed, 1000 + round_no).shuffle(&mut order);
        round_no += 1;

        let span = open_round(tracer, "session_service", traced);
        let rss = RssSampler::start();
        let before = Counters::read();
        let watch = Stopwatch::start();
        let round = closed_loop(&jobs, &order, CLIENTS, WORKERS);
        let lap = watch.stop();
        let counters = Counters::read().since(&before);
        let peak_rss_mb = rss.stop();
        tracer.close(span, 1, 0);
        if traced {
            record_sessions(tracer, span, &round);
        }

        let mut totals = SimTotals::default();
        for (job, report) in jobs.iter().zip(&round.reports) {
            out.attempted += 1;
            match report {
                Ok(r) if r.error.is_none() => totals.add(r),
                Ok(r) => out.failures.fail(format!("{}: execution error {:?}", job.name, r.error)),
                Err(e) => out.failures.fail(format!("{}: {e}", job.name)),
            }
        }
        out.failures.check(round.max_outstanding <= CLIENTS, || {
            format!("{} sessions outstanding at once with {CLIENTS} clients", round.max_outstanding)
        });
        for _ in 0..SAMPLE {
            let j = sample_rng.below(jobs.len());
            out.failures.check(reference(&jobs[j]) == round.reports[j], || {
                format!("{}: scheduled report differs from SessionJob::report", jobs[j].name)
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
                wall_s: lap.wall_s(),
                cpu_s: lap.cpu_s,
                op_ms: round.latency_ms.clone(),
                op_cpu_s: Vec::new(),
                instructions: totals.instructions,
                peak_rss_mb,
                counters,
            },
        );
        if traced {
            last_traced = Some(round);
        }
    }
    rounds.end_to_end(out);
    out.notes.push(format!("simulated totals per round: {:?}", first.unwrap_or_default()));
    if let Some(round) = last_traced {
        rounds.counter_layers(layers);
        layers.insert("core.sched.max_wait_slices", round.stats.max_wait_slices as f64);
        poll_directly(tracer, &jobs, &round, out, layers);
    }
}

/// One span per session, from spawn to completion, under `parent`.
fn record_sessions(tracer: &Tracer, parent: SpanId, round: &LoopRound) {
    for ((start, end), report) in round.intervals.iter().zip(&round.reports) {
        tracer.record("core.sched session", parent, *start, *end, u64::from(report.is_err()));
    }
}

/// Poll every session of the round directly, one at a time: the busy
/// time each needs without the scheduler. Its latency under the
/// scheduler minus that busy time is how long it waited.
fn poll_directly(
    tracer: &Tracer,
    jobs: &[JobSpec],
    round: &LoopRound,
    out: &mut Outcome,
    layers: &mut LayerValues,
) {
    let probe = tracer.open("core.task direct polling", Tracer::ROOT);
    let (mut admit_s, mut poll_s, mut polls, mut instructions) = (0.0, 0.0, 0u64, 0u64);
    let mut wait_ms = Vec::with_capacity(jobs.len());
    for (job, latency) in jobs.iter().zip(&round.latency_ms) {
        let mut task = job.task();
        let (first, admit) =
            tracer.time("core.task SessionTask::poll (admit)", probe, 1, || task.poll(0));
        let mut busy = admit;
        admit_s += admit;
        let mut step = first;
        let span = tracer.open("core.task SessionTask::poll", probe);
        let mut n = 0u64;
        let t = Instant::now();
        while let Step::Yielded(_) = step {
            step = task.poll(SLICE);
            n += 1;
        }
        let secs = t.elapsed().as_secs_f64();
        tracer.close(span, n, 0);
        busy += secs;
        poll_s += secs;
        polls += n;
        out.attempted += 1;
        match step {
            Step::Done(TaskOutput::Batch(Ok(reports))) => {
                instructions += reports[0].run.instructions;
            }
            other => out.failures.fail(format!("{}: direct poll ended with {other:?}", job.name)),
        }
        wait_ms.push((latency - busy * 1e3).max(0.0));
    }
    tracer.close(probe, jobs.len() as u64, 0);
    layers.insert("core.task.admit_us", 1e6 * admit_s / jobs.len() as f64);
    layers.insert("core.task.poll_us", 1e6 * poll_s / polls.max(1) as f64);
    layers.insert("core.task.instr_per_poll", instructions as f64 / polls.max(1) as f64);
    layers.insert("core.sched.wait_p50_ms", stats::median(&wait_ms));
    layers.insert(
        "core.sched.wait_p99_ms",
        stats::percentile(&wait_ms, stats::tail_rule(wait_ms.len()).percentile),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_never_exceeds_its_clients_and_matches_the_reference() {
        let jobs = parse_jobs(&session_jobs(3, 40)).expect("generated lines parse");
        let order: Vec<usize> = (0..jobs.len()).rev().collect();
        let round = closed_loop(&jobs, &order, CLIENTS, WORKERS);
        assert!(round.max_outstanding <= CLIENTS, "{} outstanding", round.max_outstanding);
        assert_eq!(round.max_outstanding, CLIENTS, "the loop keeps every client busy");
        assert_eq!(round.stats.completed, jobs.len());
        for (job, report) in jobs.iter().zip(&round.reports) {
            assert_eq!(*report, reference(job), "{}", job.name);
        }
    }

    #[test]
    fn every_generated_backend_and_watch_succeeds() {
        use crate::gen::{BACKENDS, KERNELS};
        let mut text = String::new();
        for kernel in KERNELS {
            for (backend, watches) in BACKENDS {
                for watch in watches {
                    text.push_str(&format!("{kernel}-{backend}-{watch} kernel={kernel} watch={watch} backend={backend} iters=3\n"));
                }
            }
        }
        for job in parse_jobs(&text).expect("lines parse") {
            let report = reference(&job).unwrap_or_else(|e| panic!("{}: {e}", job.name));
            assert_eq!(report.error, None, "{}", job.name);
        }
    }
}
