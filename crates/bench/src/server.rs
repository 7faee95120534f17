//! # Debug-sessions-as-a-service: a job list in, a transcript out
//!
//! [`serve`] turns a plain-text job list into a fleet of
//! [`SessionTask`]s on one cooperative [`Scheduler`] and streams a
//! completion line per session *as it finishes* (completion order),
//! then returns a deterministic transcript in *submission* order plus
//! the scheduler's fairness counters. The `session_server` binary wraps
//! this for stdin/file use.
//!
//! ## Job grammar
//!
//! One job per line; `#` starts a comment; blank lines are skipped:
//!
//! ```text
//! <name> kernel=<bzip2|crafty|gcc|mcf|twolf|vortex> watch=<hot|warm1|warm2|cold|indirect|range>
//!        backend=<dise|cmp|vm|hw|rewrite|step> [iters=<n>] [cost=<cycles>] [after=<name>]
//! ```
//!
//! `after=` gates a session on an **earlier** job's completion
//! (forward references are rejected, so dependency cycles are
//! unrepresentable — the same backward-only rule as
//! [`Scheduler::spawn_after`]). `cost=` overrides the modelled
//! debugger-transition stall, `iters=` the kernel scale.
//!
//! ## Determinism
//!
//! The streamed lines arrive in completion order, which depends on the
//! worker count; the returned transcript is re-assembled in submission
//! order and is byte-identical for every worker count and slice budget
//! (same argument as the grid: task ids are spawn order, outputs are
//! gathered by id). CI pins this by diffing the transcript of a
//! single-worker run against a committed golden file.

use std::collections::HashMap;
use std::fmt::Write as _;

use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, DebugError, SchedStats, Scheduler, SessionReport, SessionTask};
use dise_workloads::{template, WatchKind, Workload};

/// One parsed job line: a named debugging session request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Unique session name (the grammar's first token).
    pub name: String,
    /// Kernel to debug (`kernel=`), validated against
    /// [`dise_workloads::template`].
    pub kernel: String,
    /// Kernel scale (`iters=`, default 40 — small enough that a
    /// thousand-session queue drains in seconds on one core).
    pub iters: u32,
    /// Which of the paper's watchpoint localities to set (`watch=`).
    pub watch: WatchKind,
    /// Debugging backend (`backend=`).
    pub backend: BackendKind,
    /// Debugger-transition stall override in cycles (`cost=`).
    pub cost: Option<u64>,
    /// Name of an earlier job this session must wait for (`after=`).
    pub after: Option<String>,
    /// The kernel at `iters`, sharing one preparation with every job of
    /// the list that names the same kernel.
    workload: Workload,
}

/// Default `iters=` when a job line omits it.
pub const DEFAULT_JOB_ITERS: u32 = 40;

fn parse_watch(s: &str) -> Result<WatchKind, String> {
    match s {
        "hot" => Ok(WatchKind::Hot),
        "warm1" => Ok(WatchKind::Warm1),
        "warm2" => Ok(WatchKind::Warm2),
        "cold" => Ok(WatchKind::Cold),
        "indirect" => Ok(WatchKind::Indirect),
        "range" => Ok(WatchKind::Range),
        other => {
            Err(format!("unknown watch {other:?} (expected hot/warm1/warm2/cold/indirect/range)"))
        }
    }
}

fn parse_backend(s: &str) -> Result<BackendKind, String> {
    match s {
        "dise" => Ok(BackendKind::dise_default()),
        "cmp" => Ok(BackendKind::DiseComparators),
        "vm" => Ok(BackendKind::VirtualMemory),
        "hw" => Ok(BackendKind::hw4()),
        "rewrite" => Ok(BackendKind::BinaryRewrite),
        "step" => Ok(BackendKind::SingleStep),
        other => Err(format!("unknown backend {other:?} (expected dise/cmp/vm/hw/rewrite/step)")),
    }
}

/// Parse a job list (the grammar above) into specs.
///
/// # Errors
///
/// Returns a message naming the offending line for: missing required
/// keys, unknown keys/values, duplicate names, unknown kernels, and
/// `after=` references that are not an *earlier* job's name.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    // One template per kernel named in the list, and one scaling of it
    // per distinct `iters=`: jobs share their program's preparation.
    let mut kernels: HashMap<String, Workload> = HashMap::new();
    let mut scaled: HashMap<(String, u32), Workload> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let mut tokens = line.split_whitespace();
        let name = tokens.next().expect("non-empty line has a first token").to_string();
        if name.contains('=') {
            return Err(at(format!("first token {name:?} must be the session name, not a key")));
        }
        if seen.contains_key(&name) {
            return Err(at(format!("duplicate session name {name:?}")));
        }

        let (mut kernel, mut watch, mut backend) = (None, None, None);
        let (mut iters, mut cost, mut after) = (DEFAULT_JOB_ITERS, None, None);
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| at(format!("expected key=value, got {tok:?}")))?;
            match key {
                "kernel" => {
                    if !kernels.contains_key(value) {
                        let t = template(value).ok_or_else(|| {
                            at(format!(
                                "unknown kernel {value:?} \
                                 (expected bzip2/crafty/gcc/mcf/twolf/vortex)"
                            ))
                        })?;
                        kernels.insert(value.to_string(), t);
                    }
                    kernel = Some(value.to_string());
                }
                "watch" => watch = Some(parse_watch(value).map_err(&at)?),
                "backend" => backend = Some(parse_backend(value).map_err(&at)?),
                "iters" => {
                    iters =
                        value.parse().map_err(|e| at(format!("invalid iters {value:?}: {e}")))?;
                }
                "cost" => {
                    cost = Some(
                        value.parse().map_err(|e| at(format!("invalid cost {value:?}: {e}")))?,
                    );
                }
                "after" => {
                    if !seen.contains_key(value) {
                        return Err(at(format!(
                            "after={value:?} must name an earlier job (forward references \
                             are rejected, so dependency cycles cannot be written)"
                        )));
                    }
                    after = Some(value.to_string());
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        let kernel = kernel.ok_or_else(|| at("missing kernel=".into()))?;
        let watch = watch.ok_or_else(|| at("missing watch=".into()))?;
        let backend = backend.ok_or_else(|| at("missing backend=".into()))?;
        seen.insert(name.clone(), jobs.len());
        let workload = scaled
            .entry((kernel.clone(), iters))
            .or_insert_with(|| {
                let w = kernels[&kernel].with_iters(iters);
                // Prepare here, so that no session's `task()` or
                // admission does it; a kernel that failed to assemble
                // would report the error from every session.
                let _ = w.app().prepared();
                w
            })
            .clone();
        jobs.push(JobSpec { name, kernel, iters, watch, backend, cost, after, workload });
    }
    Ok(jobs)
}

impl JobSpec {
    /// The kernel at this job's scale.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The session task this job describes. It builds and assembles
    /// nothing: the kernel was prepared when the list was parsed.
    pub fn task(&self) -> SessionTask {
        let w = &self.workload;
        let cpu = match self.cost {
            Some(c) => CpuConfig { debugger_transition_cost: c, ..CpuConfig::default() },
            None => CpuConfig::default(),
        };
        SessionTask::session(w.app(), vec![w.watchpoint(self.watch)], self.backend, cpu)
    }
}

/// One line summarising a finished session: `done …`, or `error
/// <name>: …` for any [`DebugError`], a panicked poll included.
fn report_line(job: &JobSpec, report: &Result<SessionReport, DebugError>) -> String {
    match report {
        Ok(r) => format!(
            "done {name} kernel={kernel} watch={watch} cycles={cycles} instructions={insns} \
             transitions={user}+{spurious}spurious",
            name = job.name,
            kernel = job.kernel,
            watch = job.watch.label(),
            cycles = r.run.cycles,
            insns = r.run.instructions,
            user = r.transitions.user,
            spurious = r.transitions.spurious_total(),
        ),
        Err(e) => format!("error {name}: {e}", name = job.name),
    }
}

/// Outcome of [`serve`]: the deterministic transcript plus the
/// scheduler's fairness counters for the run.
pub struct ServeOutcome {
    /// Submission-order report: a `=== session_server report ===`
    /// banner, one line per job, and a closing `sessions=N` line.
    /// Byte-identical for every worker count and slice budget.
    pub transcript: String,
    /// Fairness counters ([`Scheduler::stats`]) after the drain. These
    /// *do* vary with the worker count and slice budget (preemptions,
    /// queue waits), which is why they are reported separately from the
    /// deterministic transcript.
    pub stats: SchedStats,
}

/// Run every job on one cooperative scheduler.
///
/// `on_event` receives one report line (`done …` or `error …`) per
/// session *in completion order* as sessions finish (called from worker threads, outside the
/// scheduler lock). The returned [`ServeOutcome::transcript`] holds the
/// same lines re-assembled in submission order.
pub fn serve<F>(jobs: &[JobSpec], workers: usize, slice: u64, on_event: F) -> ServeOutcome
where
    F: Fn(&str) + Sync,
{
    let sched = Scheduler::new(slice);
    let mut ids = Vec::with_capacity(jobs.len());
    let mut id_of: HashMap<&str, usize> = HashMap::new();
    for job in jobs {
        let task = job.task();
        let id = match &job.after {
            Some(dep) => sched.spawn_after(task, id_of[dep.as_str()]),
            None => sched.spawn(task),
        };
        id_of.insert(job.name.as_str(), id);
        ids.push(id);
    }

    let outputs = sched.drain_with(workers, |id, output| {
        let job = &jobs[id];
        let reports = match output {
            dise_debug::TaskOutput::Batch(r) => r,
            other => unreachable!("JobSpec::task spawns batches of one, got {other:?}"),
        };
        let report = match reports {
            Ok(rs) => Ok(rs[0].clone()),
            Err(e) => Err(e.clone()),
        };
        on_event(&report_line(job, &report));
    });

    let mut by_id: HashMap<usize, _> = outputs.into_iter().collect();
    let stats = sched.stats();
    let mut transcript = String::from("=== session_server report ===\n");
    for (job, id) in jobs.iter().zip(&ids) {
        let reports = by_id.remove(id).expect("drain returns every spawned task").into_batch();
        let report = reports.map(|mut rs| rs.pop().expect("a session task is a batch of one"));
        let _ = writeln!(transcript, "{}", report_line(job, &report));
    }
    let _ = writeln!(transcript, "sessions={}", stats.completed);
    ServeOutcome { transcript, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
# two independent sessions and one gated on the first
a kernel=mcf watch=hot backend=dise iters=3
b kernel=gcc watch=cold backend=vm iters=3 cost=1000
c kernel=mcf watch=range backend=cmp iters=3 after=a
";

    #[test]
    fn parses_the_grammar() {
        let jobs = parse_jobs(SMOKE).expect("smoke list parses");
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[1].cost, Some(1000));
        assert_eq!(jobs[2].after.as_deref(), Some("a"));
        assert_eq!(jobs[2].watch, WatchKind::Range);
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        for (list, needle) in [
            ("a kernel=mcf watch=hot\n", "missing backend="),
            ("a kernel=spec watch=hot backend=vm\n", "unknown kernel"),
            ("a kernel=mcf watch=tepid backend=vm\n", "unknown watch"),
            ("a kernel=mcf watch=hot backend=gdb\n", "unknown backend"),
            ("a kernel=mcf watch=hot backend=vm\na kernel=gcc watch=hot backend=vm\n", "duplicate"),
            (
                "a kernel=mcf watch=hot backend=vm after=b\nb kernel=gcc watch=hot backend=vm\n",
                "earlier job",
            ),
            ("kernel=mcf watch=hot backend=vm\n", "session name"),
            ("a kernel=mcf watch=hot backend=vm iters=4O\n", "invalid iters"),
        ] {
            let err = parse_jobs(list).expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
            assert!(err.starts_with("line "), "{err:?} should carry a line number");
        }
    }

    /// A session whose poll panicked is that job's `error` line, not
    /// a lost session.
    #[test]
    fn a_panicked_session_is_an_error_line() {
        let jobs = parse_jobs(SMOKE).expect("smoke list parses");
        let line = report_line(&jobs[0], &Err(DebugError::Panicked("boom".into())));
        assert_eq!(line, "error a: session panicked: boom");
    }

    #[test]
    fn transcript_is_deterministic_and_streams_every_session() {
        let jobs = parse_jobs(SMOKE).expect("smoke list parses");
        let streamed = std::sync::Mutex::new(Vec::new());
        let one = serve(&jobs, 1, 128, |line| streamed.lock().unwrap().push(line.to_string()));
        assert_eq!(streamed.lock().unwrap().len(), jobs.len());
        let four = serve(&jobs, 4, 128, |_| {});
        assert_eq!(one.transcript, four.transcript, "transcript must not depend on workers");
        let unsliced = serve(&jobs, 1, u64::MAX, |_| {});
        assert_eq!(one.transcript, unsliced.transcript, "transcript must not depend on slice");
        assert_eq!(one.stats.completed, jobs.len());
        assert!(one.transcript.contains("done a "));
        assert!(one.transcript.ends_with("sessions=3\n"));
    }
}
