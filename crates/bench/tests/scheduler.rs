//! The cooperative scheduler's contract with the grid and the server:
//! multiplexing sessions as sliced [`SessionTask`] continuations must
//! be invisible in every output byte, for every worker count and every
//! slice budget — and it must buy the liveness it promises (≥1000
//! sessions concurrently in flight on one core, no session starved
//! beyond the fairness pin, a running session passed over by arrivals
//! at most a bounded number of grants).

use std::sync::Mutex;

use dise_asm::{parse_asm, Layout};
use dise_bench::server::{parse_jobs, serve};
use dise_bench::{run_session_grid, SessionJob, DEFAULT_SLICE};
use dise_cpu::CpuConfig;
use dise_debug::{
    Application, BackendKind, Breakpoint, BreakpointBackend, DebugError, MonitoredRegion,
    Scheduler, Session, SessionReport, SessionTask, TaskOutput, WatchExpr, Watchpoint, MAX_BYPASS,
};
use dise_isa::Width;
use dise_workloads::{all, transition_cost_sweep, WatchKind};

/// A mixed grid: perturbing cells that group into copy-on-write forks
/// (transition-cost sweep per kernel), observing cells that share a
/// pass, and singleton cells — the same shapes the experiments submit.
fn mixed_cells(iters: u32) -> Vec<SessionJob> {
    let mut cells = Vec::new();
    for w in all(iters) {
        for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
            cells.push(SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Hot)],
                BackendKind::dise_default(),
                cpu,
            ));
        }
        for backend in
            [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators]
        {
            cells.push(SessionJob::new(
                w.clone(),
                vec![w.watchpoint(WatchKind::Cold)],
                backend,
                CpuConfig::default(),
            ));
        }
        cells.push(SessionJob::new(
            w.clone(),
            vec![w.watchpoint(WatchKind::Range)],
            BackendKind::dise_default(),
            CpuConfig::default(),
        ));
    }
    cells
}

/// A tiny deterministic PRNG for budget fuzzing (no external deps, no
/// wall-clock seed — failures must reproduce).
fn lcg_budgets(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + (state >> 33) % 4096
        })
        .collect()
}

/// The acceptance bar: the scheduled grid is byte-identical, report
/// for report, to the cell-by-cell reference run without any scheduler
/// ([`SessionJob::report`] per cell), under serial and pooled workers,
/// for random slice budgets, an odd one that forces mid-block yields,
/// the default, and an unbounded one.
#[test]
fn grid_is_identical_with_and_without_the_scheduler() {
    let cells = mixed_cells(5);
    let reference: Vec<Result<SessionReport, DebugError>> =
        cells.iter().map(SessionJob::report).collect();
    let mut budgets = lcg_budgets(0x5EED, 3);
    budgets.extend([777, DEFAULT_SLICE, u64::MAX]);
    for workers in [1, 4] {
        for &slice in &budgets {
            let sched = run_session_grid(&cells, workers, slice);
            assert_eq!(
                reference, sched,
                "scheduler changed the grid (workers={workers}, slice={slice})"
            );
        }
    }
}

/// The headline liveness claim: a thousand-session queue is *all* in
/// flight at once on a single worker — every session admitted and
/// making progress long before the first long one finishes — and the
/// fairness pin holds (no session waits more than 2×fleet slices
/// between grants).
#[test]
fn a_thousand_sessions_are_concurrently_in_flight_on_one_worker() {
    let fleet = 1_100;
    let workloads = all(2);
    let sched = Scheduler::new(64);
    for i in 0..fleet {
        let w = &workloads[i % workloads.len()];
        sched.spawn(SessionTask::session(
            w.app(),
            vec![w.watchpoint(WatchKind::Hot)],
            BackendKind::dise_default(),
            CpuConfig::default(),
        ));
    }
    let outputs = sched.drain(1);
    let stats = sched.stats();
    assert_eq!(outputs.len(), fleet);
    assert_eq!(stats.completed, fleet);
    assert!(
        stats.max_in_flight >= 1_000,
        "expected >=1000 sessions concurrently in flight, saw {}",
        stats.max_in_flight
    );
    assert!(stats.max_wait_slices <= 2 * fleet as u64, "fairness pin violated: {stats:?}");
    for (id, out) in outputs {
        let reports = out.into_batch().unwrap_or_else(|e| panic!("session {id} failed: {e}"));
        assert_eq!(reports.len(), 1, "a session task is a batch of one");
    }
}

/// A watched countdown loop of `iters` turns: at 2, a session that
/// finishes within its first 64-instruction slice.
fn countdown(iters: u32) -> (Application, Watchpoint) {
    let src = format!(
        "start:  la r1, watched
                 lda r4, {iters}(zero)
         loop:   .stmt
                 stq r4, 0(r1)
                 subq r4, 1, r4
                 bgt r4, loop
                 halt
         .data
         watched: .quad 0
        "
    );
    let app = Application::new(parse_asm(&src).expect("countdown parses"), Layout::default());
    let addr = app.program().expect("countdown assembles").symbol("watched").expect("symbol");
    (app, Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q }))
}

/// Continuous arrivals, as perfbench's closed loop makes them: one
/// long session beside a client that submits its next short session
/// from the completion callback, so admissions never pause. Admission
/// runs first, so the running session is passed over up to
/// [`MAX_BYPASS`] grants at a time, and never more than that plus one
/// per yielded task queued ahead of it. Without the bound it waited for
/// every arrival (about 3,000 slices) and finished last.
#[test]
fn continuous_arrivals_cannot_starve_a_running_session() {
    let arrivals = 3_000;
    let (short, short_wp) = countdown(2);
    let (long, long_wp) = countdown(100);
    let session = |app: &Application, wp: &Watchpoint| {
        SessionTask::session(app, vec![*wp], BackendKind::VirtualMemory, CpuConfig::default())
    };
    let sched = Scheduler::new(64);
    let long_id = sched.spawn(session(&long, &long_wp));
    sched.spawn(session(&short, &short_wp));
    let submitted = Mutex::new(1);
    let shorts_before_long = Mutex::new(None);
    sched.drain_with(1, |id, _| {
        let mut n = submitted.lock().unwrap();
        if id == long_id {
            *shorts_before_long.lock().unwrap() = Some(*n);
        }
        if *n < arrivals {
            *n += 1;
            sched.spawn(session(&short, &short_wp));
        }
    });
    let stats = sched.stats();
    assert_eq!(stats.completed, arrivals + 1);
    assert!(stats.preemptions >= 4, "the long session ran in several slices: {stats:?}");
    assert!(
        shorts_before_long.into_inner().unwrap().is_some_and(|n| n < arrivals),
        "the long session must finish while arrivals continue: {stats:?}"
    );
    assert!(
        stats.max_wait_slices >= MAX_BYPASS,
        "admission runs first, up to the bound: {stats:?}"
    );
    assert!(
        stats.max_wait_slices <= MAX_BYPASS + stats.max_in_flight as u64,
        "a running session waited past the bypass bound: {stats:?}"
    );
}

const SERVER_JOBS: &str = include_str!("data/server_smoke.jobs");
const SERVER_GOLDEN: &str = include_str!("data/server_smoke.golden");

/// The server transcript is byte-identical for every worker count and
/// slice budget, matches the committed golden file, streams exactly one
/// line per session, and honours `after=` gating (the dependent's line
/// streams after its dependency's).
#[test]
fn server_transcript_matches_golden_for_any_workers_and_slice() {
    let jobs = parse_jobs(SERVER_JOBS).expect("committed job list parses");
    for workers in [1, 4] {
        for slice in [64, 512, DEFAULT_SLICE] {
            let streamed = std::sync::Mutex::new(Vec::new());
            let outcome = serve(&jobs, workers, slice, |line| {
                streamed.lock().unwrap().push(line.to_string())
            });
            assert_eq!(
                outcome.transcript, SERVER_GOLDEN,
                "transcript diverged from tests/data/server_smoke.golden \
                 (workers={workers}, slice={slice})"
            );
            let streamed = streamed.into_inner().unwrap();
            assert_eq!(streamed.len(), jobs.len(), "one streamed line per session");
            for (dependent, dep) in
                jobs.iter().filter_map(|j| j.after.as_ref().map(|d| (&j.name, d)))
            {
                // `done <name> …` or `error <name>: …`.
                let pos = |name: &str| {
                    streamed
                        .iter()
                        .position(|l| {
                            l.split_whitespace().nth(1).map(|n| n.trim_end_matches(':'))
                                == Some(name)
                        })
                        .unwrap_or_else(|| panic!("no streamed line for {name}"))
                };
                assert!(
                    pos(dep) < pos(dependent),
                    "{dependent} streamed before its dependency {dep}"
                );
            }
        }
    }
}

/// A loop storing into an eight-quad buffer, with an
/// application-resident callback that counts the stores into it.
fn monitored_loop() -> (Application, MonitoredRegion) {
    let app = Application::new(
        parse_asm(
            "start:  la r1, buf
                     lda r3, 40(zero)
             loop:   and r3, 7, r4
                     s8addq r4, r1, r4
                     stq r3, 0(r4)
                     subq r3, 1, r3
                     bgt r3, loop
                     halt
             count:  stq r5, -8(sp)
                     stq r6, -16(sp)
                     la r5, hits
                     ldq r6, 0(r5)
                     addq r6, 1, r6
                     stq r6, 0(r5)
                     ldq r6, -16(sp)
                     ldq r5, -8(sp)
                     d_ret
             .data
             buf:    .space 64
             hits:   .quad 0",
        )
        .unwrap(),
        Layout::default(),
    );
    let prog = app.prepared().unwrap();
    let region = MonitoredRegion {
        base: prog.symbol("buf").unwrap(),
        len: 64,
        callback: prog.symbol("count").unwrap(),
    };
    (app, region)
}

/// Breakpoint and monitor sessions are private passes like any other:
/// spawned on a scheduler at 1, 2 and 4 workers, sliced down to one
/// instruction — which puts a slice boundary between every patched
/// trap and its restored original — each report equals the eager
/// `Session`'s. Admission failures settle the task typed, in batch
/// shape.
#[test]
fn breakpoint_and_monitor_sessions_schedule_and_slice_invisibly() {
    let w = &all(20)[0];
    let prog = w.app().prepared().unwrap();
    let pc = *prog.stmt_pcs().iter().min().unwrap();
    let hot = prog.symbol("hot").unwrap();
    let cond = Breakpoint::conditional(pc, hot, 3);
    let cpu = CpuConfig::default();
    let (mon_app, region) = monitored_loop();

    let reference: Vec<SessionReport> = vec![
        Session::breakpoints(w.app(), vec![cond], BreakpointBackend::TrapPatch, cpu).unwrap().run(),
        Session::breakpoints(w.app(), vec![cond], BreakpointBackend::DiseCodeword, cpu)
            .unwrap()
            .run(),
        Session::monitor(&mon_app, &[region], cpu).unwrap().run(),
    ];
    assert!(reference[0].transitions.user > 0 && reference[0].transitions.spurious_predicate > 0);
    assert_eq!(reference[0].transitions.user, reference[1].transitions.user);
    assert!(reference[2].run.instructions > 40 * 5, "the callback ran");

    let six = (0..6).map(|k| Breakpoint::conditional(pc + 4 * k, hot, 3)).collect::<Vec<_>>();
    for workers in [1, 2, 4] {
        for slice in [1, 97] {
            let sched = Scheduler::new(slice);
            for backend in [BreakpointBackend::TrapPatch, BreakpointBackend::DiseCodeword] {
                sched.spawn(SessionTask::breakpoints(w.app(), vec![cond], backend, cpu));
            }
            sched.spawn(SessionTask::monitor(&mon_app, &[region], cpu));
            sched.spawn(SessionTask::breakpoints(
                w.app(),
                six.clone(),
                BreakpointBackend::DiseCodeword,
                cpu,
            ));
            sched.spawn(SessionTask::breakpoints(
                w.app(),
                vec![Breakpoint::new(hot)],
                BreakpointBackend::TrapPatch,
                cpu,
            ));
            let mut outputs = sched.drain(workers).into_iter().map(|(_, out)| out);
            for (i, want) in reference.iter().enumerate() {
                let got = outputs.next().unwrap().into_batch().unwrap();
                assert_eq!(
                    got,
                    std::slice::from_ref(want),
                    "session {i}, workers={workers}, slice={slice}"
                );
            }
            for what in ["a sixth conditional DISE breakpoint", "no instruction at the PC"] {
                let out = outputs.next().unwrap();
                assert!(
                    matches!(
                        out,
                        TaskOutput::Batch(Err(DebugError::Unsupported {
                            backend: "breakpoint",
                            ..
                        }))
                    ),
                    "{what}: {out:?}"
                );
            }
        }
    }
}
