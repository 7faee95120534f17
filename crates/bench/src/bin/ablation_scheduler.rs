//! Cooperative-scheduler ablation: spawn a large mixed fleet of debug
//! sessions (default 1000, override with `DISE_SESSIONS`) on one
//! [`Scheduler`] with `DISE_JOBS` workers and `DISE_SLICE`-instruction
//! slices, and report what the multiplexer did — slices granted,
//! preemptions, the worst queue wait any session saw, and the in-flight
//! high-water mark.
//!
//! Honesty about the wall clock: on one core, slicing 1000 sessions
//! cannot finish *sooner* than running them to completion one at a
//! time — the same instructions retire either way, plus preemption
//! bookkeeping. What the scheduler buys is *liveness*, and the counters
//! show how much of it this fleet needs. Its sessions are short: most
//! retire within their first slice, so preemptions are few, and only a
//! handful of sessions are ever started but unfinished at once (the
//! in-flight high-water mark is single digits, not the fleet size).
//! The worst queue wait is the last arrival waiting behind every
//! earlier session — about the fleet size in slices, within the
//! `2 × grants` bound the harness asserts. The wall-clock column is
//! printed so the overhead of slicing is visible, not hidden.
//!
//! A second section serves the same fleet as a closed loop of
//! [`CLIENTS`] clients, each submitting its next session from the
//! completion callback (the shape of perfbench's `session_service`).
//! Arrivals then never pause, so admission-first alone would hold a
//! running session back until the fleet ran out. It prints the worst
//! queue wait and the longest session's spawn-to-completion latency,
//! both in slices, and asserts that no running session was passed over
//! beyond the scheduler's bypass bound ([`MAX_BYPASS`] plus one grant
//! per session in flight).

use std::sync::Mutex;
use std::time::Instant;

use dise_cpu::CpuConfig;
use dise_debug::{BackendKind, Scheduler, SessionTask, TaskOutput, MAX_BYPASS};
use dise_workloads::{all, WatchKind, Workload};

/// Clients in the closed-loop section, each with one session out.
const CLIENTS: usize = 4;

fn main() {
    let sessions: usize = dise_env::env_number("DISE_SESSIONS", 1_000);
    let workers = dise_env::env_number("DISE_JOBS", dise_bench::default_workers());
    let slice = dise_env::env_number("DISE_SLICE", dise_bench::DEFAULT_SLICE);

    // A mixed fleet: six kernels at three scales, cycling through
    // perturbing and observing backends and the paper's watchpoint
    // localities, so long and short sessions share the queue.
    let scales = [3_u32, 10, 30];
    // Each backend paired with watch localities it can implement
    // (indirect/range watchpoints are not statically addressable for
    // VM/registers, and the rewriting experiment covers scalars only).
    let scalar = &WatchKind::ALL[..4];
    let backends: [(BackendKind, &[WatchKind]); 5] = [
        (BackendKind::dise_default(), &WatchKind::ALL),
        (BackendKind::VirtualMemory, scalar),
        (BackendKind::hw4(), scalar),
        (BackendKind::DiseComparators, &WatchKind::ALL),
        (BackendKind::BinaryRewrite, scalar),
    ];
    let workloads: Vec<Vec<Workload>> = scales.iter().map(|&it| all(it)).collect();
    let fleet_session = |i: usize| {
        let w = &workloads[i % scales.len()][(i / scales.len()) % 6];
        let (backend, watches) = backends[i % backends.len()];
        let watch = watches[i % watches.len()];
        SessionTask::session(w.app(), vec![w.watchpoint(watch)], backend, CpuConfig::default())
    };

    println!(
        "Cooperative scheduler ablation: {sessions} sessions, {workers} worker(s), slice {slice}\n"
    );

    let sched = Scheduler::new(slice);
    let t = Instant::now();
    for i in 0..sessions {
        sched.spawn(fleet_session(i));
    }
    let spawn_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let outputs = sched.drain(workers);
    let drain_s = t.elapsed().as_secs_f64();
    let stats = sched.stats();

    let mut instructions = 0_u64;
    let mut errors = 0_usize;
    for (_, out) in &outputs {
        match out {
            TaskOutput::Batch(Ok(reports)) => {
                instructions += reports.iter().map(|r| r.run.instructions).sum::<u64>();
            }
            TaskOutput::Batch(Err(_)) => errors += 1,
            other => unreachable!("fleet spawns batches of one, got {other:?}"),
        }
    }

    println!("{:<26}{:>14}", "sessions completed", stats.completed);
    println!("{:<26}{:>14}", "session errors", errors);
    println!("{:<26}{:>14}", "instructions retired", instructions);
    println!("{:<26}{:>14}", "slices granted", stats.slices_granted);
    println!("{:<26}{:>14}", "preemptions", stats.preemptions);
    println!("{:<26}{:>14}", "max wait (slices)", stats.max_wait_slices);
    println!("{:<26}{:>14}", "in-flight high-water", stats.max_in_flight);
    println!("{:<26}{:>14.1}", "spawn ms (all sessions)", spawn_ms);
    println!("{:<26}{:>14.2}", "drain s", drain_s);

    assert_eq!(stats.completed, sessions, "every spawned session must complete");
    assert_eq!(errors, 0, "the fleet only pairs backends with watch kinds they support");
    assert!(
        stats.max_wait_slices <= 2 * stats.slices_granted.max(1),
        "wait metric is bounded by the run length"
    );
    println!(
        "\nLiveness, not throughput: the sliced drain retires the same {instructions}\n\
         instructions as unsliced runs plus scheduling overhead. Only {} of {} grants\n\
         preempted a session, so most finished within their first slice and at most {}\n\
         were in flight at once. The worst queue wait any session saw was {} slices,\n\
         within the 2 x grants bound.",
        stats.preemptions, stats.slices_granted, stats.max_in_flight, stats.max_wait_slices
    );
    closed_loop(sessions, workers, slice, &fleet_session);
}

/// Serve `sessions` fleet sessions to [`CLIENTS`] closed-loop clients
/// and report the worst wait and the longest latency, in slices.
fn closed_loop(
    sessions: usize,
    workers: usize,
    slice: u64,
    fleet_session: &(dyn Fn(usize) -> SessionTask + Sync),
) {
    println!("\nClosed loop: {CLIENTS} clients, each submitting its next session on completion\n");
    let sched = Scheduler::new(slice);
    // Slices granted when each session was spawned, in spawn order.
    let spawned_at = Mutex::new(Vec::with_capacity(sessions));
    let submit = |spawned_at: &mut Vec<u64>| {
        if spawned_at.len() < sessions {
            let at = sched.stats().slices_granted;
            sched.spawn(fleet_session(spawned_at.len()));
            spawned_at.push(at);
        }
    };
    for _ in 0..CLIENTS {
        submit(&mut spawned_at.lock().expect("spawn log"));
    }
    let longest = Mutex::new((0_u64, 0_usize));
    let t = Instant::now();
    let outputs = sched.drain_with(workers, |id, _| {
        let mut log = spawned_at.lock().expect("spawn log");
        let latency = sched.stats().slices_granted - log[id];
        let mut longest = longest.lock().expect("longest latency");
        *longest = (*longest).max((latency, id));
        submit(&mut log);
    });
    let drain_s = t.elapsed().as_secs_f64();
    let stats = sched.stats();
    let (latency, id) = longest.into_inner().expect("longest latency");

    println!("{:<26}{:>14}", "sessions completed", stats.completed);
    println!("{:<26}{:>14}", "slices granted", stats.slices_granted);
    println!("{:<26}{:>14}", "preemptions", stats.preemptions);
    println!("{:<26}{:>14}", "max wait (slices)", stats.max_wait_slices);
    println!("{:<26}{:>14}", "longest latency (slices)", latency);
    println!("{:<26}{:>14}", "longest latency session", id);
    println!("{:<26}{:>14}", "in-flight high-water", stats.max_in_flight);
    println!("{:<26}{:>14.2}", "drain s", drain_s);

    assert_eq!(outputs.len(), sessions, "every submitted session must complete");
    let bound = MAX_BYPASS + stats.max_in_flight as u64;
    assert!(
        stats.max_wait_slices <= bound,
        "a session waited {} slices, past the bypass bound {bound}",
        stats.max_wait_slices
    );
    println!(
        "\nWith arrivals that never pause, no session waited more than {} slices\n\
         (bound: {MAX_BYPASS} bypasses + {} in flight), and the slowest session\n\
         completed {latency} slices after it was submitted.",
        stats.max_wait_slices, stats.max_in_flight
    );
}
