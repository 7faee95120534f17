//! Loud-rejection tests for the persistent trace store: a stored
//! `Exec` stream that is stale, corrupt, truncated, or the wrong
//! format version must fail **before** any member observes a single
//! record — each failure class with its own [`TraceError`] variant, so
//! callers (and error messages) can tell "re-record, the kernel
//! changed" from "the file is damaged" from "wrong tool version".
//!
//! Every test damages a freshly recorded, provably good trace — the
//! happy path is asserted first, so a failure here is the rejection
//! logic, never the recording.
//!
//! Timing from a stored trace is exact: an undebugged replay reports
//! the undebugged baseline run under every configuration.
//!
//! Failures that surface only mid-run — a CRC-clean trace whose bytes
//! do not decode, a recording that cannot be published — settle the
//! task with the same typed error, on one worker or two, without a
//! panic, a hang, or harm to the task running beside it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dise_asm::{parse_asm, Layout};
use dise_cpu::{program_fingerprint, CpuConfig, Executor, RunStats, TraceWriter};
use dise_debug::{
    run_baseline, Application, BackendKind, DebugError, Scheduler, SessionReport, SessionTask,
    Step, TaskOutput, TraceError, WatchExpr, Watchpoint,
};
use dise_isa::Width;

type Members = Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>;

/// Run an observer batch entirely from the stored trace at `path`.
fn replay(
    a: &Application,
    members: Members,
    path: &Path,
) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
    SessionTask::observer_replay(a, members, path).run_to_completion().into_observe()
}

/// Unique scratch path per test (tests share one process and may run
/// concurrently).
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dise-store-{name}-{}-{}.dtrc",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn app(iters: u32) -> Application {
    Application::new(
        parse_asm(&format!(
            "        la      r1, x
                     lda     r4, {iters}(zero)
             loop:   stq     r4, 0(r1)
                     subq    r4, 1, r4
                     bgt     r4, loop
                     halt
             .data
             x:      .quad 0"
        ))
        .expect("kernel parses"),
        Layout::default(),
    )
}

fn watch(app: &Application) -> Vec<Watchpoint> {
    let x = app.program().expect("assembles").symbol("x").expect("x exists");
    vec![Watchpoint::new(WatchExpr::Scalar { addr: x, width: Width::Q })]
}

/// Record a known-good trace and prove it replays before any test
/// damages it.
fn good_trace(name: &str, a: &Application) -> PathBuf {
    let path = scratch(name);
    // One undebugged member: the pass runs, and records, unwatched.
    let undebugged = vec![(BackendKind::VirtualMemory, vec![], vec![])];
    SessionTask::observer_recorded(a, undebugged, &path)
        .run_to_completion()
        .into_observe()
        .expect("recording succeeds");
    let members = vec![(BackendKind::VirtualMemory, watch(a), vec![CpuConfig::default()])];
    let replayed = replay(a, members, &path).expect("pristine trace replays");
    assert!(replayed[0].is_ok(), "pristine replay runs clean");
    path
}

fn replay_err(a: &Application, path: &Path) -> DebugError {
    let members = vec![(BackendKind::VirtualMemory, watch(a), vec![CpuConfig::default()])];
    replay(a, members, path).expect_err("damaged trace must be rejected")
}

/// An undebugged replay — one member that watches nothing — times the
/// stored stream exactly as the live machine does: under the default
/// and a cheap configuration, it reports the baseline run under each.
#[test]
fn undebugged_replay_times_exactly_as_the_baseline() {
    let a = app(2_000);
    let path = good_trace("timing", &a);
    let cheap = CpuConfig { debugger_transition_cost: 5, ..CpuConfig::default() };
    let cpus = vec![CpuConfig::default(), cheap];
    let undebugged = vec![(BackendKind::VirtualMemory, vec![], cpus.clone())];
    let mut replayed = replay(&a, undebugged, &path).expect("the trace replays");
    let reports = replayed.remove(0).expect("the undebugged member runs");
    let runs: Vec<RunStats> = reports.into_iter().map(|r| r.run).collect();
    let baselines: Vec<RunStats> =
        cpus.iter().map(|&c| run_baseline(&a, c).expect("the kernel runs")).collect();
    assert_eq!(runs, baselines, "timing from trace must be exact");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_trace_is_rejected_as_truncated() {
    let a = app(50);
    let path = good_trace("truncated", &a);
    let bytes = std::fs::read(&path).expect("trace readable");
    // Cut mid-stream: the end chunk (and with it the declared record
    // count) is gone, which is exactly what a crashed writer would
    // leave if staging did not already prevent publishing it.
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::Truncated { .. })),
        "a cut-off file is truncation, not generic corruption"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_payload_byte_is_rejected_by_crc() {
    let a = app(50);
    let path = good_trace("crc", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    // Flip one byte inside the first data chunk's payload: header is
    // 20 bytes, chunk header 9, so offset 40 is well inside the
    // payload for any non-trivial kernel.
    bytes[40] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::CorruptChunk { .. })),
        "a flipped bit must be caught by the chunk CRC"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_format_version_is_rejected_as_version() {
    let a = app(50);
    let path = good_trace("version", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    // The version field is the u32 after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(
            replay_err(&a, &path),
            DebugError::Trace(TraceError::BadVersion { found: 99, .. })
        ),
        "a future format version is rejected by name, not misread"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mangled_magic_is_rejected_as_not_a_trace() {
    let a = app(50);
    let path = good_trace("magic", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::BadMagic { .. })),
        "a file that is not a trace at all gets its own rejection"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_trace_for_an_edited_kernel_is_rejected_by_fingerprint() {
    // Record the 50-iteration kernel, then "edit" it to 60 iterations:
    // same symbols, same shape, different program — the trace is stale
    // and must be rejected before any member replays a wrong stream.
    let recorded = app(50);
    let edited = app(60);
    let path = good_trace("stale", &recorded);
    assert!(
        matches!(
            replay_err(&edited, &path),
            DebugError::Trace(TraceError::FingerprintMismatch { .. })
        ),
        "an edited kernel must never silently replay its old trace"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejection_happens_before_any_member_runs() {
    // The error is scenario-wide (outer Err), not smeared across
    // members: nobody gets half a replay.
    let a = app(50);
    let path = good_trace("outer", &a);
    let bytes = std::fs::read(&path).expect("trace readable");
    std::fs::write(&path, &bytes[..30]).expect("rewrite");
    let members = vec![
        (BackendKind::VirtualMemory, watch(&a), vec![CpuConfig::default()]),
        (BackendKind::hw4(), watch(&a), vec![CpuConfig::default()]),
    ];
    let err = replay(&a, members, &path).expect_err("rejected for every member at once");
    assert!(matches!(err, DebugError::Trace(_)), "outer error carries the trace failure: {err}");
    let _ = std::fs::remove_file(&path);
}

/// Drain `tasks` on a fresh scheduler with `workers` workers, failing
/// (rather than hanging the suite) if the drain does not return.
fn drain_or_hang(tasks: Vec<SessionTask>, workers: usize) -> Vec<TaskOutput> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let sched = Scheduler::new(64);
        for t in tasks {
            sched.spawn(t);
        }
        let outs = sched.drain(workers);
        let _ = tx.send(outs.into_iter().map(|(_, out)| out).collect::<Vec<_>>());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("Scheduler::drain({workers}) hung or its worker panicked"))
}

fn healthy(a: &Application) -> SessionTask {
    SessionTask::observer(
        a,
        vec![(BackendKind::VirtualMemory, watch(a), vec![CpuConfig::default()])],
    )
}

/// A CRC-clean trace whose first store record claims a 3-byte access —
/// a width the encoder never writes, written through the public
/// recorder.
fn width_three_trace(a: &Application) -> PathBuf {
    let prog = a.program().expect("assembles");
    let path = scratch("width3");
    let mut writer = TraceWriter::create(&path, program_fingerprint(&prog)).expect("create");
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut edited = false;
    while !exec.is_halted() {
        let mut e = exec.step();
        if let Some(m) = e.mem.as_mut().filter(|m| m.is_store && !edited) {
            m.width = 3;
            edited = true;
        }
        writer.record(&e);
    }
    assert!(edited, "the kernel stores");
    writer.finish().expect("the edited trace is sealed");
    path
}

#[test]
fn undecodable_record_settles_typed_beside_a_healthy_task() {
    let a = app(50);
    let path = width_three_trace(&a);
    let want = healthy(&a).run_to_completion().into_observe();
    for workers in [1, 2] {
        let members = vec![(BackendKind::VirtualMemory, watch(&a), vec![CpuConfig::default()])];
        let bad = SessionTask::observer_replay(&a, members, &path);
        let mut outs = drain_or_hang(vec![healthy(&a), bad], workers);
        let err = outs.pop().unwrap().into_observe().expect_err("width 3 never replays");
        assert!(
            matches!(&err, DebugError::Trace(TraceError::Malformed { reason, .. })
                if reason.contains("width 3")),
            "{workers} worker(s): {err}"
        );
        assert_eq!(outs.pop().unwrap().into_observe(), want, "{workers} worker(s): healthy task");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_publish_settles_typed_and_publishes_nothing() {
    let a = app(50);
    let want = healthy(&a).run_to_completion().into_observe();
    for workers in [1, 2] {
        let dir = scratch("gone-dir");
        std::fs::create_dir_all(&dir).expect("trace dir");
        let path = dir.join("kernel.dtrc");
        let members = vec![(BackendKind::VirtualMemory, watch(&a), vec![CpuConfig::default()])];
        let mut task = SessionTask::observer_recorded(&a, members, &path);
        // Admit (which opens the staged file) and run a little, then
        // pull the directory out from under the recording.
        assert!(matches!(task.poll(16), Step::Yielded(_)), "the recording is under way");
        std::fs::remove_dir_all(&dir).expect("remove trace dir");
        let mut outs = drain_or_hang(vec![healthy(&a), task], workers);
        let err = outs.pop().unwrap().into_observe().expect_err("nothing can be published");
        assert!(
            matches!(err, DebugError::Trace(TraceError::Io { .. })),
            "{workers} worker(s): {err}"
        );
        assert!(!path.exists() && !dir.exists(), "{workers} worker(s): nothing published");
        assert_eq!(outs.pop().unwrap().into_observe(), want, "{workers} worker(s): healthy task");
    }
}
