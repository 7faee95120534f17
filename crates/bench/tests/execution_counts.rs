//! The acceptance bar for observer batching, argued the only way that
//! is meaningful on a single-core CI container: **execution-count
//! assertions**, not timings. `dise_debug::functional_passes()` counts
//! every driven functional pass; a grid over one workload must pay one
//! pass per *functional stream* — one shared pass for **all watchpoint
//! sets × observing backends × timing configs** of that workload, one
//! private replay per perturbing (backend, watchpoints, engine) stream
//! — not one per cell.
//!
//! The same bar extends to the copy-on-write image economy:
//! `dise_debug::image_loads()` counts every machine instantiated by
//! restoring a program image — a perturbing group over K engine
//! configurations builds its backend and image once and pays K loads,
//! one per machine — and `dise_debug::checkpoint_forks()` stays 0,
//! because no machine is forked off a template any more.
//!
//! And to the persistent trace store: `dise_debug::trace_records()` /
//! `trace_replays()` count recordings and stored-stream replays — an
//! observer group replayed from its stored trace must perform **zero**
//! functional passes and zero image loads, with byte-identical output.
//!
//! Every grid's output is also checked against the cell-by-cell
//! `SessionJob::report` reference, computed before the counters are
//! read. This file deliberately holds a single `#[test]`: the counters
//! are process-global, and sibling tests in the same binary would race
//! the deltas.

use dise_bench::{batch_session_jobs, run_session_grid, SessionJob, DEFAULT_SLICE};
use dise_cpu::CpuConfig;
use dise_debug::{
    checkpoint_forks, fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped,
    functional_passes, image_loads, trace_records, trace_replays, BackendKind, DebugError,
    DiseStrategy, Scheduler, Session, SessionReport, SessionTask,
};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind};

#[test]
fn grids_execute_once_per_functional_stream_not_once_per_cell() {
    let w = &all(10)[0];
    let wp = vec![w.watchpoint(WatchKind::Warm1)];
    let reference = |cells: &[SessionJob]| -> Vec<Result<SessionReport, DebugError>> {
        cells.iter().map(SessionJob::report).collect()
    };
    let grid = |cells: &[SessionJob]| run_session_grid(cells, 1, DEFAULT_SLICE);

    // One scenario, the paper's four standard backends plus the
    // pure-observation DISE comparators, three transition costs:
    // 15 cells.
    let mut cells = Vec::new();
    for (_, cpu) in transition_cost_sweep(CpuConfig::default()) {
        for backend in [
            BackendKind::SingleStep,
            BackendKind::VirtualMemory,
            BackendKind::hw4(),
            BackendKind::dise_default(),
            BackendKind::DiseComparators,
        ] {
            cells.push(SessionJob::new(w.clone(), wp.clone(), backend, cpu));
        }
    }
    assert_eq!(cells.len(), 15);

    // VM, HW and the DISE comparators share a single pass of the
    // unmodified application across all three backends and all three
    // timing configs; single-stepping and production-injecting DISE
    // each keep one private replay. 15 cells, 3 functional executions —
    // the comparator column is literally free.
    let expect = reference(&cells);
    let before = functional_passes();
    let batched = grid(&cells);
    assert_eq!(
        functional_passes() - before,
        3,
        "batched: one observer pass (VM+HW+Cmp x 3 costs) + two private replays"
    );
    assert_eq!(batched, expect, "sharing passes must not change a single byte");

    // The watchpoint axis. Three watchpoint *sets* x two observing
    // backends x two timing configs = 12 cells over one workload.
    // Per-(workload, watchpoints) batching would pay one pass per set —
    // 3; the per-workload batch pays exactly 1.
    let sets = watchpoint_set_sweep(w);
    assert_eq!(sets.len(), 3);
    let costs: Vec<CpuConfig> =
        transition_cost_sweep(CpuConfig::default()).into_iter().take(2).map(|(_, c)| c).collect();
    let mut observer_cells = Vec::new();
    for (_, wps) in &sets {
        for backend in [BackendKind::VirtualMemory, BackendKind::DiseComparators] {
            for cpu in &costs {
                observer_cells.push(SessionJob::new(w.clone(), wps.clone(), backend, *cpu));
            }
        }
    }
    assert_eq!(observer_cells.len(), 12);
    let expect = reference(&observer_cells);
    let before = functional_passes();
    let (fc0, fs0, fk0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
    let batched = grid(&observer_cells);
    assert_eq!(
        functional_passes() - before,
        1,
        "batched: ONE pass per workload across watchpoint sets x backends x timing"
    );
    assert_eq!(batched, expect, "the watchpoint axis must not change a single byte");

    // The chunked fan-out conservation bar: every (member, chunk) pair
    // is skipped wholesale or scanned record-by-record — never both,
    // never neither. The shared pass carries 6 members (3 watchpoint
    // sets x 2 observing backends; timing configs ride *inside* a
    // member's TimingBatch and do not multiply the fan-out).
    let (fc, fs, fk) =
        (fanout_chunks() - fc0, fanout_chunks_scanned() - fs0, fanout_chunks_skipped() - fk0);
    assert!(fc > 0, "the shared observer pass must be chunked");
    assert_eq!(fs + fk, 6 * fc, "skipped + scanned == members x chunks");

    // Solo member: the invariant in its literal per-member form,
    // `skipped + scanned == chunks`.
    let solo =
        [SessionJob::new(w.clone(), wp.clone(), BackendKind::VirtualMemory, CpuConfig::default())];
    let (fc0, fs0, fk0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
    grid(&solo);
    assert_eq!(
        (fanout_chunks_scanned() - fs0) + (fanout_chunks_skipped() - fk0),
        fanout_chunks() - fc0,
        "solo member: skipped + scanned == chunks"
    );

    // Perturbing cells are unchanged by the watchpoint axis: adding a
    // DISE cell per watchpoint set costs exactly one private replay per
    // set on top of the single observer pass (12 + 3 cells -> 1 + 3
    // passes), and an unsupported observing cell (RANGE under hardware
    // registers, in set 3) joins the group without costing anything.
    let mut mixed = observer_cells.clone();
    for (_, wps) in &sets {
        mixed.push(SessionJob::new(
            w.clone(),
            wps.clone(),
            BackendKind::dise_default(),
            CpuConfig::default(),
        ));
    }
    mixed.push(SessionJob::new(
        w.clone(),
        sets[2].1.clone(), // RANGE: hardware registers decline it
        BackendKind::hw4(),
        CpuConfig::default(),
    ));
    let before = functional_passes();
    let out = grid(&mixed);
    assert_eq!(
        functional_passes() - before,
        1 + sets.len() as u64,
        "one observer pass + one private DISE replay per watchpoint set"
    );
    assert!(
        matches!(out[mixed.len() - 1], Err(DebugError::Unsupported { .. })),
        "the unsupported member settles as the no-experiment bar"
    );
    assert!(out[..observer_cells.len()].iter().all(Result::is_ok));

    // The fig8 shape: two DISE cells differing only in the
    // multithreading timing knob still collapse to one pass.
    let mt = BackendKind::Dise(DiseStrategy { multithreaded_calls: true, ..Default::default() });
    let pair = [
        SessionJob::new(w.clone(), wp.clone(), BackendKind::dise_default(), CpuConfig::default()),
        SessionJob::new(w.clone(), wp.clone(), mt, CpuConfig::default()),
    ];
    let before = functional_passes();
    grid(&pair);
    assert_eq!(functional_passes() - before, 1, "timing-only DISE pair shares one pass");

    // An unsupported observer member (INDIRECT under virtual memory)
    // must not charge a pass when no member survives.
    let lone = [SessionJob::new(
        w.clone(),
        vec![w.watchpoint(WatchKind::Indirect)],
        BackendKind::VirtualMemory,
        CpuConfig::default(),
    )];
    let before = functional_passes();
    let out = grid(&lone);
    assert!(matches!(out[..], [Err(DebugError::Unsupported { .. })]), "the no-experiment bar");
    assert_eq!(functional_passes() - before, 0, "nothing observable, nothing executed");

    // The copy-on-write image economy. A perturbing sweep over K = 3
    // DISE engine capacities (x 2 timing configs each) can never share
    // a functional stream — every sub-batch rightly pays its own pass —
    // but it shares its backend build and its *image*: each sub-batch's
    // machine is one copy-on-write restore of it.
    let engines = [(32usize, 256usize), (16, 128), (8, 64)].map(|(p, r)| CpuConfig {
        engine: dise_engine::EngineConfig { pattern_entries: p, replacement_entries: r },
        ..CpuConfig::default()
    });
    let mut fork_cells = Vec::new();
    for engine_cpu in engines {
        for (_, cpu) in transition_cost_sweep(engine_cpu).into_iter().take(2) {
            fork_cells.push(SessionJob::new(
                w.clone(),
                wp.clone(),
                BackendKind::dise_default(),
                cpu,
            ));
        }
    }
    assert_eq!(fork_cells.len(), 6);
    assert_eq!(batch_session_jobs(&fork_cells).len(), 1, "one group, one shared image");
    let expect = reference(&fork_cells);
    let (p0, l0, f0) = (functional_passes(), image_loads(), checkpoint_forks());
    let grouped = grid(&fork_cells);
    assert_eq!(functional_passes() - p0, 3, "grouped: still one honest pass per engine config");
    assert_eq!(image_loads() - l0, 3, "grouped: one image load per machine");
    assert_eq!(checkpoint_forks() - f0, 0, "grouped: no machine is forked");
    assert_eq!(grouped, expect, "sharing the image must not change a single byte");

    // A group of one sub-batch — every `paper_grid` group is one — costs
    // exactly what the batch it equals costs: one load, one pass, no
    // fork.
    let cpus = [CpuConfig::default()];
    let app = w.app();
    for backend in [BackendKind::VirtualMemory, BackendKind::dise_default()] {
        let (p0, l0, f0) = (functional_passes(), image_loads(), checkpoint_forks());
        let batch =
            SessionTask::batch(app, wp.clone(), backend, &cpus).run_to_completion().into_batch();
        let batch_cost = (functional_passes() - p0, image_loads() - l0, checkpoint_forks() - f0);
        let (p0, l0, f0) = (functional_passes(), image_loads(), checkpoint_forks());
        let group = SessionTask::perturbing_group(app, wp.clone(), backend, &[cpus.to_vec()])
            .run_to_completion()
            .into_group();
        let group_cost = (functional_passes() - p0, image_loads() - l0, checkpoint_forks() - f0);
        assert_eq!(group_cost, (1, 1, 0), "{backend:?}: one pass, one load, no fork");
        assert_eq!(batch_cost, group_cost, "{backend:?}: a batch is a group of one");
        assert_eq!(group, Ok(vec![batch]), "{backend:?}: and reports the same");
    }

    // The persistent-trace economy, on the 12-cell observer group from
    // above. Recording its shared pass is still exactly one pass and one
    // load, plus one trace record; replaying the stored stream performs
    // **zero** functional passes and zero image loads — the stream comes
    // from the file. Both report exactly what the live group does,
    // serial and pooled.
    let groups = batch_session_jobs(&observer_cells);
    let [group] = &groups[..] else {
        panic!("the 12 observer cells form one observer group");
    };
    let members =
        || group.slots.iter().map(|s| (s.backend, s.watchpoints.clone(), s.cpus.clone())).collect();
    let drain = |task: SessionTask, workers: usize| {
        let scheduler = Scheduler::new(DEFAULT_SLICE);
        scheduler.spawn(task);
        let mut outputs = scheduler.drain(workers);
        assert_eq!(outputs.len(), 1, "one task spawned, one output");
        outputs.pop().expect("one output").1.into_observe()
    };
    let live = drain(group.task(), 1);
    let path = std::env::temp_dir().join(format!("dise-exec-counts-{}.dtrc", std::process::id()));
    let (p0, l0, r0, y0) = (functional_passes(), image_loads(), trace_records(), trace_replays());
    let cold = drain(SessionTask::observer_recorded(w.app(), members(), &path), 1);
    assert_eq!(functional_passes() - p0, 1, "recording: the one honest pass");
    assert_eq!(image_loads() - l0, 1, "recording: the image is loaded once");
    assert_eq!(trace_records() - r0, 1, "recording: one trace recorded for the group");
    assert_eq!(trace_replays() - y0, 0, "recording: nothing replayed");
    assert_eq!(cold, live, "recording must not change a single byte");

    for workers in [1, 4] {
        let (p0, l0, r0, y0) =
            (functional_passes(), image_loads(), trace_records(), trace_replays());
        let warm = drain(SessionTask::observer_replay(w.app(), members(), &path), workers);
        assert_eq!(functional_passes() - p0, 0, "replay: ZERO functional passes");
        assert_eq!(image_loads() - l0, 0, "replay: ZERO image loads");
        assert_eq!(trace_records() - r0, 0, "replay: nothing re-recorded");
        assert_eq!(trace_replays() - y0, 1, "replay: the stored stream replayed once");
        assert_eq!(warm, live, "replaying must not change a single byte (workers={workers})");
    }
    let _ = std::fs::remove_file(&path);

    // An interactive `Session` counts its one pass when first driven,
    // not when built: one built only to inspect is free, and driving it
    // in many budgets is still one pass.
    let before = functional_passes();
    let idle = Session::new(w.app(), wp.clone(), BackendKind::dise_default()).expect("admits");
    assert!(!idle.executor().is_halted());
    drop(idle);
    assert_eq!(functional_passes() - before, 0, "a session never driven executes nothing");
    let mut driven =
        Session::new(w.app(), wp.clone(), BackendKind::dise_default()).expect("admits");
    while driven.run_budget(5_000) {}
    assert_eq!(functional_passes() - before, 1, "a session driven in budgets is one pass");
}
