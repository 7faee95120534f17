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
//! `dise_debug::image_loads()` counts every assemble-and-load of a
//! program image and `dise_debug::checkpoint_forks()` every
//! copy-on-write fork off a loaded template — a perturbing group over K
//! engine configurations must pay 1 load + K forks, not K loads.
//!
//! And to the persistent trace store: `dise_debug::trace_records()` /
//! `trace_replays()` count recordings and stored-stream replays — a
//! grid run against a warm trace directory must perform **zero**
//! functional passes and zero image loads, with byte-identical output.
//!
//! Every grid's output is also checked against the cell-by-cell
//! `SessionJob::overhead` reference, computed before the counters are
//! read. This file deliberately holds a single `#[test]`: the counters
//! are process-global, and sibling tests in the same binary would race
//! the deltas.

use dise_bench::{batch_session_jobs, run_overhead_grid, SessionJob, DEFAULT_SLICE};
use dise_cpu::CpuConfig;
use dise_debug::{
    checkpoint_forks, fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped,
    functional_passes, image_loads, trace_records, trace_replays, BackendKind, BaselineCache,
    DiseStrategy, Session,
};
use dise_workloads::{all, transition_cost_sweep, watchpoint_set_sweep, WatchKind};

#[test]
fn grids_execute_once_per_functional_stream_not_once_per_cell() {
    let w = &all(10)[0];
    let wp = vec![w.watchpoint(WatchKind::Warm1)];
    let baselines = BaselineCache::new();
    let reference = |cells: &[SessionJob]| -> Vec<Option<f64>> {
        cells.iter().map(|c| c.overhead(&baselines)).collect()
    };
    let grid = |cells: &[SessionJob]| run_overhead_grid(cells, 1, &baselines, DEFAULT_SLICE, None);

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
    assert_eq!(out[mixed.len() - 1], None, "the unsupported member renders the no-experiment bar");
    assert!(out[..observer_cells.len()].iter().all(Option::is_some));

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
    assert_eq!(out, vec![None], "the no-experiment bar");
    assert_eq!(functional_passes() - before, 0, "nothing observable, nothing executed");

    // The copy-on-write image economy. A perturbing sweep over K = 3
    // DISE engine capacities (x 2 timing configs each) can never share
    // a functional stream — every sub-batch rightly pays its own pass —
    // but it shares its *image*.
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
    let forked = grid(&fork_cells);
    assert_eq!(functional_passes() - p0, 3, "forked: still one honest pass per engine config");
    assert_eq!(image_loads() - l0, 1, "forked: ONE image load for the whole group");
    assert_eq!(checkpoint_forks() - f0, 3, "forked: one copy-on-write fork per sub-batch");
    assert_eq!(forked, expect, "sharing the image must not change a single byte");

    // The persistent-trace economy: the 12-cell observer grid from
    // above, run through a trace store. Cold, the shared pass is
    // recorded as it executes (still exactly one pass, one load, plus
    // one trace record); warm, the grid performs **zero** functional
    // passes and zero image loads — the stream comes from the file —
    // and renders byte-identical output, serial and pooled.
    let expect = reference(&observer_cells);
    let dir = std::env::temp_dir().join(format!("dise-exec-counts-{}", std::process::id()));
    let traced = |workers: usize| {
        run_overhead_grid(&observer_cells, workers, &baselines, DEFAULT_SLICE, Some(&dir))
    };
    let (p0, l0, r0, y0) = (functional_passes(), image_loads(), trace_records(), trace_replays());
    let cold = traced(1);
    assert_eq!(functional_passes() - p0, 1, "cold store: recording is the one honest pass");
    assert_eq!(image_loads() - l0, 1, "cold store: recording loads the image once");
    assert_eq!(trace_records() - r0, 1, "cold store: one trace recorded for the workload");
    assert_eq!(trace_replays() - y0, 0, "cold store: nothing to replay yet");
    assert_eq!(cold, expect, "recording must not change a single byte");

    for workers in [1, 4] {
        let (p0, l0, r0, y0) =
            (functional_passes(), image_loads(), trace_records(), trace_replays());
        let warm = traced(workers);
        assert_eq!(functional_passes() - p0, 0, "warm store: ZERO functional passes");
        assert_eq!(image_loads() - l0, 0, "warm store: ZERO image loads");
        assert_eq!(trace_records() - r0, 0, "warm store: nothing re-recorded");
        assert_eq!(trace_replays() - y0, 1, "warm store: the stored stream replayed once");
        assert_eq!(warm, expect, "replaying must not change a single byte (workers={workers})");
    }
    let _ = std::fs::remove_dir_all(&dir);

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
