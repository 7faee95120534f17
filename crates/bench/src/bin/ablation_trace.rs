//! Persistent-trace ablation: what recording a kernel's functional
//! `Exec` stream costs, how hard the delta + run-length codec squeezes
//! it, how fast a stored stream replays, and what the record-once /
//! replay-forever economy saves an observer grid in functional passes.
//! Replays are byte-identical to live runs (the conformance and
//! determinism suites prove that); this harness shows the ratios,
//! throughputs and counters, honestly — the compression column is the
//! codec's doing, the pass-economy columns are the grid's.

use std::time::Instant;

use dise_asm::{parse_asm, Layout};
use dise_cpu::{replay_timing, CpuConfig, TraceReader};
use dise_debug::{
    functional_passes, record_session, run_baseline, trace_records, trace_replays, Application,
    BackendKind, SessionTask,
};
use dise_workloads::{all, transition_cost_sweep, WatchKind};

/// A unique scratch directory per invocation: the ablation must measure
/// a cold record, not whatever a previous run left in a shared store.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dise-trace-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch trace dir");
    dir
}

fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 2_000);
    let dir = scratch_dir();

    // 1. The acceptance kernel: a tight store loop, the best case for
    //    the run-length layer — after the first iteration every record
    //    is predicted by the last one seen at its (pc, disepc) slot, so
    //    whole laps collapse into run tokens.
    let tight = Application::new(
        parse_asm(
            "        la      r1, hot
                     lda     r4, 2000(zero)
             loop:   stq     r4, 0(r1)
                     subq    r4, 1, r4
                     bgt     r4, loop
                     halt
             .data
             hot:    .quad 0",
        )
        .expect("tight loop parses"),
        Layout::default(),
    );
    let path = dir.join("tight_loop.dtrc");
    let stats = record_session(&tight, &path).expect("tight loop records");
    println!("Persistent trace ablation ({iters}-iteration kernels)\n");
    println!(
        "tight loop: {} records, {} raw B -> {} file B ({:.1}x compression)",
        stats.records,
        stats.raw_bytes,
        stats.file_bytes,
        stats.compression()
    );
    assert!(
        stats.compression() >= 10.0,
        "the acceptance bar: >=10x on the tight loop, got {:.1}x",
        stats.compression()
    );

    // 2. Per-kernel codec economics and throughput: record each
    //    calibrated kernel once, then replay the stored stream through
    //    a timing model and check it against the live baseline.
    println!(
        "\n{:<14}{:>10}{:>10}{:>9}{:>8}{:>12}{:>12}",
        "kernel", "records", "file B", "B/rec", "ratio", "rec Mrec/s", "rep Mrec/s"
    );
    for w in &all(iters) {
        let path = dir.join(format!("{}.dtrc", w.name()));
        let t = Instant::now();
        let stats = record_session(w.app(), &path).expect("kernel records");
        let record_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut reader = TraceReader::open(&path, None).expect("fresh trace opens");
        let replayed = replay_timing(&mut reader, &[CpuConfig::default()])
            .expect("fresh trace replays")
            .remove(0);
        let replay_secs = t.elapsed().as_secs_f64();
        let live = run_baseline(w.app(), CpuConfig::default()).expect("kernel runs");
        assert_eq!(replayed, live, "{}: replayed timing must match the live machine", w.name());

        #[allow(clippy::cast_precision_loss)]
        let (records, file_bytes) = (stats.records as f64, stats.file_bytes as f64);
        println!(
            "{:<14}{:>10}{:>10}{:>9.2}{:>8.1}{:>12.2}{:>12.2}",
            w.name(),
            stats.records,
            stats.file_bytes,
            file_bytes / records,
            stats.compression(),
            records / record_secs / 1e6,
            records / replay_secs / 1e6,
        );
    }

    // 3. The pass economy: one observer group (3 watchpoint sets x 2
    //    observing backends x 3 timing configs) run cold (recording)
    //    and warm (replaying). The warm run performs zero functional
    //    passes; the reports are identical.
    let w = &all(iters)[0];
    let sets = [
        vec![w.watchpoint(WatchKind::Hot)],
        vec![w.watchpoint(WatchKind::Warm1)],
        vec![w.watchpoint(WatchKind::Cold)],
    ];
    let cpus: Vec<CpuConfig> =
        transition_cost_sweep(CpuConfig::default()).into_iter().map(|(_, c)| c).collect();
    let mut specs = Vec::new();
    for set in &sets {
        for backend in [BackendKind::VirtualMemory, BackendKind::hw4()] {
            specs.push((backend, set.clone(), cpus.clone()));
        }
    }
    let members = specs.len();
    let path = dir.join(format!("observer-{}.dtrc", w.name()));

    let (p0, r0) = (functional_passes(), trace_records());
    let t = Instant::now();
    let cold = SessionTask::observer_recorded(w.app(), specs.clone(), &path)
        .run_to_completion()
        .into_observe()
        .expect("cold observer batch runs");
    let cold_secs = t.elapsed().as_secs_f64();
    let (cold_passes, cold_records) = (functional_passes() - p0, trace_records() - r0);

    let (p0, r0) = (functional_passes(), trace_replays());
    let t = Instant::now();
    let warm = SessionTask::observer_replay(w.app(), specs, &path)
        .run_to_completion()
        .into_observe()
        .expect("warm observer batch replays");
    let warm_secs = t.elapsed().as_secs_f64();
    let (warm_passes, warm_replays) = (functional_passes() - p0, trace_replays() - r0);

    assert_eq!(cold, warm, "{}: warm replay must be byte-identical to the cold run", w.name());
    assert_eq!(warm_passes, 0, "a warm grid performs zero functional passes");
    println!(
        "\nObserver-batch economy on {} ({} members x {} timing configs):",
        w.name(),
        members,
        cpus.len()
    );
    println!("{:<14}{:>10}{:>8}{:>9}{:>9}", "shape", "seconds", "passes", "records", "replays");
    println!(
        "{:<14}{:>10.3}{:>8}{:>9}{:>9}",
        "cold (record)", cold_secs, cold_passes, cold_records, 0
    );
    println!(
        "{:<14}{:>10.3}{:>8}{:>9}{:>9}",
        "warm (replay)", warm_secs, warm_passes, 0, warm_replays
    );

    println!(
        "\nThe passes column is the tentpole: a warm store serves every \
         watchpoint set, observing backend and timing configuration from \
         one stored stream without executing the application at all — the \
         record-once pass is the last functional pass that kernel ever \
         needs. The ratio column is the codec: straight-line re-execution \
         collapses into run tokens, so file size tracks the kernel's \
         *control structure*, not its dynamic instruction count."
    );

    let _ = std::fs::remove_dir_all(&dir);
}
