//! Cross-crate integration tests: whole debugging sessions over the
//! calibrated workloads, checking the invariants the paper's evaluation
//! rests on.
//!
//! The session grid is shared across tests and run once, on the
//! `dise-bench` job-grid worker pool sized to the machine's available
//! parallelism: the DISE column is needed by three tests, so computing
//! it in each would triple the bill for the most expensive cells.

use std::collections::HashMap;
use std::sync::OnceLock;

use dise_bench::{default_workers, run_grid_with};
use dise_repro::cpu::{CpuConfig, RunStats};
use dise_repro::debug::{
    run_baseline, run_session, BackendKind, DebugError, DiseStrategy, Session, SessionReport,
};
use dise_repro::workloads::{all, WatchKind, Workload};

const ITERS: u32 = 120;

fn run(w: &Workload, kind: WatchKind, backend: BackendKind) -> Result<SessionReport, DebugError> {
    run_session(w.app(), vec![w.watchpoint(kind)], backend, CpuConfig::default())
}

/// The kinds every non-DISE backend can implement on these kernels.
const COMMON_KINDS: [WatchKind; 3] = [WatchKind::Warm1, WatchKind::Warm2, WatchKind::Cold];

/// One shared run of the unconditional-watchpoint grid: DISE over all
/// six kinds, virtual memory and hardware registers over the kinds they
/// support, plus per-kernel baselines.
struct SharedGrid {
    workloads: Vec<Workload>,
    baselines: Vec<RunStats>,
    reports: HashMap<(usize, WatchKind, &'static str), SessionReport>,
}

fn shared_grid() -> &'static SharedGrid {
    static GRID: OnceLock<SharedGrid> = OnceLock::new();
    GRID.get_or_init(|| {
        let workloads = all(ITERS);
        let mut cells: Vec<(usize, WatchKind, &'static str, BackendKind)> = Vec::new();
        for (i, _) in workloads.iter().enumerate() {
            for kind in WatchKind::ALL {
                cells.push((i, kind, "dise", BackendKind::dise_default()));
            }
            for kind in COMMON_KINDS {
                cells.push((i, kind, "vm", BackendKind::VirtualMemory));
                cells.push((i, kind, "hw", BackendKind::hw4()));
            }
        }
        let reports = run_grid_with(&cells, default_workers(), |&(i, kind, _, backend)| {
            run(&workloads[i], kind, backend).unwrap()
        });
        let baselines = run_grid_with(&workloads, default_workers(), |w| {
            run_baseline(w.app(), CpuConfig::default()).unwrap()
        });
        SharedGrid {
            baselines,
            reports: cells
                .iter()
                .map(|&(i, kind, label, _)| (i, kind, label))
                .zip(reports)
                .collect(),
            workloads,
        }
    })
}

impl SharedGrid {
    fn report(&self, i: usize, kind: WatchKind, label: &'static str) -> &SessionReport {
        &self.reports[&(i, kind, label)]
    }
}

/// Every backend must report the same *user-visible* debugging events
/// for the same watchpoint — the implementations differ only in
/// overhead. (Single-stepping is excluded: it observes values at
/// statement granularity, so back-to-back changes within one statement
/// coalesce.)
#[test]
fn backends_agree_on_user_transitions() {
    let g = shared_grid();
    for (i, w) in g.workloads.iter().enumerate() {
        for kind in COMMON_KINDS {
            let dise = g.report(i, kind, "dise");
            assert_eq!(dise.error, None);
            let vm = g.report(i, kind, "vm");
            let hw = g.report(i, kind, "hw");
            assert_eq!(
                dise.transitions.user,
                vm.transitions.user,
                "{}/{:?}: DISE vs VM",
                w.name(),
                kind
            );
            assert_eq!(
                dise.transitions.user,
                hw.transitions.user,
                "{}/{:?}: DISE vs HW",
                w.name(),
                kind
            );
        }
    }
}

/// The paper's headline: DISE eliminates *all* spurious transitions,
/// for every workload and every watchpoint kind.
#[test]
fn dise_has_zero_spurious_transitions_everywhere() {
    let g = shared_grid();
    for (i, w) in g.workloads.iter().enumerate() {
        for kind in WatchKind::ALL {
            let r = g.report(i, kind, "dise");
            assert_eq!(r.error, None, "{}/{kind:?}", w.name());
            assert_eq!(
                r.transitions.spurious_total(),
                0,
                "{}/{:?} must not pay for spurious transitions",
                w.name(),
                kind
            );
            assert_eq!(r.run.debugger_stalls, 0, "{}/{kind:?}", w.name());
        }
    }
}

/// "Typically limits debugging overhead to 25% or less for a wide range
/// of watchpoints": check the non-HOT scalar watchpoints stay modest
/// and every DISE run stays within a small constant factor.
#[test]
fn dise_overhead_stays_modest() {
    let g = shared_grid();
    for (i, w) in g.workloads.iter().enumerate() {
        let base = &g.baselines[i];
        for kind in WatchKind::ALL {
            let overhead = g.report(i, kind, "dise").overhead_vs(base);
            assert!(overhead < 8.0, "{}/{:?}: DISE overhead {overhead:.2}", w.name(), kind);
            if matches!(kind, WatchKind::Warm2 | WatchKind::Cold) {
                assert!(
                    overhead < 1.6,
                    "{}/{:?}: cool watchpoints should be near-free, got {overhead:.2}",
                    w.name(),
                    kind
                );
            }
        }
    }
}

/// Spurious transitions translate into cycles: each one costs the
/// configured 100,000-cycle round trip.
#[test]
fn spurious_transitions_are_charged() {
    let w = Workload::vortex(ITERS);
    let base = run_baseline(w.app(), CpuConfig::default()).unwrap();
    let r = run(&w, WatchKind::Hot, BackendKind::hw4()).unwrap();
    // vortex HOT is silent-store heavy: many spurious value transitions.
    assert!(r.transitions.spurious_value > 50, "{:?}", r.transitions);
    let expected_floor = base.cycles + 100_000 * r.transitions.spurious_value;
    assert!(
        r.run.cycles >= expected_floor,
        "cycles {} must include {} stalls",
        r.run.cycles,
        r.transitions.spurious_value
    );
}

/// The DISE engine's capacity limits are respected end-to-end: a
/// 16-watchpoint serial production still fits the paper's 512-entry
/// replacement table.
#[test]
fn sweep_fits_paper_engine_capacity() {
    let w = Workload::gcc(ITERS);
    let counts = [1usize, 4, 16];
    let reports = run_grid_with(&counts, default_workers(), |&n| {
        run_session(
            w.app(),
            w.sweep_watchpoints(n),
            BackendKind::dise_default(),
            CpuConfig::default(),
        )
        .unwrap()
    });
    for (n, r) in counts.iter().zip(reports) {
        assert_eq!(r.error, None, "n={n}");
    }
}

/// Conditional watchpoints: the predicate never holds, so *no* backend
/// reports a user transition; DISE reports no transitions at all.
#[test]
fn conditional_predicates_never_reach_user() {
    let workloads = all(ITERS);
    let backends = [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::dise_default()];
    let mut cells = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        for backend in backends {
            cells.push((i, w.conditional_watchpoint(WatchKind::Warm1), backend));
        }
    }
    let reports = run_grid_with(&cells, default_workers(), |(i, wp, backend)| {
        run_session(workloads[*i].app(), vec![*wp], *backend, CpuConfig::default()).unwrap()
    });
    for ((i, _, backend), r) in cells.iter().zip(&reports) {
        assert_eq!(r.transitions.user, 0, "{}/{backend:?}", workloads[*i].name());
        // The DISE cell doubles as the stronger zero-transitions check —
        // no need to re-run it.
        if *backend == BackendKind::dise_default() {
            assert_eq!(r.transitions.total(), 0, "{}", workloads[*i].name());
        }
    }
}

/// Debugged runs must not corrupt the application: the final value of
/// every watched variable (and of the kernel's busiest array cell)
/// matches the undebugged run, under every backend — no "heisenbugs".
#[test]
fn debugging_preserves_application_semantics() {
    let workloads = all(ITERS);
    let probes = ["hot", "warm1", "warm2", "cold"];
    let expected = run_grid_with(&workloads, default_workers(), |w| {
        let prog = w.app().program().unwrap();
        let mut m = dise_repro::cpu::Machine::from_program(&prog);
        m.run();
        probes.map(|s| m.exec.mem().read_u(prog.symbol(s).unwrap(), 8))
    });

    let backends = [
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy::bloom(false)),
        BackendKind::Dise(DiseStrategy { protect_debugger: true, ..Default::default() }),
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
    ];
    let mut cells = Vec::new();
    for (i, _) in workloads.iter().enumerate() {
        for backend in backends {
            cells.push((i, backend));
        }
    }
    let finals = run_grid_with(&cells, default_workers(), |&(i, backend)| {
        let w = &workloads[i];
        let prog = w.app().program().unwrap();
        let session = Session::new(w.app(), vec![w.watchpoint(WatchKind::Hot)], backend).unwrap();
        let (report, exec) = session.run_with_state();
        (report.error, probes.map(|s| exec.mem().read_u(prog.symbol(s).unwrap(), 8)))
    });
    for (&(i, backend), (error, values)) in cells.iter().zip(&finals) {
        let w = &workloads[i];
        assert_eq!(*error, None, "{}/{backend:?}", w.name());
        for (probe, (got, want)) in probes.iter().zip(values.iter().zip(&expected[i])) {
            assert_eq!(got, want, "{}/{backend:?}: debugged run perturbed `{probe}`", w.name());
        }
    }
}
