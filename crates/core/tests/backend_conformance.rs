//! Cross-backend differential conformance suite.
//!
//! The paper's entire evaluation rests on one premise: the five
//! watchpoint implementations are *semantically interchangeable* — they
//! report the same user-visible debugging events and differ only in
//! overhead. This suite pits all applicable backends against each other
//! (and against an omniscient per-store oracle) on randomized
//! scenarios, and is the safety net for observer batching: a perturbing
//! backend silently reusing a shared functional pass — or the chunked
//! fan-out skipping a record its detector would have classified —
//! would corrupt every table the repo produces.
//!
//! Invariants checked per scenario:
//!
//! * every applicable per-store backend reports **exactly its
//!   granularity family's oracle count**: byte-accurate backends
//!   (virtual memory, hardware registers incl. the page-trap hybrid,
//!   the pure-observation DISE comparators, inline-evaluating
//!   DISE) match the omniscient per-store oracle, while base-address
//!   matchers (serial and Bloom match-address DISE, binary rewriting)
//!   match a stateful model of the paper's handler — which keys on the
//!   store's *base* quad and therefore, by design, misses stores that
//!   straddle into a watched quad from below (and can then trap a
//!   later silent store against its stale previous-value cell);
//! * no backend perturbs architectural state: final slot bytes and
//!   final watched-expression values equal the oracle's for every
//!   backend, single-stepping included;
//! * virtual memory and hardware registers agree on spurious value and
//!   predicate transitions (they classify the same watched stores), and
//!   the DISE comparators agree with virtual memory on both while
//!   reporting **zero spurious address** transitions (byte-exact
//!   bounds); production-injecting DISE reports no spurious transitions
//!   at all;
//! * statement single-stepping, which coalesces changes at statement
//!   boundaries, never reports *more* user transitions than the oracle;
//! * [`ObserverBatch`] results — one functional pass per workload
//!   fanned across **watchpoint sets × observing backends × timing
//!   configs** (every member carries its own set and detector) — equal
//!   each member's private `run_session` **bit for bit** (cycles,
//!   transitions, text bytes), and a member's `Unsupported` error
//!   matches its standalone error. Both run the same detector; the
//!   private session feeds it record by record from its own machine,
//!   the batch through the chunked fan-out, which skips every chunk
//!   the member's filter proves it would not classify;
//! * the persistent trace layer: a recorded trace reads back the live
//!   `Exec` stream **record for record**, and the same batch run
//!   entirely from the stored trace ([`SessionTask::observer_replay`],
//!   zero functional passes) equals the live batch bit for bit.
//!
//! Scenarios come from `dise_workloads::synthetic` — store scripts
//! spanning quad-aligned quads, single bytes, straddling longwords and
//! quads straddling into a watched quad from below, so the
//! base-address-vs-byte-granularity split is *exercised*, not carved
//! out — each carrying a *second* watchpoint set for the multi-set
//! observer batch, and shrink to minimal counterexamples via the
//! vendored proptest's shrinker — which now shrinks through
//! `prop_map`/`prop_oneof!` too.

use dise_asm::{parse_asm, Layout};
use dise_cpu::{CpuConfig, Executor, TraceReader};
use dise_debug::{
    run_session, Application, BackendKind, CheckKind, DebugError, DiseStrategy, ObserverBatch,
    Scheduler, Session, SessionReport, SessionTask, WatchExpr, WatchState, WatchValue, Watchpoint,
};
use dise_isa::Width;
use dise_mem::Memory;
use dise_workloads::synthetic::{scenario_sets, StoreOp, WatchSpec, SLOTS};
use dise_workloads::WatchKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A unique trace path per call: proptest cases run concurrently across
/// test threads, and a shared path would interleave recordings.
fn scratch_trace_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dise-conformance-{}-{}.dtrc",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn any_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0u8..SLOTS).prop_map(|slot| StoreOp::Counter { slot }),
        (0u8..SLOTS, 0u8..8).prop_map(|(slot, k)| StoreOp::Constant { slot, k }),
        (0u8..SLOTS).prop_map(|slot| StoreOp::Zero { slot }),
        (0u8..SLOTS).prop_map(|slot| StoreOp::Scratch { slot }),
        (0u8..SLOTS, 0u8..8, any::<u8>()).prop_map(|(slot, off, k)| StoreOp::Byte { slot, off, k }),
        (0u8..SLOTS - 1, 0u8..8).prop_map(|(slot, off)| StoreOp::Long { slot, off }),
        (1u8..SLOTS, 1u8..8).prop_map(|(slot, back)| StoreOp::StraddleBelow { slot, back }),
    ]
}

/// Watchpoint sets: up to three scalars (optionally conditional, with
/// small predicate constants so counter values collide with them) on
/// slots 0..3, plus at most one range *or* one indirect on slots 3..8 —
/// watched byte sets are pairwise disjoint, and the DISE serial
/// matcher's constant-register budget is never exceeded, so a declined
/// backend is always a *taxonomy* fact, not a resource accident.
fn any_specs() -> impl Strategy<Value = Vec<WatchSpec>> {
    (
        prop::collection::vec(any::<(bool, bool, u8)>(), 3..4),
        0u8..3, // 0: scalars only, 1: + range, 2: indirect first
        (3u8..SLOTS, 1u8..48),
        3u8..SLOTS,
    )
        .prop_map(|(scalars, tail, (first, len), islot)| {
            let mut specs = Vec::new();
            if tail == 2 {
                // DISE's serial matcher requires the indirect watchpoint
                // first (it owns the `dar` register).
                specs.push(WatchSpec::Indirect { slot: islot });
            }
            for (slot, &(present, conditional, k)) in scalars.iter().enumerate() {
                if present {
                    let slot = slot as u8;
                    if conditional {
                        specs.push(WatchSpec::Conditional { slot, k: k % 6 });
                    } else {
                        specs.push(WatchSpec::Scalar { slot });
                    }
                }
            }
            if tail == 1 {
                specs.push(WatchSpec::Range { first, len });
            }
            if specs.is_empty() {
                specs.push(WatchSpec::Scalar { slot: 0 });
            }
            specs
        })
}

/// What an omniscient debugger would report: replay the unmodified
/// application and re-evaluate every watched expression after each
/// store (`user`), alongside what the paper's base-address-matching
/// handler would report (`dise_user`) — the two counts diverge exactly
/// when a store's *base* quad and its written bytes disagree about
/// watched coverage.
struct Oracle {
    user: u64,
    dise_user: u64,
    final_slots: Vec<u8>,
    final_values: Vec<WatchValue>,
}

/// Per-watchpoint state of the DISE match-address handler model: a
/// faithful, memory-level simulation of the generated handler in
/// `backend/dise.rs` (previous-value cells, the indirect target cell,
/// full-quad range shadows with boundary masks). The Bloom filters are
/// deliberately absent — they only gate *handler invocation* and are a
/// superset of the handler's own gates, so user events depend on the
/// handler alone.
enum DiseCell {
    Scalar { addr: u64, width: u64, cond: Option<u64>, prev: u64 },
    Indirect { ptr: u64, width: u64, target: u64, prev: u64 },
    Range { lo: u64, len: u64, shadow: Vec<u64> },
}

fn dise_cells(wps: &[Watchpoint], mem: &Memory) -> Vec<DiseCell> {
    wps.iter()
        .map(|w| match w.expr {
            WatchExpr::Scalar { addr, width } => DiseCell::Scalar {
                addr,
                width: width.bytes(),
                cond: w.condition.map(|c| c.equals),
                prev: mem.read_u(addr, width.bytes()),
            },
            WatchExpr::Indirect { ptr, width } => {
                let target = mem.read_u(ptr, 8);
                DiseCell::Indirect {
                    ptr,
                    width: width.bytes(),
                    target,
                    prev: mem.read_u(target, width.bytes()),
                }
            }
            WatchExpr::Range { base, len } => {
                let lo_quad = base & !7;
                let hi_quad = (base + len + 7) & !7;
                DiseCell::Range {
                    lo: base,
                    len,
                    shadow: (lo_quad..hi_quad).step_by(8).map(|q| mem.read_u(q, 8)).collect(),
                }
            }
        })
        .collect()
}

/// One store through the handler model. Returns true when the handler
/// traps (a user transition). The first watchpoint whose gate passes
/// consumes the store — trap or not — exactly as every gate-passing
/// path in the generated handler branches to `__done`.
fn dise_store(cells: &mut [DiseCell], mem: &Memory, raw: u64) -> bool {
    let rq = raw & !7;
    for cell in cells {
        match cell {
            DiseCell::Scalar { addr, width, cond, prev } => {
                if rq != *addr & !7 {
                    continue;
                }
                let cur = mem.read_u(*addr, *width);
                if cur == *prev {
                    return false; // silent: consumed without a trap
                }
                *prev = cur;
                return cond.is_none_or(|k| cur == k);
            }
            DiseCell::Indirect { ptr, width, target, prev } => {
                if rq == *ptr & !7 {
                    // The pointer cell itself was written: the handler
                    // re-dereferences, retargets and silently adopts
                    // the new target's value as the reference.
                    *target = mem.read_u(*ptr, 8);
                    *prev = mem.read_u(*target, *width);
                    return false;
                }
                if rq != *target & !7 {
                    continue;
                }
                let cur = mem.read_u(*target, *width);
                if cur == *prev {
                    return false;
                }
                *prev = cur;
                return true;
            }
            DiseCell::Range { lo, len, shadow } => {
                // The gate is the *raw base* in [lo, lo+len): a store
                // straddling in from below never reaches the shadows.
                if raw < *lo || raw >= *lo + *len {
                    continue;
                }
                let first_quad = *lo & !7;
                let end = *lo + *len;
                let last_quad = (end - 1) & !7;
                let lo_pad = *lo % 8;
                let hi_pad = last_quad + 8 - end;
                let mut tripped = false;
                let mut q = rq;
                // The store's base quad, then its successor when the
                // store can spill into it and it is still watched.
                for _ in 0..2 {
                    if q > last_quad {
                        break;
                    }
                    let cur = mem.read_u(q, 8);
                    let idx = ((q - first_quad) / 8) as usize;
                    let mut diff = cur ^ shadow[idx];
                    if q == first_quad && lo_pad > 0 {
                        diff &= u64::MAX << (8 * lo_pad);
                    }
                    if q == last_quad && hi_pad > 0 {
                        diff &= u64::MAX >> (8 * hi_pad);
                    }
                    if diff != 0 {
                        // The handler stores the full unmasked quad.
                        shadow[idx] = cur;
                        tripped = true;
                    }
                    q += 8;
                }
                return tripped;
            }
        }
    }
    false
}

fn oracle(app: &Application, wps: &[Watchpoint]) -> Oracle {
    let prog = app.program().expect("scenario assembles");
    let slots = prog.symbol("slots").expect("slots exists");
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut watch = WatchState::new(wps, exec.mem());
    let mut cells = dise_cells(wps, exec.mem());
    let mut user = 0u64;
    let mut dise_user = 0u64;
    while !exec.is_halted() {
        let e = exec.step();
        if let Some(m) = e.mem.filter(|m| m.is_store) {
            if dise_store(&mut cells, exec.mem(), m.addr) {
                dise_user += 1;
            }
            let (changed, pred_ok) = watch.reevaluate(exec.mem());
            if changed && pred_ok {
                user += 1;
            }
        }
    }
    Oracle {
        user,
        dise_user,
        final_slots: exec.mem().read_bytes(slots, 8 * SLOTS as usize),
        final_values: wps.iter().map(|w| w.expr.evaluate(exec.mem())).collect(),
    }
}

/// Make `specs_b` compatible with the primary set's single pointer
/// cell: every indirect spec across both sets must target the same
/// slot, so set B's indirects are retargeted to set A's (or dropped
/// when A has none). An emptied set falls back to one scalar.
fn compatible_second_set(specs: &[WatchSpec], specs_b: &[WatchSpec]) -> Vec<WatchSpec> {
    let a_indirect = specs.iter().find_map(|s| match s {
        WatchSpec::Indirect { slot } => Some(slot % SLOTS),
        _ => None,
    });
    let mut out: Vec<WatchSpec> = specs_b
        .iter()
        .filter_map(|s| match (s, a_indirect) {
            (WatchSpec::Indirect { .. }, Some(slot)) => Some(WatchSpec::Indirect { slot }),
            (WatchSpec::Indirect { .. }, None) => None,
            (other, _) => Some(*other),
        })
        .collect();
    // One pointer cell, one `dar`: keep at most the first indirect,
    // and keep it first (DISE's serial-matcher rule, mirrored here so
    // the set stays valid for any backend).
    if let Some(pos) = out.iter().position(|s| matches!(s, WatchSpec::Indirect { .. })) {
        let ind = out.remove(pos);
        out.retain(|s| !matches!(s, WatchSpec::Indirect { .. }));
        out.insert(0, ind);
    }
    if out.is_empty() {
        out.push(WatchSpec::Scalar { slot: 1 });
    }
    out
}

#[allow(clippy::too_many_lines)]
fn check_scenario(
    iters: u8,
    ops: &[StoreOp],
    specs: &[WatchSpec],
    specs_b: &[WatchSpec],
    heavy: bool,
) -> Result<(), TestCaseError> {
    let specs_b = compatible_second_set(specs, specs_b);
    let (app, mut sets) = scenario_sets(iters, ops, &[specs.to_vec(), specs_b]);
    let wps_b = sets.pop().expect("second set");
    let wps = sets.pop().expect("first set");
    let slots = app.program().expect("assembles").symbol("slots").expect("slots exists");
    let orc = oracle(&app, &wps);
    let cpu = CpuConfig::default();

    let has_indirect = wps.iter().any(|w| matches!(w.expr, WatchExpr::Indirect { .. }));
    let has_range = wps.iter().any(|w| matches!(w.expr, WatchExpr::Range { .. }));
    let single_unconditional_scalar =
        matches!(wps[..], [Watchpoint { expr: WatchExpr::Scalar { .. }, condition: None }]);
    let single_scalar = wps.len() == 1 && matches!(wps[0].expr, WatchExpr::Scalar { .. });

    let mut backends: Vec<BackendKind> = vec![
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::dise_default(),
        BackendKind::DiseComparators,
    ];
    if single_unconditional_scalar {
        backends.push(BackendKind::BinaryRewrite);
    }
    if heavy {
        // A register-starved hybrid: overflow falls back to page
        // traps, which must classify identically.
        backends.push(BackendKind::HardwareRegisters { registers: 1 });
        if !has_indirect {
            backends.push(BackendKind::Dise(DiseStrategy::bloom(false)));
            backends.push(BackendKind::Dise(DiseStrategy::bloom(true)));
        }
        if single_scalar {
            backends.push(BackendKind::Dise(DiseStrategy::evaluate_inline(true)));
            backends.push(BackendKind::Dise(DiseStrategy::evaluate_inline(false)));
        }
    }

    // ---- Per-store backends vs the oracle -----------------------------
    let mut per_store: Vec<(BackendKind, SessionReport, Executor)> = Vec::new();
    for backend in backends {
        match Session::with_config(&app, wps.clone(), backend, cpu) {
            Ok(s) => {
                let (report, exec) = s.run_with_state();
                prop_assert_eq!(report.error, None, "{:?} must run clean", backend);
                per_store.push((backend, report, exec));
            }
            Err(DebugError::Unsupported { .. }) => {
                let legitimately = match backend {
                    BackendKind::VirtualMemory => has_indirect,
                    BackendKind::HardwareRegisters { .. } => has_indirect || has_range,
                    BackendKind::Dise(s) => {
                        has_indirect && !matches!(s.multi_match, dise_debug::MultiMatch::Serial)
                    }
                    _ => false,
                };
                prop_assert!(legitimately, "{:?} unexpectedly declined the watchpoints", backend);
            }
            Err(e) => prop_assert!(false, "{:?} failed setup: {}", backend, e),
        }
    }
    prop_assert!(!per_store.is_empty(), "at least DISE serial must support every scenario");

    for (backend, report, exec) in &per_store {
        // The granularity split: serial/Bloom match-address DISE and
        // binary rewriting gate on the store's *base* quad (the
        // paper's replacement sequences match the store's address, not
        // its footprint), so they answer to the handler model; every
        // other per-store backend traps on byte overlap and answers to
        // the omniscient oracle. Inline-evaluating DISE re-evaluates
        // the watched value on every store, so it is byte-accurate
        // despite being production-injecting.
        let base_address_matcher = match backend {
            BackendKind::Dise(s) => s.check == CheckKind::MatchAddressCall,
            BackendKind::BinaryRewrite => true,
            _ => false,
        };
        let family_user = if base_address_matcher { orc.dise_user } else { orc.user };
        prop_assert_eq!(
            report.transitions.user,
            family_user,
            "{:?} disagrees with its granularity family's oracle on user transitions",
            backend
        );
        if let BackendKind::Dise(_) = backend {
            prop_assert_eq!(
                report.transitions.spurious_total(),
                0,
                "{:?} must eliminate spurious transitions",
                backend
            );
        }
        if *backend == BackendKind::DiseComparators {
            prop_assert_eq!(
                report.transitions.spurious_address,
                0,
                "byte-exact comparators cannot trap a store that missed every watched byte"
            );
        }
        prop_assert_eq!(
            exec.mem().read_bytes(slots, 8 * SLOTS as usize),
            orc.final_slots.clone(),
            "{:?} perturbed architectural state",
            backend
        );
        for (i, w) in wps.iter().enumerate() {
            prop_assert_eq!(
                w.expr.evaluate(exec.mem()),
                orc.final_values[i].clone(),
                "{:?} left watchpoint {} at a different value",
                backend,
                i
            );
        }
    }

    // ---- VM vs HW vs comparator spurious classification --------------
    let find = |kind: BackendKind| per_store.iter().find(|(b, ..)| *b == kind);
    if let (Some((_, vm, _)), Some((_, hw, _))) =
        (find(BackendKind::VirtualMemory), find(BackendKind::hw4()))
    {
        prop_assert_eq!(
            vm.transitions.spurious_value,
            hw.transitions.spurious_value,
            "silent stores to watched quads look the same from a page or a comparator"
        );
        prop_assert_eq!(vm.transitions.spurious_predicate, hw.transitions.spurious_predicate);
        prop_assert_eq!(
            hw.transitions.spurious_address,
            0,
            "scalar watches cover every byte of their comparator quads, so any store \
             whose footprint reaches a comparator quad — sub-quad and straddling \
             stores included — wrote a watched byte"
        );
    }
    if let (Some((_, vm, _)), Some((_, cmp, _))) =
        (find(BackendKind::VirtualMemory), find(BackendKind::DiseComparators))
    {
        // The comparators trap exactly the watched-byte writes the page
        // filter also sees, so the value/predicate split is identical;
        // only the page filter's extra same-page traps (spurious
        // address) differ.
        prop_assert_eq!(vm.transitions.spurious_value, cmp.transitions.spurious_value);
        prop_assert_eq!(vm.transitions.spurious_predicate, cmp.transitions.spurious_predicate);
    }

    // ---- Statement single-stepping (coalescing) ----------------------
    let ss = Session::with_config(&app, wps.clone(), BackendKind::SingleStep, cpu)
        .expect("scenarios carry statement markers");
    let (ss_report, ss_exec) = ss.run_with_state();
    prop_assert_eq!(ss_report.error, None);
    prop_assert!(
        ss_report.transitions.user <= orc.user,
        "boundary coalescing can only merge or delay user events ({} > {})",
        ss_report.transitions.user,
        orc.user
    );
    prop_assert_eq!(
        ss_exec.mem().read_bytes(slots, 8 * SLOTS as usize),
        orc.final_slots.clone(),
        "single-stepping perturbed architectural state"
    );

    // ---- Observer batch == private replay, bit for bit ----------------
    // One functional pass per *workload*: members mix watchpoint sets
    // (the scenario's primary set and an independently generated second
    // set) with backends and timing configs, each member carrying its
    // own detector and value bookkeeping.
    let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
    let cpus = vec![cpu, cheap];
    let observing = [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators];
    let mut members: Vec<(BackendKind, &Vec<Watchpoint>)> =
        vec![(observing[0], &wps), (observing[1], &wps), (observing[2], &wps_b)];
    if heavy {
        members.push((observing[0], &wps_b));
        members.push((observing[1], &wps_b));
        members.push((observing[2], &wps));
    }
    let mut batch = ObserverBatch::new(&app);
    for (b, set) in &members {
        batch.member(*b, (*set).clone(), cpus.clone());
    }
    let results = match batch.run() {
        Ok(results) => results,
        Err(e) => return Err(TestCaseError::fail(format!("observer batch setup failed: {e}"))),
    };

    // ---- Persistent trace == live stream == live batch, bit for bit ---
    // Record the scenario once, then (a) read the stored stream back
    // against a live machine record for record, and (b) run the whole
    // observer batch from the file — zero functional passes — and
    // demand the exact results the live batch produced.
    let trace = scratch_trace_path();
    let undebugged = vec![(BackendKind::VirtualMemory, vec![], vec![])];
    SessionTask::observer_recorded(&app, undebugged, &trace)
        .run_to_completion()
        .into_observe()
        .map_err(|e| TestCaseError::fail(format!("recording: {e}")))?;
    let mut reader = TraceReader::open(&trace, None)
        .map_err(|e| TestCaseError::fail(format!("fresh trace rejected: {e}")))?;
    let prog = app.program().expect("assembles");
    let mut live = Executor::from_program(&prog, cpu);
    let mut position = 0u64;
    while !live.is_halted() {
        let want = live.step();
        let got = reader
            .next()
            .map_err(|e| TestCaseError::fail(format!("trace died at record {position}: {e}")))?;
        prop_assert_eq!(got, Some(want), "stored stream diverged at record {}", position);
        position += 1;
    }
    let trailing =
        reader.next().map_err(|e| TestCaseError::fail(format!("trace end rejected: {e}")))?;
    prop_assert_eq!(trailing, None, "stored stream outlived the live machine");

    let specs = members.iter().map(|(b, set)| (*b, (*set).clone(), cpus.clone())).collect();
    let replayed = SessionTask::observer_replay(&app, specs, &trace)
        .run_to_completion()
        .into_observe()
        .map_err(|e| TestCaseError::fail(format!("trace replay rejected: {e}")))?;
    prop_assert_eq!(
        &replayed,
        &results,
        "a batch replayed from the stored trace must equal the live batch bit for bit"
    );
    let _ = std::fs::remove_file(&trace);

    for ((backend, set), result) in members.into_iter().zip(results) {
        match result {
            Ok(reports) => {
                prop_assert_eq!(reports.len(), cpus.len());
                for (c, got) in cpus.iter().zip(reports) {
                    let lone = run_session(&app, set.clone(), backend, *c)
                        .expect("member ran batched, must run alone");
                    prop_assert_eq!(got.run, lone.run, "{:?}/{:?} cycles diverged", backend, set);
                    prop_assert_eq!(&got.transitions, &lone.transitions, "{:?}", backend);
                    prop_assert_eq!(got.error, lone.error, "{:?}", backend);
                    prop_assert_eq!(got.text_bytes, lone.text_bytes, "{:?}", backend);
                }
            }
            Err(DebugError::Unsupported { .. }) => {
                prop_assert!(
                    matches!(
                        run_session(&app, set.clone(), backend, cpu),
                        Err(DebugError::Unsupported { .. })
                    ),
                    "{:?}: batched Unsupported must match the standalone error",
                    backend
                );
            }
            Err(e) => prop_assert!(false, "{:?} member failed: {}", backend, e),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The always-on slice: two dozen randomized scenarios through the
    /// standard backend set.
    #[test]
    fn backends_agree_on_randomized_scenarios(
        iters in 1u8..6,
        ops in prop::collection::vec(any_store_op(), 1..6),
        specs in any_specs(),
        specs_b in any_specs(),
    ) {
        check_scenario(iters, &ops, &specs, &specs_b, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The CI-scale sweep: more cases, plus the Bloom and inline DISE
    /// organisations and a register-starved hardware hybrid.
    #[test]
    #[ignore = "hundreds of sessions (~1 min dev profile); CI runs it with --include-ignored"]
    fn backends_agree_on_many_randomized_scenarios(
        iters in 1u8..8,
        ops in prop::collection::vec(any_store_op(), 1..8),
        specs in any_specs(),
        specs_b in any_specs(),
    ) {
        check_scenario(iters, &ops, &specs, &specs_b, true)?;
    }
}

/// Fixed regression scenarios, independent of the random stream: the
/// shapes most likely to diverge (predicate collisions with the
/// counter, a range with unwatched tail bytes, a moving-value indirect,
/// silent-store pruning), each with a deliberately different second
/// watchpoint set for the multi-set observer batch.
#[test]
fn pinned_scenarios_conform() {
    type Case = (u8, &'static [StoreOp], &'static [WatchSpec], &'static [WatchSpec]);
    let cases: &[Case] = &[
        // Conditional whose constant collides with some counter values;
        // the second set watches the other store as a plain scalar.
        (
            5,
            &[StoreOp::Counter { slot: 0 }, StoreOp::Constant { slot: 1, k: 3 }],
            &[WatchSpec::Conditional { slot: 0, k: 3 }, WatchSpec::Scalar { slot: 1 }],
            &[WatchSpec::Scalar { slot: 0 }],
        ),
        // Range with a 5-byte unwatched tail in its last quad; second
        // set watches a disjoint slot that never changes.
        (
            4,
            &[
                StoreOp::Counter { slot: 4 },
                StoreOp::Counter { slot: 6 },
                StoreOp::Zero { slot: 5 },
            ],
            &[WatchSpec::Range { first: 4, len: 19 }],
            &[WatchSpec::Scalar { slot: 0 }],
        ),
        // Indirect (DISE, comparators and single-stepping) over a
        // counter slot; the second set aims the comparators at the same
        // moving value through the same pointer cell.
        (
            6,
            &[StoreOp::Counter { slot: 5 }, StoreOp::Constant { slot: 0, k: 9 }],
            &[WatchSpec::Indirect { slot: 5 }],
            &[WatchSpec::Indirect { slot: 5 }, WatchSpec::Scalar { slot: 0 }],
        ),
        // Silent stores: constants rewriting their own value; the
        // second set overlaps the first (shared slot 3).
        (
            6,
            &[StoreOp::Constant { slot: 2, k: 7 }, StoreOp::Zero { slot: 3 }],
            &[WatchSpec::Scalar { slot: 2 }, WatchSpec::Scalar { slot: 3 }],
            &[WatchSpec::Scalar { slot: 3 }],
        ),
        // True negatives: off-page scratch traffic around a watched slot
        // must produce no transition anywhere — not even through the
        // page filter; the second set watches a range the scratch
        // stores must not disturb either.
        (
            5,
            &[
                StoreOp::Scratch { slot: 0 },
                StoreOp::Counter { slot: 1 },
                StoreOp::Scratch { slot: 7 },
            ],
            &[WatchSpec::Scalar { slot: 1 }],
            &[WatchSpec::Range { first: 0, len: 17 }],
        ),
        // Sub-quad stores that never straddle: a byte store's base quad
        // is its only quad, so both granularity families agree; the
        // repeated byte is silent after the first iteration.
        (
            4,
            &[
                StoreOp::Byte { slot: 1, off: 3, k: 5 },
                StoreOp::Byte { slot: 1, off: 3, k: 5 },
                StoreOp::Counter { slot: 0 },
            ],
            &[WatchSpec::Scalar { slot: 1 }, WatchSpec::Conditional { slot: 0, k: 2 }],
            &[WatchSpec::Range { first: 1, len: 4 }],
        ),
        // Straddles against a range: the longword starts inside the
        // range (gate passes, both quads checked and clipped); the
        // quad starting below the range reaches watched bytes that
        // only byte-accurate backends may report.
        (
            5,
            &[
                StoreOp::Counter { slot: 4 },
                StoreOp::Long { slot: 4, off: 6 },
                StoreOp::StraddleBelow { slot: 4, back: 3 },
            ],
            &[WatchSpec::Range { first: 4, len: 19 }],
            &[WatchSpec::Scalar { slot: 4 }],
        ),
        // A straddle into an indirectly watched quad: the pointer's
        // target quad is hit from below, so the serial matcher's `dar`
        // never fires while byte-accurate backends see the bytes move.
        (
            4,
            &[StoreOp::Counter { slot: 5 }, StoreOp::StraddleBelow { slot: 5, back: 4 }],
            &[WatchSpec::Indirect { slot: 5 }],
            &[WatchSpec::Scalar { slot: 5 }],
        ),
    ];
    for (i, (iters, ops, specs, specs_b)) in cases.iter().enumerate() {
        check_scenario(*iters, ops, specs, specs_b, true)
            .unwrap_or_else(|e| panic!("case {i}: {e}"));
    }
}

/// The comparator file holds 16 bound-register pairs: a 17-scalar set
/// must be rejected **loudly** at setup — by the live session and by a
/// batch member alike — naming the spill point, and an over-capacity
/// batch member must not cost its at-capacity siblings the shared
/// functional pass.
#[test]
fn comparator_capacity_overflow_is_loud_and_member_isolated() {
    let ops = [StoreOp::Counter { slot: 0 }];
    let specs17: Vec<WatchSpec> = (0..17).map(|i| WatchSpec::Scalar { slot: i % SLOTS }).collect();
    let specs16: Vec<WatchSpec> = (0..16).map(|i| WatchSpec::Scalar { slot: i % SLOTS }).collect();
    let (app, mut sets) = scenario_sets(3, &ops, &[specs17, specs16]);
    let wps16 = sets.pop().expect("second set");
    let wps17 = sets.pop().expect("first set");
    let cpu = CpuConfig::default();

    let err = Session::with_config(&app, wps17.clone(), BackendKind::DiseComparators, cpu)
        .map(|_| ())
        .unwrap_err();
    match err {
        DebugError::Unsupported { backend, reason } => {
            assert_eq!(backend, "dise-comparators");
            assert!(
                reason.contains("17 bound-register pairs needed, 16 available"),
                "the error must name the spill point: {reason}"
            );
        }
        e => panic!("expected Unsupported, got {e}"),
    }

    let report =
        run_session(&app, wps16.clone(), BackendKind::DiseComparators, cpu).expect("at capacity");
    assert_eq!(report.error, None, "16 pairs fill the file exactly and run clean");

    let mut batch = ObserverBatch::new(&app);
    batch.member(BackendKind::DiseComparators, wps17, vec![cpu]);
    batch.member(BackendKind::DiseComparators, wps16, vec![cpu]);
    let mut results = batch.run().expect("batch setup survives a member-level decline");
    let at_capacity = results.pop().expect("two members in, two results out");
    let over_capacity = results.pop().expect("two members in, two results out");
    assert!(
        matches!(over_capacity, Err(DebugError::Unsupported { .. })),
        "the 17-pair member declines exactly as it does standalone"
    );
    let reports = at_capacity.expect("the sibling keeps the shared pass");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].error, None);
}

/// The pinned divergence: a quad store whose base sits below a watched
/// quad's boundary changes watched bytes that base-address matching
/// cannot see. Byte-accurate backends report every change; the handler
/// model traps once and then goes stale (the straddle resets the slot
/// behind its previous-value cell's back, so the next full-quad store
/// looks silent). `check_scenario` proves every live backend matches
/// its family's count; the direct oracle assertions pin the counts —
/// and the divergence — themselves.
#[test]
fn straddling_stores_split_the_granularity_families() {
    let ops = [StoreOp::Constant { slot: 4, k: 9 }, StoreOp::StraddleBelow { slot: 4, back: 3 }];
    let specs = [WatchSpec::Scalar { slot: 4 }];
    check_scenario(3, &ops, &specs, &[WatchSpec::Scalar { slot: 0 }], true)
        .unwrap_or_else(|e| panic!("{e}"));

    let (app, mut sets) = scenario_sets(3, &ops, &[specs.to_vec()]);
    let wps = sets.pop().expect("one set");
    let orc = oracle(&app, &wps);
    assert_eq!(orc.user, 6, "byte-accurate: 0→9 and 9→0 every iteration");
    assert_eq!(
        orc.dise_user, 1,
        "base-address matching sees only the first 0→9; the straddle is invisible and \
         leaves the previous-value cell stale at 9, silencing later constant stores"
    );
}

/// A quad watched at `u64::MAX - 3` spans the top page and page 0, and
/// the store `lda r3,-4(zero); stq r2,0(r3)` writes exactly it. Every
/// observing backend must report the change, privately and in a shared
/// batch, as DISE does.
#[test]
fn a_watchpoint_at_the_top_of_the_address_space_fires_everywhere() {
    let app = Application::new(
        parse_asm(
            "start: lda r2, 5(zero)
                    lda r3, -4(zero)
                    stq r2, 0(r3)
                    halt",
        )
        .expect("assembles"),
        Layout::default(),
    );
    let wp = Watchpoint::new(WatchExpr::Scalar { addr: u64::MAX - 3, width: Width::Q });
    let cpu = CpuConfig::default();
    let observing = [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators];
    let mut batch = ObserverBatch::new(&app);
    for kind in observing {
        batch.member(kind, vec![wp], vec![cpu]);
    }
    let shared = batch.run().expect("the application assembles");
    for (kind, shared) in observing.into_iter().zip(shared) {
        let private = run_session(&app, vec![wp], kind, cpu).expect("a scalar is supported");
        assert_eq!(private.transitions.user, 1, "{kind:?}: the watched quad changed");
        assert_eq!(shared.expect("admitted"), vec![private], "{kind:?}: shared == private");
    }
    let dise = run_session(&app, vec![wp], BackendKind::dise_default(), cpu).expect("DISE runs");
    assert_eq!(dise.transitions.user, 1);
}

/// A range whose end lies past `u64::MAX` is rejected up front as
/// ill-formed by every backend, privately and as a batch member — no
/// address computation downstream overflows.
#[test]
fn a_range_past_the_top_of_the_address_space_is_invalid_everywhere() {
    let app = Application::new(parse_asm("start: halt").expect("assembles"), Layout::default());
    let wp = Watchpoint::new(WatchExpr::Range { base: u64::MAX - 7, len: 16 });
    let cpu = CpuConfig::default();
    let every_kind = [
        BackendKind::SingleStep,
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::BinaryRewrite,
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy::bloom(true)),
        BackendKind::DiseComparators,
    ];
    let mut batch = ObserverBatch::new(&app);
    for kind in every_kind {
        let private = run_session(&app, vec![wp], kind, cpu);
        assert!(matches!(private, Err(DebugError::InvalidWatchpoint { .. })), "{kind:?}");
        if kind.observation_only() {
            batch.member(kind, vec![wp], vec![cpu]);
        }
    }
    let members = batch.run().expect("the application assembles");
    assert_eq!(members.len(), 3);
    for member in members {
        assert!(matches!(member, Err(DebugError::InvalidWatchpoint { .. })), "{member:?}");
    }
}

/// Byte stores at `u64::MAX` and at 0 — the two ends of the address
/// space, adjacent modulo 2^64 — against a watch on each end byte and
/// on a range ending exactly at the top. Each watch sees exactly one
/// change under every backend that admits it, privately and in one
/// shared [`ObserverBatch`]: no interval end may saturate at
/// `u64::MAX` and drop the top byte, and no store may spill across the
/// wrap into the other end.
#[test]
fn byte_stores_at_both_ends_of_the_address_space_agree_everywhere() {
    let app = Application::new(
        parse_asm(
            "start: lda r2, 7(zero)
                    lda r3, -1(zero)
                    stb r2, 0(r3)
                    stb r2, 0(zero)
                    halt",
        )
        .expect("assembles"),
        Layout::default(),
    );
    let cpu = CpuConfig::default();
    let every_kind = [
        BackendKind::SingleStep,
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::HardwareRegisters { registers: 1 },
        BackendKind::BinaryRewrite,
        BackendKind::dise_default(),
        BackendKind::Dise(DiseStrategy::bloom(false)),
        BackendKind::Dise(DiseStrategy::bloom(true)),
        BackendKind::Dise(DiseStrategy::evaluate_inline(true)),
        BackendKind::Dise(DiseStrategy::evaluate_inline(false)),
        BackendKind::Dise(DiseStrategy::match_address_value(true)),
        BackendKind::Dise(DiseStrategy::match_address_call(true)),
        BackendKind::DiseComparators,
    ];
    let watches = [
        WatchExpr::Scalar { addr: u64::MAX, width: Width::B },
        WatchExpr::Scalar { addr: 0, width: Width::B },
        WatchExpr::Range { base: u64::MAX - 7, len: 8 },
    ];
    for expr in watches {
        let wp = Watchpoint::new(expr);
        let mut batch = ObserverBatch::new(&app);
        let mut observed = Vec::new();
        for kind in every_kind {
            let private = match run_session(&app, vec![wp], kind, cpu) {
                Ok(report) => report,
                Err(DebugError::Unsupported { .. }) => continue,
                Err(e) => panic!("{expr:?} under {kind:?}: {e}"),
            };
            assert_eq!(private.error, None, "{expr:?} under {kind:?}");
            assert_eq!(private.transitions.user, 1, "{expr:?} under {kind:?}: one change");
            if kind.observation_only() {
                batch.member(kind, vec![wp], vec![cpu]);
                observed.push((kind, private));
            }
        }
        assert!(observed.len() >= 2, "{expr:?}: observing backends admit it");
        let shared = batch.run().expect("the application assembles");
        for ((kind, private), shared) in observed.into_iter().zip(shared) {
            assert_eq!(shared.expect("admitted"), vec![private], "{expr:?} under {kind:?}");
        }
    }
}

/// One observer pass whose members stall on overlapping records: VM,
/// hardware registers and the DISE comparators over HOT, WARM1,
/// conditional HOT (every HOT store is a spurious predicate miss) and
/// the RANGE set, each timed at the paper's cost, the gdb cost and a
/// cost below the drain bound. The batch shares cycle pipelines among
/// slots that stall on the same records; each member's reports must
/// still equal its private sessions, one per configuration, at 1 and 4
/// workers and at slices of 97 and 65,536 instructions (the scheduler
/// default `dise_bench::DEFAULT_SLICE`).
#[test]
fn overlapping_stalls_match_private_sessions() {
    let cpus = [
        CpuConfig::default(),
        CpuConfig { debugger_transition_cost: 290_000, ..CpuConfig::default() },
        CpuConfig { debugger_transition_cost: 7, ..CpuConfig::default() },
    ];
    for w in &dise_workloads::all(10) {
        let sets = [
            vec![w.watchpoint(WatchKind::Hot)],
            vec![w.watchpoint(WatchKind::Warm1)],
            vec![w.conditional_watchpoint(WatchKind::Hot)],
            vec![w.watchpoint(WatchKind::Range)],
        ];
        let mut members = Vec::new();
        for backend in
            [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators]
        {
            for set in &sets {
                members.push((backend, set.clone(), cpus.to_vec()));
            }
        }
        let private: Vec<Result<Vec<SessionReport>, DebugError>> = members
            .iter()
            .map(|(backend, set, cpus)| {
                cpus.iter()
                    .map(|&cpu| {
                        let task = SessionTask::session(w.app(), set.clone(), *backend, cpu);
                        task.run_to_completion().into_batch().map(|mut r| r.remove(0))
                    })
                    .collect()
            })
            .collect();
        assert!(
            private.iter().flatten().flatten().any(|r| r.transitions.spurious_total() > 0),
            "{}: some member stalls",
            w.name()
        );
        for (workers, slice) in [(1, 97), (4, 97), (1, 65_536), (4, 65_536)] {
            let scheduler = Scheduler::new(slice);
            scheduler.spawn(SessionTask::observer(w.app(), members.clone()));
            let (_, out) = scheduler.drain(workers).pop().expect("one task, one output");
            assert_eq!(
                out.into_observe().expect("the pass runs"),
                private,
                "{} (workers={workers}, slice={slice})",
                w.name()
            );
        }
    }
}
