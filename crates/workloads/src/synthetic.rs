//! Randomized synthetic debugging scenarios — the input space of the
//! cross-backend differential conformance suite
//! (`crates/core/tests/backend_conformance.rs`).
//!
//! A scenario is a counted loop over a block of [`SLOTS`] watchable
//! quadwords, executing a caller-chosen sequence of stores each
//! iteration, plus a watchpoint set over the slots. The store scripts
//! span the full width/alignment space: quad-aligned quads, single
//! bytes, longwords at arbitrary offsets (straddling a quad boundary
//! when the offset exceeds 4), and quads whose base lies *below* a
//! quad boundary and straddles into the quad above. The straddles are
//! the point: a store that starts below a watched quad and reaches
//! into it is caught by byte-accurate backends (page protection,
//! single-step reevaluation) but — by the paper's design — not by
//! DISE's base-address pattern match, which keys on the store's *base*
//! quad only. The conformance oracle models both granularities
//! explicitly and asserts exactly that divergence; see
//! `backend_conformance.rs`.
//!
//! Generation is fully deterministic in the spec, so a shrunk failing
//! spec reproduces its program exactly.

use dise_asm::{parse_asm, Layout};
use dise_debug::{Application, Condition, WatchExpr, Watchpoint};
use dise_isa::Width;
use std::fmt::Write as _;

/// Watchable quadwords in the scenario's data block (one 64-byte,
/// single-page region — page sharing is part of the point: it exercises
/// the virtual-memory backend's spurious address transitions).
pub const SLOTS: u8 = 8;

/// One store in the scenario's loop body.
///
/// The first four arms are quad-wide and quad-aligned; the last three
/// exercise sub-quad widths and quad-boundary straddles. Arbitrary
/// field values are valid: [`StoreOp::normalized`] folds them into
/// range exactly as generation does, so shrunk proptest specs always
/// reproduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOp {
    /// `slots[slot] = iteration counter` — changes every iteration.
    Counter {
        /// Target slot index.
        slot: u8,
    },
    /// `slots[slot] = k` — a silent store once the slot holds `k`.
    Constant {
        /// Target slot index.
        slot: u8,
        /// The constant stored.
        k: u8,
    },
    /// `slots[slot] = 0` — silent until another store disturbs the
    /// slot (slots start zeroed).
    Zero {
        /// Target slot index.
        slot: u8,
    },
    /// `scratch[slot] = iteration counter` — the scratch block lives on
    /// a *different page* than the slots, and no watchpoint ever covers
    /// it: these stores are true negatives that every backend
    /// (including the virtual-memory page filter) must stay silent on.
    Scratch {
        /// Target scratch-block slot index.
        slot: u8,
    },
    /// `stb`: one byte `k` at `slots + 8*slot + off`. A byte store
    /// never crosses a quad boundary, so its base quad *is* its only
    /// quad — every backend granularity agrees on which slot it hits.
    Byte {
        /// Base slot index (taken modulo [`SLOTS`]).
        slot: u8,
        /// Byte offset within the slot (taken modulo 8).
        off: u8,
        /// The byte stored.
        k: u8,
    },
    /// `stl`: the low longword of the iteration counter at
    /// `slots + 8*slot + off`. Offsets 5..=7 straddle into `slot + 1`;
    /// the slot index is capped at `SLOTS - 2` so the straddle never
    /// leaves the slot block.
    Long {
        /// Base slot index (taken modulo `SLOTS - 1`).
        slot: u8,
        /// Byte offset within the slot (taken modulo 8).
        off: u8,
    },
    /// `stq`: the iteration counter at `slots + 8*slot - back` — a
    /// quad store whose **base** sits `back` bytes below `slot`'s quad
    /// boundary, straddling *into* slot `slot` from the quad below.
    /// This is the shape DISE's base-address match misses by design:
    /// the base quad is `slot - 1`, yet bytes of `slot` change.
    StraddleBelow {
        /// Slot whose quad boundary the store straddles into
        /// (normalised to `1..SLOTS`, so the base never precedes the
        /// slot block).
        slot: u8,
        /// Bytes of the store lying below the boundary (normalised to
        /// `1..=7`).
        back: u8,
    },
}

impl StoreOp {
    /// Fold arbitrary field values into the ranges generation uses, so
    /// one normalisation rule serves the generator, the conformance
    /// oracle, and shrunk proptest specs alike.
    pub fn normalized(self) -> StoreOp {
        match self {
            StoreOp::Counter { slot } => StoreOp::Counter { slot: slot % SLOTS },
            StoreOp::Constant { slot, k } => StoreOp::Constant { slot: slot % SLOTS, k },
            StoreOp::Zero { slot } => StoreOp::Zero { slot: slot % SLOTS },
            StoreOp::Scratch { slot } => StoreOp::Scratch { slot: slot % SLOTS },
            StoreOp::Byte { slot, off, k } => StoreOp::Byte { slot: slot % SLOTS, off: off % 8, k },
            StoreOp::Long { slot, off } => StoreOp::Long { slot: slot % (SLOTS - 1), off: off % 8 },
            // Idempotent fold into 1..=SLOTS-1 / 1..=7: in-range values
            // map to themselves, so pinned specs mean what they say.
            StoreOp::StraddleBelow { slot, back } => StoreOp::StraddleBelow {
                slot: slot.wrapping_sub(1) % (SLOTS - 1) + 1,
                back: back.wrapping_sub(1) % 7 + 1,
            },
        }
    }

    /// The (normalised) store's byte offset within its data block —
    /// `slots` for every arm except [`StoreOp::Scratch`] — and its
    /// width in bytes.
    pub fn footprint(&self) -> (u64, u64) {
        match self.normalized() {
            StoreOp::Counter { slot }
            | StoreOp::Constant { slot, .. }
            | StoreOp::Zero { slot }
            | StoreOp::Scratch { slot } => (8 * u64::from(slot), 8),
            StoreOp::Byte { slot, off, .. } => (8 * u64::from(slot) + u64::from(off), 1),
            StoreOp::Long { slot, off } => (8 * u64::from(slot) + u64::from(off), 4),
            StoreOp::StraddleBelow { slot, back } => (8 * u64::from(slot) - u64::from(back), 8),
        }
    }

    /// The slot this store's **base address** falls in (in its own
    /// block) — for [`StoreOp::StraddleBelow`] that is the quad *below*
    /// the watched boundary, which is exactly what base-address
    /// matching keys on.
    pub fn slot(&self) -> u8 {
        (self.footprint().0 / 8) as u8
    }
}

/// One watchpoint over the scenario's slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchSpec {
    /// `watch slots[slot]` (quad scalar).
    Scalar {
        /// Watched slot.
        slot: u8,
    },
    /// `watch slots[slot] if slots[slot] == k`.
    Conditional {
        /// Watched slot.
        slot: u8,
        /// Predicate constant.
        k: u8,
    },
    /// `watch` the byte range `[slots + 8*first, slots + 8*first + len)`
    /// — quad-aligned base, arbitrary length (a non-multiple-of-8 `len`
    /// leaves unwatched tail bytes in the final quad, exercising the
    /// backends' boundary handling).
    Range {
        /// First slot of the range.
        first: u8,
        /// Length in bytes (clamped to the slot block).
        len: u8,
    },
    /// `watch *p` where the pointer cell `p` holds `&slots[slot]`.
    /// Statically unaddressable: virtual memory and hardware registers
    /// must decline it.
    Indirect {
        /// Slot the pointer targets.
        slot: u8,
    },
}

/// Build a scenario: the application (a counted loop of `iters`
/// iterations running `ops` in order, one statement marker per
/// iteration) and the watchpoints resolved against its assembled image.
///
/// Slot indices are taken modulo [`SLOTS`] and range lengths are
/// clamped to the block, so arbitrary (e.g. shrunk) specs are always
/// valid.
///
/// # Panics
///
/// As [`scenario_sets`], of which this is the single-set special case.
pub fn scenario(iters: u8, ops: &[StoreOp], specs: &[WatchSpec]) -> (Application, Vec<Watchpoint>) {
    let (app, mut sets) = scenario_sets(iters, ops, &[specs.to_vec()]);
    (app, sets.pop().expect("one set in, one set out"))
}

/// Build one scenario application serving **multiple watchpoint sets**
/// — the input shape of per-workload observer batching, where every
/// member of a `dise_debug::ObserverBatch` carries its own set over the
/// same unmodified application. Each set is resolved independently
/// against the one assembled image; set `i` of the result is exactly
/// what `scenario(iters, ops, &sets[i])` would produce (the application
/// is identical because watchpoints never influence generation beyond
/// the shared pointer cell).
///
/// Slot indices are taken modulo [`SLOTS`] and range lengths are
/// clamped to the block, so arbitrary (e.g. shrunk) specs are always
/// valid.
///
/// # Panics
///
/// Panics when the sets disagree on the indirect target (the scenario
/// image carries a single pointer cell, so every
/// [`WatchSpec::Indirect`] across all sets must name the same slot —
/// and DISE's serial matcher likewise supports one indirect watchpoint
/// per set, which must come first), or if the generated program fails
/// to assemble (a bug in this generator, not in the spec).
pub fn scenario_sets(
    iters: u8,
    ops: &[StoreOp],
    sets: &[Vec<WatchSpec>],
) -> (Application, Vec<Vec<Watchpoint>>) {
    let indirect_slots: Vec<u8> = sets
        .iter()
        .flatten()
        .filter_map(|s| match s {
            WatchSpec::Indirect { slot } => Some(slot % SLOTS),
            _ => None,
        })
        .collect();
    assert!(
        indirect_slots.windows(2).all(|w| w[0] == w[1]),
        "a scenario has one pointer cell: every indirect watchpoint must target the same slot"
    );
    for set in sets {
        assert!(
            set.iter().filter(|s| matches!(s, WatchSpec::Indirect { .. })).count() <= 1,
            "at most one indirect watchpoint per set (DISE's serial matcher owns one `dar`)"
        );
    }
    // The pointer cell for an indirect watchpoint needs the watched
    // slot's absolute address in its initialiser: generate once with a
    // placeholder, read the symbol, and regenerate. Assembly is
    // deterministic, so the second image's layout equals the first's.
    let probe = Application::new(parse_asm(&source(iters, ops, 0)).expect("parses"), layout());
    let slots = probe.prepared().expect("assembles").symbol("slots").expect("slots exists");
    let indirect_target = indirect_slots.first().map(|slot| slots + 8 * u64::from(*slot));
    let app = Application::new(
        parse_asm(&source(iters, ops, indirect_target.unwrap_or(0))).expect("parses"),
        layout(),
    );
    let prog = app.prepared().expect("assembles");
    assert_eq!(prog.symbol("slots"), Some(slots), "two-pass layout must agree");

    let ptr = prog.symbol("ptr").expect("ptr exists");
    let resolved = sets
        .iter()
        .map(|set| {
            set.iter()
                .map(|spec| match *spec {
                    WatchSpec::Scalar { slot } => Watchpoint::new(WatchExpr::Scalar {
                        addr: slots + 8 * u64::from(slot % SLOTS),
                        width: Width::Q,
                    }),
                    WatchSpec::Conditional { slot, k } => Watchpoint::conditional(
                        WatchExpr::Scalar {
                            addr: slots + 8 * u64::from(slot % SLOTS),
                            width: Width::Q,
                        },
                        Condition::equals(u64::from(k)),
                    ),
                    WatchSpec::Range { first, len } => {
                        let first = u64::from(first % SLOTS);
                        let max_len = 8 * (u64::from(SLOTS) - first);
                        let len = u64::from(len).clamp(1, max_len);
                        Watchpoint::new(WatchExpr::Range { base: slots + 8 * first, len })
                    }
                    WatchSpec::Indirect { .. } => {
                        Watchpoint::new(WatchExpr::Indirect { ptr, width: Width::Q })
                    }
                })
                .collect()
        })
        .collect();
    (app, resolved)
}

fn layout() -> Layout {
    Layout::default()
}

fn source(iters: u8, ops: &[StoreOp], indirect_target: u64) -> String {
    let iters = iters.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start:  la r20, slots");
    let _ = writeln!(src, "        la r21, scratch");
    let _ = writeln!(src, "        lda r9, {iters}(zero)");
    let _ = writeln!(src, "loop:   .stmt");
    for op in ops {
        let (disp, _) = op.footprint();
        match op.normalized() {
            StoreOp::Counter { .. } => {
                let _ = writeln!(src, "        stq r9, {disp}(r20)");
            }
            StoreOp::Constant { k, .. } => {
                let _ = writeln!(src, "        lda r1, {k}(zero)");
                let _ = writeln!(src, "        stq r1, {disp}(r20)");
            }
            StoreOp::Zero { .. } => {
                let _ = writeln!(src, "        stq r31, {disp}(r20)");
            }
            StoreOp::Scratch { .. } => {
                let _ = writeln!(src, "        stq r9, {disp}(r21)");
            }
            StoreOp::Byte { k, .. } => {
                let _ = writeln!(src, "        lda r1, {k}(zero)");
                let _ = writeln!(src, "        stb r1, {disp}(r20)");
            }
            StoreOp::Long { .. } => {
                let _ = writeln!(src, "        stl r9, {disp}(r20)");
            }
            StoreOp::StraddleBelow { .. } => {
                let _ = writeln!(src, "        stq r9, {disp}(r20)");
            }
        }
    }
    let _ = writeln!(src, "        subq r9, 1, r9");
    let _ = writeln!(src, "        bgt r9, loop");
    let _ = writeln!(src, "        halt");
    let _ = writeln!(src, ".data");
    let _ = writeln!(src, "slots:  .space {}", 8 * u64::from(SLOTS));
    let _ = writeln!(src, "ptr:    .quad {indirect_target:#x}");
    // Pad the scratch block onto its own page: its stores must never
    // look watched, not even through page-granularity protection.
    let _ = writeln!(src, "        .space 4096");
    let _ = writeln!(src, "scratch: .space {}", 8 * u64::from(SLOTS));
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_cpu::{CpuConfig, Executor};

    #[test]
    fn scratch_block_sits_on_its_own_page() {
        let (app, _) =
            scenario(2, &[StoreOp::Scratch { slot: 0 }], &[WatchSpec::Scalar { slot: 0 }]);
        let prog = app.program().unwrap();
        let slots = prog.symbol("slots").unwrap();
        let scratch = prog.symbol("scratch").unwrap();
        assert_ne!(slots / 4096, scratch / 4096, "scratch shares no page with the slots");
    }

    #[test]
    fn scenarios_assemble_run_and_halt() {
        let ops = [
            StoreOp::Counter { slot: 0 },
            StoreOp::Constant { slot: 3, k: 7 },
            StoreOp::Zero { slot: 5 },
            StoreOp::Counter { slot: 9 }, // wraps to slot 1
        ];
        let specs = [WatchSpec::Scalar { slot: 0 }, WatchSpec::Range { first: 6, len: 13 }];
        let (app, wps) = scenario(5, &ops, &specs);
        assert_eq!(wps.len(), 2);
        let prog = app.program().unwrap();
        let mut exec = Executor::from_program(&prog, CpuConfig::default());
        let mut n = 0;
        while !exec.is_halted() {
            exec.step();
            n += 1;
            assert!(n < 10_000, "scenario must halt");
        }
        let slots = prog.symbol("slots").unwrap();
        // Final values: counter slots hold the last counter value (1),
        // the constant slot holds 7, the zero slot 0.
        assert_eq!(exec.mem().read_u(slots, 8), 1);
        assert_eq!(exec.mem().read_u(slots + 24, 8), 7);
        assert_eq!(exec.mem().read_u(slots + 40, 8), 0);
        assert_eq!(exec.mem().read_u(slots + 8, 8), 1, "slot index wraps modulo SLOTS");
    }

    #[test]
    fn sub_quad_and_straddling_stores_hit_their_exact_bytes() {
        let ops = [
            StoreOp::Byte { slot: 2, off: 3, k: 0xAB },
            StoreOp::Long { slot: 1, off: 6 },
            StoreOp::StraddleBelow { slot: 4, back: 3 },
        ];
        let (app, _) = scenario(3, &ops, &[WatchSpec::Scalar { slot: 0 }]);
        let prog = app.program().unwrap();
        let mut exec = Executor::from_program(&prog, CpuConfig::default());
        let mut n = 0;
        while !exec.is_halted() {
            exec.step();
            n += 1;
            assert!(n < 10_000, "scenario must halt");
        }
        let slots = prog.symbol("slots").unwrap();
        // The loop counts down; the final iteration stores counter 1.
        assert_eq!(exec.mem().read_u(slots + 19, 1), 0xAB, "byte at slots[2]+3");
        assert_eq!(exec.mem().read_u(slots + 14, 4), 1, "longword straddling slots[1]/slots[2]");
        assert_eq!(exec.mem().read_u(slots + 29, 8), 1, "quad straddling into slots[4] from below");
        // Neighbouring bytes stay untouched.
        assert_eq!(exec.mem().read_u(slots + 18, 1), 0);
        assert_eq!(exec.mem().read_u(slots + 20, 1), 0);
    }

    #[test]
    fn normalised_footprints_stay_inside_the_slot_block() {
        for a in 0..=255u8 {
            for b in (0..=255u8).step_by(7) {
                for op in [
                    StoreOp::Byte { slot: a, off: b, k: 9 },
                    StoreOp::Long { slot: a, off: b },
                    StoreOp::StraddleBelow { slot: a, back: b },
                ] {
                    let (off, width) = op.footprint();
                    assert!(off + width <= 8 * u64::from(SLOTS), "{op:?} stays inside the block");
                    match op.normalized() {
                        StoreOp::Byte { .. } => {
                            assert_eq!(off / 8, (off + width - 1) / 8, "bytes never straddle")
                        }
                        StoreOp::StraddleBelow { slot, .. } => {
                            assert_eq!((off + width - 1) / 8, u64::from(slot), "reaches its slot");
                            assert_eq!(op.slot(), slot - 1, "base quad is the slot below");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn indirect_pointer_targets_its_slot() {
        let (app, wps) =
            scenario(3, &[StoreOp::Counter { slot: 2 }], &[WatchSpec::Indirect { slot: 2 }]);
        let prog = app.program().unwrap();
        let mut mem = dise_mem::Memory::new();
        prog.load(&mut mem);
        let slots = prog.symbol("slots").unwrap();
        let ptr = prog.symbol("ptr").unwrap();
        assert_eq!(mem.read_u(ptr, 8), slots + 16, "ptr holds &slots[2]");
        assert!(matches!(wps[0].expr, WatchExpr::Indirect { .. }));
    }

    #[test]
    fn range_lengths_clamp_to_the_block() {
        let (_, wps) =
            scenario(2, &[StoreOp::Zero { slot: 0 }], &[WatchSpec::Range { first: 7, len: 200 }]);
        let WatchExpr::Range { len, .. } = wps[0].expr else { panic!("range") };
        assert_eq!(len, 8, "one slot left at the end of the block");
    }

    #[test]
    fn scenario_sets_resolve_each_set_against_one_image() {
        let ops = [StoreOp::Counter { slot: 0 }, StoreOp::Counter { slot: 2 }];
        let sets = vec![
            vec![WatchSpec::Scalar { slot: 0 }],
            vec![WatchSpec::Indirect { slot: 2 }, WatchSpec::Scalar { slot: 1 }],
            vec![WatchSpec::Range { first: 2, len: 10 }],
        ];
        let (app, resolved) = scenario_sets(4, &ops, &sets);
        assert_eq!(resolved.len(), 3);
        // Each set resolves exactly as its single-set form would, and
        // the set carrying the indirect reproduces the application too
        // (sets without it would initialise the unused pointer cell to
        // zero on their own — the only way sets influence generation).
        for (set, wps) in sets.iter().zip(&resolved) {
            let (lone_app, lone_wps) = scenario(4, &ops, set);
            assert_eq!(&lone_wps, wps);
            if set.iter().any(|s| matches!(s, WatchSpec::Indirect { .. })) {
                assert_eq!(lone_app, app, "the indirect set pins the pointer cell");
            }
        }
        // The shared pointer cell targets the (single) indirect slot.
        let prog = app.program().unwrap();
        let mut mem = dise_mem::Memory::new();
        prog.load(&mut mem);
        let slots = prog.symbol("slots").unwrap();
        assert_eq!(mem.read_u(prog.symbol("ptr").unwrap(), 8), slots + 16);
    }

    #[test]
    #[should_panic(expected = "same slot")]
    fn scenario_sets_reject_conflicting_indirect_targets() {
        let sets =
            vec![vec![WatchSpec::Indirect { slot: 1 }], vec![WatchSpec::Indirect { slot: 2 }]];
        let _ = scenario_sets(2, &[StoreOp::Zero { slot: 0 }], &sets);
    }

    #[test]
    fn generation_is_deterministic() {
        let ops = [StoreOp::Constant { slot: 1, k: 42 }];
        let specs = [WatchSpec::Conditional { slot: 1, k: 42 }];
        let (a, w) = scenario(4, &ops, &specs);
        let (b, w2) = scenario(4, &ops, &specs);
        assert_eq!(a, b);
        assert_eq!(w, w2);
    }
}
