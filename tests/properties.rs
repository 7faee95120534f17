//! Property-based tests (proptest) over the core data structures and
//! the simulator's key invariants.

use proptest::prelude::*;

use dise_repro::asm::{Asm, Layout};
use dise_repro::cpu::{CpuConfig, Executor};
use dise_repro::engine::{Pattern, Production, TemplateInst};
use dise_repro::isa::{decode, encode, AluOp, Cond, Instr, OpClass, Operand, Reg, Width};
use dise_repro::mem::{Cache, CacheConfig, Memory};

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..48).prop_map(|i| Reg::from_index(i).unwrap())
}

fn any_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B), Just(Width::W), Just(Width::L), Just(Width::Q)]
}

fn any_cond() -> impl Strategy<Value = Cond> {
    (0u8..6).prop_map(|c| Cond::from_code(c).unwrap())
}

fn any_aluop() -> impl Strategy<Value = AluOp> {
    (0u8..18).prop_map(|f| AluOp::from_func(f).unwrap())
}

fn any_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![any_reg().prop_map(Operand::Reg), any::<u8>().prop_map(Operand::Imm)]
}

/// Any encodable instruction.
fn any_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (any_width(), any_reg(), any_reg(), -8192i16..8192)
            .prop_map(|(width, rd, base, disp)| Instr::Load { width, rd, base, disp }),
        (any_width(), any_reg(), any_reg(), -8192i16..8192)
            .prop_map(|(width, rs, base, disp)| Instr::Store { width, rs, base, disp }),
        (any_reg(), any_reg(), -8192i16..8192).prop_map(|(rd, base, disp)| Instr::Lda {
            rd,
            base,
            disp
        }),
        (any_reg(), any_reg(), -8192i16..8192).prop_map(|(rd, base, disp)| Instr::Ldah {
            rd,
            base,
            disp
        }),
        (any_aluop(), any_reg(), any_reg(), any_operand())
            .prop_map(|(op, rd, ra, rb)| Instr::Alu { op, rd, ra, rb }),
        (any_reg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, disp)| Instr::Br { rd, disp }),
        (any_cond(), any_reg(), -(1i32 << 19)..(1 << 19))
            .prop_map(|(cond, rs, disp)| Instr::CondBr { cond, rs, disp }),
        (any_reg(), any_reg()).prop_map(|(rd, base)| Instr::Jmp { rd, base }),
        Just(Instr::Trap),
        (any_cond(), any_reg()).prop_map(|(cond, rs)| Instr::CTrap { cond, rs }),
        any::<u16>().prop_map(Instr::Codeword),
        Just(Instr::Halt),
        Just(Instr::Nop),
        (any_cond(), any_reg(), any::<i8>()).prop_map(|(cond, rs, disp)| Instr::DBr {
            cond,
            rs,
            disp
        }),
        any_reg().prop_map(|target| Instr::DCall { target }),
        (any_cond(), any_reg(), any_reg()).prop_map(|(cond, rs, target)| Instr::DCCall {
            cond,
            rs,
            target
        }),
        Just(Instr::DRet),
        (any_reg(), any_reg()).prop_map(|(rd, dr)| Instr::DMfr { rd, dr }),
        (any_reg(), any_reg()).prop_map(|(dr, rs)| Instr::DMtr { dr, rs }),
    ]
}

proptest! {
    /// Binary encode/decode is a bijection on well-formed instructions.
    #[test]
    fn encode_decode_round_trip(i in any_instr()) {
        prop_assert_eq!(decode(encode(&i)), Ok(i));
    }

    /// The textual form produced by Display re-parses to the same
    /// instruction (assembler/disassembler agreement), for label-free
    /// instructions.
    #[test]
    fn display_parse_round_trip(i in any_instr()) {
        // Branch displacements print as relative offsets which the
        // parser accepts numerically, so the round trip is exact.
        let text = i.to_string();
        let asm = dise_repro::asm::parse_asm(&text)
            .unwrap_or_else(|e| panic!("parsing `{text}`: {e}"));
        let prog = asm.assemble(Layout::default()).unwrap();
        prop_assert_eq!(prog.decode_at(prog.text_base), Some(i), "{}", text);
    }

    /// Memory reads return exactly what was written, across any widths
    /// and addresses (little-endian, page-crossing included).
    #[test]
    fn memory_read_after_write(
        addr in 0u64..0x1_0000_0000,
        wcode in 0u8..4,
        value: u64,
    ) {
        let width = Width::from_code(wcode).unwrap().bytes();
        let mut m = Memory::new();
        m.write_u(addr, width, value);
        let mask = if width == 8 { u64::MAX } else { (1 << (8 * width)) - 1 };
        prop_assert_eq!(m.read_u(addr, width), value & mask);
    }

    /// A cache never reports a hit for a line it has not seen, and
    /// always hits a line just accessed (temporal locality invariant).
    #[test]
    fn cache_hit_iff_recently_accessed(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(CacheConfig { size: 1024, assoc: 2, line: 64 });
        let mut seen = std::collections::HashSet::new();
        for a in addrs {
            let line = a / 64;
            let hit = c.access(a);
            if hit {
                prop_assert!(seen.contains(&line), "hit on unseen line {line}");
            }
            prop_assert!(c.contains(a), "just-accessed line must be resident");
            seen.insert(line);
        }
    }

    /// ALU semantics: compare outputs are boolean; bic/and/or identities.
    #[test]
    fn alu_identities(a: u64, b: u64) {
        for op in [AluOp::CmpEq, AluOp::CmpLt, AluOp::CmpLe, AluOp::CmpUlt, AluOp::CmpUle] {
            prop_assert!(op.apply(a, b) <= 1);
        }
        prop_assert_eq!(AluOp::Bic.apply(a, b), a & !b);
        prop_assert_eq!(AluOp::And.apply(a, b) | AluOp::Bic.apply(a, b), a);
        prop_assert_eq!(AluOp::Or.apply(a, 0), a);
        prop_assert_eq!(AluOp::Xor.apply(a, a), 0);
    }
}

/// A two-pass self-modifying kernel: pass 1 executes `slot` (priming
/// the block cache) and stores its result, then patches
/// `slot` in place with the word at `patch`; pass 2 re-executes the
/// rewritten slot and stores again.
fn self_modifying_program(patch: &Instr) -> dise_repro::asm::Program {
    let mut a = Asm::new();
    a.label("start");
    a.load_addr(Reg::gpr(1), "slot", 0);
    a.load_addr(Reg::gpr(3), "patch", 0);
    a.load_addr(Reg::gpr(20), "out", 0);
    a.inst(Instr::Load { width: Width::L, rd: Reg::gpr(2), base: Reg::gpr(3), disp: 0 });
    a.inst(Instr::li(Reg::gpr(9), 2));
    a.label("slot");
    a.inst(Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 111 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(5), base: Reg::gpr(20), disp: 0 });
    a.inst(Instr::Alu { op: AluOp::Add, rd: Reg::gpr(20), ra: Reg::gpr(20), rb: Operand::Imm(8) });
    // Self-modify: overwrite `slot`'s word with the patch instruction.
    a.inst(Instr::Store { width: Width::L, rs: Reg::gpr(2), base: Reg::gpr(1), disp: 0 });
    a.inst(Instr::Alu { op: AluOp::Sub, rd: Reg::gpr(9), ra: Reg::gpr(9), rb: Operand::Imm(1) });
    a.cond_br(Cond::Gt, Reg::gpr(9), "slot");
    a.inst(Instr::Halt);
    a.data_label("patch").long(encode(patch));
    a.data_label("out").space(16);
    a.assemble(Layout::default()).unwrap()
}

/// [`self_modifying_program`] plus a handler for DISE calls (`d_call`
/// through `DHDLR`) that overwrites its own `hslot` word with the same
/// patch instruction on its second call: its disarmed blocks are
/// replayed before that call and invalidated by it.
fn self_modifying_call_program(patch: &Instr) -> dise_repro::asm::Program {
    let mut a = Asm::new();
    a.label("start");
    a.load_addr(Reg::gpr(1), "slot", 0);
    a.load_addr(Reg::gpr(3), "patch", 0);
    a.load_addr(Reg::gpr(20), "out", 0);
    a.load_addr(Reg::gpr(22), "hslot", 0);
    a.inst(Instr::Load { width: Width::L, rd: Reg::gpr(2), base: Reg::gpr(3), disp: 0 });
    a.inst(Instr::li(Reg::gpr(9), 3));
    a.inst(Instr::li(Reg::gpr(24), 2));
    a.label("slot");
    a.inst(Instr::Lda { rd: Reg::gpr(5), base: Reg::ZERO, disp: 111 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(5), base: Reg::gpr(20), disp: 0 });
    a.inst(Instr::Alu { op: AluOp::Add, rd: Reg::gpr(20), ra: Reg::gpr(20), rb: Operand::Imm(8) });
    a.inst(Instr::Store { width: Width::L, rs: Reg::gpr(2), base: Reg::gpr(1), disp: 0 });
    a.inst(Instr::Alu { op: AluOp::Sub, rd: Reg::gpr(9), ra: Reg::gpr(9), rb: Operand::Imm(1) });
    a.cond_br(Cond::Gt, Reg::gpr(9), "slot");
    a.inst(Instr::Halt);
    a.label("handler");
    a.inst(Instr::Alu { op: AluOp::Sub, rd: Reg::gpr(24), ra: Reg::gpr(24), rb: Operand::Imm(1) });
    a.cond_br(Cond::Ne, Reg::gpr(24), "hslot");
    a.inst(Instr::Store { width: Width::L, rs: Reg::gpr(2), base: Reg::gpr(22), disp: 0 });
    a.label("hslot");
    a.inst(Instr::Lda { rd: Reg::gpr(6), base: Reg::ZERO, disp: 222 });
    a.inst(Instr::DRet);
    a.data_label("patch").long(encode(patch));
    a.data_label("out").space(24);
    a.assemble(Layout::default()).unwrap()
}

/// Build a random straight-line program from (op, rd, ra, imm) tuples,
/// ending in stores of every register and a halt.
fn straight_line_program(ops: &[(u8, u8, u8, u8)]) -> dise_repro::asm::Program {
    let mut a = Asm::new();
    a.label("start");
    // Seed registers with distinct values.
    for i in 0..8u8 {
        a.inst(Instr::li(Reg::gpr(i + 1), 100 + i as i16));
    }
    a.load_addr(Reg::gpr(20), "out", 0);
    for &(f, rd, ra, imm) in ops {
        let op = AluOp::from_func(f % 18).unwrap();
        a.inst(Instr::Alu {
            op,
            rd: Reg::gpr(1 + rd % 8),
            ra: Reg::gpr(1 + ra % 8),
            rb: Operand::Imm(imm),
        });
    }
    for i in 0..8u8 {
        a.inst(Instr::Store {
            width: Width::Q,
            rs: Reg::gpr(i + 1),
            base: Reg::gpr(20),
            disp: i as i16 * 8,
        });
    }
    a.inst(Instr::Halt);
    a.data_label("out").space(64);
    a.assemble(Layout::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DISE expansion transparency: adding an observation-only
    /// production (trigger + DISE-register side effects) to every store
    /// leaves the application's architectural results unchanged.
    #[test]
    fn expansion_preserves_application_state(
        ops in prop::collection::vec(any::<(u8, u8, u8, u8)>(), 1..60),
    ) {
        let prog = straight_line_program(&ops);

        let run = |with_production: bool| {
            let mut e = Executor::from_program(&prog, CpuConfig::default());
            if with_production {
                e.engine_mut()
                    .install(Production::new(
                        "observer",
                        Pattern::opclass(OpClass::Store),
                        vec![
                            TemplateInst::Trigger,
                            TemplateInst::Alu {
                                op: AluOp::Add,
                                rd: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                                ra: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                                rb: dise_repro::engine::TOperand::Imm(1),
                            },
                        ],
                    ))
                    .unwrap();
            }
            let mut guard = 0;
            while !e.is_halted() {
                e.step();
                guard += 1;
                assert!(guard < 100_000);
            }
            let out = prog.symbol("out").unwrap();
            (0..8).map(|i| e.mem().read_u(out + i * 8, 8)).collect::<Vec<_>>()
        };

        prop_assert_eq!(run(false), run(true));
    }

    /// The executor's block cache must never serve a stale decode for a
    /// rewritten code word: a program that executes an instruction slot
    /// (priming the cache), overwrites the slot
    /// with an arbitrary patch instruction, and loops back must observe
    /// the patch on the second pass.
    #[test]
    fn self_modifying_code_never_serves_stale_decodes(
        op in any_aluop(),
        imm: u8,
        disp in 0i16..8192,
        use_lda: bool,
    ) {
        let r5 = Reg::gpr(5);
        let patch = if use_lda {
            Instr::Lda { rd: r5, base: Reg::ZERO, disp }
        } else {
            Instr::Alu { op, rd: r5, ra: Reg::ZERO, rb: Operand::Imm(imm) }
        };
        let expected = if use_lda { disp as i64 as u64 } else { op.apply(0, imm as u64) };
        let prog = self_modifying_program(&patch);

        let mut e = Executor::from_program(&prog, CpuConfig::default());
        let mut guard = 0;
        while !e.is_halted() {
            e.step();
            guard += 1;
            assert!(guard < 1_000);
        }
        let out = prog.symbol("out").unwrap();
        prop_assert_eq!(e.mem().read_u(out, 8), 111, "first pass runs the original slot");
        prop_assert_eq!(
            e.mem().read_u(out + 8, 8),
            expected,
            "second pass served a stale decode for {:?}",
            patch
        );
    }

    /// The block cache is transparent: a random self-modifying kernel
    /// under a random set of DISE productions — observation-only ALU
    /// sequences plus, optionally, a `d_call` into a handler that
    /// patches its own code, so disarmed blocks are built, replayed and
    /// invalidated too — yields the `Exec` stream and engine
    /// statistics of the cold reference (`mem_mut` before every step,
    /// so each fetch builds a fresh block from current memory), and
    /// the cache's counters stay coherent at every step — monotone,
    /// with `hits + misses == lookups`.
    #[test]
    fn block_cache_is_transparent_over_self_modifying_code(
        op in any_aluop(),
        imm: u8,
        disp in 0i16..8192,
        use_lda: bool,
        class_picks in prop::collection::vec(0u8..3, 0..4),
        call_pick in 0u8..4,
    ) {
        let r5 = Reg::gpr(5);
        let patch = if use_lda {
            Instr::Lda { rd: r5, base: Reg::ZERO, disp }
        } else {
            Instr::Alu { op, rd: r5, ra: Reg::ZERO, rb: Operand::Imm(imm) }
        };
        let prog = self_modifying_call_program(&patch);
        let mut classes: std::collections::BTreeSet<u8> = class_picks.iter().copied().collect();
        // `call_pick == 3` installs no call production.
        classes.insert(call_pick);
        classes.remove(&3);

        let run = |cold: bool| {
            let mut e = Executor::from_program(&prog, CpuConfig::default());
            for &c in &classes {
                let class = match c {
                    0 => OpClass::Store,
                    1 => OpClass::Load,
                    _ => OpClass::Alu,
                };
                let action = if c == call_pick {
                    TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR })
                } else {
                    TemplateInst::Alu {
                        op: AluOp::Add,
                        rd: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                        ra: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                        rb: dise_repro::engine::TOperand::Imm(1),
                    }
                };
                e.engine_mut()
                    .install(Production::new(
                        &format!("prod{c}"),
                        Pattern::opclass(class),
                        vec![TemplateInst::Trigger, action],
                    ))
                    .unwrap();
            }
            e.set_reg(Reg::DHDLR, prog.symbol("handler").unwrap());
            let mut stream = Vec::new();
            let mut prev = dise_repro::cpu::BlockCacheStats::default();
            let mut guard = 0;
            while !e.is_halted() {
                if cold {
                    e.mem_mut();
                }
                stream.push(e.step());
                let s = e.block_cache_stats();
                prop_assert!(
                    s.lookups >= prev.lookups
                        && s.hits >= prev.hits
                        && s.misses >= prev.misses
                        && s.invalidations >= prev.invalidations,
                    "block-cache counters went backwards"
                );
                prop_assert_eq!(s.hits + s.misses, s.lookups, "every lookup is a hit or a miss");
                prev = s;
                guard += 1;
                assert!(guard < 10_000);
            }
            Ok((stream, e.engine().stats(), prev))
        };

        let (cold_stream, cold_engine, cold_stats) = run(true)?;
        let (warm_stream, warm_engine, warm_stats) = run(false)?;
        prop_assert_eq!(cold_stats.hits, 0, "the cold reference never replays a block");
        prop_assert!(warm_stats.lookups > 0, "the warm run must consult the cache");
        prop_assert_eq!(warm_engine, cold_engine, "engine statistics must match");
        prop_assert_eq!(warm_stream, cold_stream, "Exec streams must be byte-identical");
    }

    /// Copy-on-write fork invisibility, at every fork point: forking an
    /// executor mid-run over a self-modifying kernel — whose patch
    /// stores land on text pages still shared with the parent — must be
    /// undetectable from inside either machine. The child's
    /// continuation produces the same `Exec` stream, final data memory
    /// and DISE engine statistics as a never-forked reference run, and
    /// the parent, continued *after* the child has run (and unshared
    /// pages under it), stays bit-identical too.
    #[test]
    fn cow_fork_is_invisible_at_any_fork_point(
        op in any_aluop(),
        imm: u8,
        disp in 0i16..8192,
        use_lda: bool,
        fork_at in 0u64..24,
        with_production: bool,
    ) {
        let r5 = Reg::gpr(5);
        let patch = if use_lda {
            Instr::Lda { rd: r5, base: Reg::ZERO, disp }
        } else {
            Instr::Alu { op, rd: r5, ra: Reg::ZERO, rb: Operand::Imm(imm) }
        };
        let prog = self_modifying_program(&patch);
        let fresh = || {
            let mut e = Executor::from_program(&prog, CpuConfig::default());
            if with_production {
                e.engine_mut()
                    .install(Production::new(
                        "observer",
                        Pattern::opclass(OpClass::Store),
                        vec![
                            TemplateInst::Trigger,
                            TemplateInst::Alu {
                                op: AluOp::Add,
                                rd: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                                ra: dise_repro::engine::TReg::Lit(Reg::dise(1)),
                                rb: dise_repro::engine::TOperand::Imm(1),
                            },
                        ],
                    ))
                    .unwrap();
            }
            e
        };
        let finish = |e: &mut Executor, stream: &mut Vec<dise_repro::cpu::Exec>| {
            let mut guard = 0;
            while !e.is_halted() {
                stream.push(e.step());
                guard += 1;
                assert!(guard < 10_000);
            }
        };
        let out = prog.symbol("out").unwrap();
        let data = |e: &Executor| (0..2).map(|i| e.mem().read_u(out + i * 8, 8)).collect::<Vec<_>>();

        let mut reference = fresh();
        let mut ref_stream = Vec::new();
        finish(&mut reference, &mut ref_stream);

        let mut parent = fresh();
        let mut pre = Vec::new();
        for _ in 0..fork_at {
            if parent.is_halted() {
                break;
            }
            pre.push(parent.step());
        }
        let mut child = parent.fork();
        prop_assert_eq!(
            child.mem().cow_stats().pages_shared as usize,
            child.mem().shared_pages(),
            "every resident page starts out shared with the parent"
        );

        // The child's continuation — its self-modifying stores unshare
        // pages under the parent — completes the reference stream.
        let mut child_stream = pre.clone();
        finish(&mut child, &mut child_stream);
        prop_assert_eq!(&child_stream, &ref_stream, "forked continuation diverged");
        prop_assert_eq!(data(&child), data(&reference), "forked final memory diverged");
        prop_assert_eq!(child.engine().stats(), reference.engine().stats());
        prop_assert_eq!(child.instructions(), reference.instructions());

        // The parent, resumed only now, must be unperturbed by
        // everything the child did.
        let mut parent_stream = pre;
        finish(&mut parent, &mut parent_stream);
        prop_assert_eq!(&parent_stream, &ref_stream, "parent diverged after child ran");
        prop_assert_eq!(data(&parent), data(&reference));
        prop_assert_eq!(parent.engine().stats(), reference.engine().stats());
    }

    /// Functional and timed execution see the same dynamic instruction
    /// stream: instruction counts agree and the timing model's cycle
    /// count is bounded below by instructions/width.
    #[test]
    fn timing_is_consistent_with_functional(
        ops in prop::collection::vec(any::<(u8, u8, u8, u8)>(), 1..40),
    ) {
        let prog = straight_line_program(&ops);
        let mut m = dise_repro::cpu::Machine::from_program(&prog);
        let stats = m.run();
        prop_assert_eq!(stats.instructions, m.exec.instructions());
        let min_cycles = stats.instructions / 4;
        prop_assert!(stats.cycles >= min_cycles);
        prop_assert!(stats.cycles < stats.instructions * 200 + 2_000);
    }
}

/// One step of the watched-pointer kernel behind
/// `chunked_fanout_is_byte_identical_for_every_chunk_size`.
#[derive(Clone, Debug, PartialEq)]
enum WatchAction {
    /// Store `v` into watched-slot `j`.
    StoreSlot { j: u8, v: u8 },
    /// Repoint the watched pointer cell at slot `j` — the filter's
    /// hardest case when it lands mid-chunk.
    Retarget { j: u8 },
    /// Store `v` into the unwatched noise region at offset `8k`.
    Noise { k: u8, v: u8 },
}

fn any_watch_action() -> impl Strategy<Value = WatchAction> {
    prop_oneof![
        (0u8..4, any::<u8>()).prop_map(|(j, v)| WatchAction::StoreSlot { j, v }),
        (0u8..4).prop_map(|j| WatchAction::Retarget { j }),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| WatchAction::Noise { k, v }),
    ]
}

/// A kernel driven by `actions`: a pointer cell `ptr` aimed at one of
/// four watched slots, retargeted and stored through arbitrarily, with
/// unwatched noise stores interleaved.
fn watched_pointer_asm(actions: &[WatchAction]) -> Asm {
    let (ptr, slots, noise) = (Reg::gpr(16), Reg::gpr(17), Reg::gpr(18));
    let mut a = Asm::new();
    a.label("start");
    a.load_addr(ptr, "ptr", 0);
    a.load_addr(slots, "slots", 0);
    a.load_addr(noise, "noise", 0);
    // Aim the pointer at slot 0 before the action stream begins.
    a.inst(Instr::Lda { rd: Reg::gpr(2), base: slots, disp: 0 });
    a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(2), base: ptr, disp: 0 });
    for action in actions {
        match *action {
            WatchAction::StoreSlot { j, v } => {
                a.inst(Instr::li(Reg::gpr(3), v as i16));
                a.inst(Instr::Store {
                    width: Width::Q,
                    rs: Reg::gpr(3),
                    base: slots,
                    disp: 8 * (j % 4) as i16,
                });
            }
            WatchAction::Retarget { j } => {
                a.inst(Instr::Lda { rd: Reg::gpr(2), base: slots, disp: 8 * (j % 4) as i16 });
                a.inst(Instr::Store { width: Width::Q, rs: Reg::gpr(2), base: ptr, disp: 0 });
            }
            WatchAction::Noise { k, v } => {
                a.inst(Instr::li(Reg::gpr(3), v as i16));
                a.inst(Instr::Store {
                    width: Width::Q,
                    rs: Reg::gpr(3),
                    base: noise,
                    disp: 8 * k as i16,
                });
            }
        }
    }
    a.inst(Instr::Halt);
    a.data_label("ptr").quad(0);
    a.data_label("slots").space(32);
    a.data_label("noise").space(2048);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunked fan-out byte-identity, on the filter's hardest case:
    /// random kernels whose indirect watchpoint's pointer cell is
    /// retargeted mid-chunk. Random poll budgets cut chunks at
    /// arbitrary records, so every chunk size up to the capacity occurs.
    /// Live, recorded and replayed from the trace, the three-member
    /// observer batch must report byte-identically to the oracle — each
    /// member's private per-record `SessionTask::session`, one per
    /// config — and the chunk-skip counters must conserve: every
    /// (member, chunk) pair is skipped or scanned, never both, never
    /// neither.
    #[test]
    fn chunked_fanout_is_byte_identical_for_every_chunk_size(
        actions in prop::collection::vec(any_watch_action(), 1..40),
        budget in 1u64..64,
        replay_budget in 1u64..200,
    ) {
        use dise_repro::debug::{
            fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped, Application, BackendKind,
            DebugError, SessionReport, SessionTask, Step, TaskOutput, WatchExpr, Watchpoint,
        };

        let app = Application::new(watched_pointer_asm(&actions), Layout::default());
        let prog = app.program().unwrap();
        let (ptr, slots) = (prog.symbol("ptr").unwrap(), prog.symbol("slots").unwrap());
        let cpus = vec![CpuConfig::default(), CpuConfig { commit_width: 2, ..CpuConfig::default() }];
        let members = vec![
            (
                BackendKind::DiseComparators,
                vec![Watchpoint::new(WatchExpr::Indirect { ptr, width: Width::Q })],
                cpus.clone(),
            ),
            (
                BackendKind::VirtualMemory,
                vec![Watchpoint::new(WatchExpr::Scalar { addr: slots + 8, width: Width::Q })],
                cpus.clone(),
            ),
            (
                BackendKind::hw4(),
                vec![Watchpoint::new(WatchExpr::Scalar { addr: slots + 16, width: Width::Q })],
                cpus,
            ),
        ];
        let drain = |mut task: SessionTask, budget: u64| -> TaskOutput {
            loop {
                if let Step::Done(out) = task.poll(budget) {
                    return out;
                }
            }
        };

        // The oracle: every member's private per-record session, per
        // config.
        let oracle: Vec<Result<Vec<SessionReport>, DebugError>> = members
            .iter()
            .map(|(backend, wps, cpus)| {
                cpus.iter()
                    .map(|&cpu| {
                        SessionTask::session(&app, wps.clone(), *backend, cpu)
                            .run_to_completion()
                            .into_batch()
                            .map(|mut reports| reports.remove(0))
                    })
                    .collect()
            })
            .collect();
        let observe = |budget: u64| {
            drain(SessionTask::observer(&app, members.clone()), budget).into_observe().unwrap()
        };

        let (c0, s0, k0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
        let live = observe(u64::MAX);
        let (dc, ds, dk) = (
            fanout_chunks() - c0,
            fanout_chunks_scanned() - s0,
            fanout_chunks_skipped() - k0,
        );
        prop_assert_eq!(ds + dk, 3 * dc, "every (member, chunk) pair is scanned xor skipped");
        prop_assert_eq!(&live, &oracle, "the live fan-out diverged from the private sessions");
        prop_assert_eq!(&observe(budget), &oracle, "budget {} diverged", budget);

        // The trace path: record under one slicing, replay under another
        // and unsliced — all byte-identical to the private sessions.
        let dir = std::env::temp_dir().join(format!("dise-fanout-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let trace = dir.join(format!(
            "{}.dtrc",
            UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let recorded = drain(SessionTask::observer_recorded(&app, members.clone(), &trace), budget)
            .into_observe()
            .unwrap();
        prop_assert_eq!(&recorded, &oracle, "recording pass diverged");
        for b in [replay_budget, u64::MAX] {
            let replayed = drain(SessionTask::observer_replay(&app, members.clone(), &trace), b)
                .into_observe()
                .unwrap();
            prop_assert_eq!(&replayed, &oracle, "replay at budget {} diverged", b);
        }
        let _ = std::fs::remove_file(&trace);
    }
}
