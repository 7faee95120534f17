//! The DISE watchpoint implementation (§4 of the paper).
//!
//! `build_program` appends the debugger's data region and its
//! dynamically generated expression-evaluation function (Fig. 2e) to the
//! application image; `configure` loads the DISE registers and installs
//! the productions (Fig. 2a–f, plus the serial and Bloom multi-address
//! sequences of §4 "Watching multiple addresses").
//!
//! DISE register conventions used by the generated code:
//!
//! | register | role |
//! |----------|------|
//! | `dr1` | reconstructed (raw) store address — read by the handler via `d_mfr` |
//! | `dr2` | quad-aligned store address |
//! | `dr3` | match accumulator |
//! | `dr4` | per-term temporary |
//! | `dr5`–`dr7`, `dar`, `dr12`, `dr13` | constant pool: watched addresses / range bounds / Bloom base+mask / inline condition constant |
//! | `dpv` | previous expression value (inline organisations) |
//! | `dhdlr` | handler address |
//! | `dseg` | protected-block tag (Fig. 2f) |
//! | `dr14` | debugger data region base |
//! | `dr15` | handler's register stash |

use dise_asm::{Asm, Layout};
use dise_cpu::{Event, Exec, Executor, FlushKind, MemOp};
use dise_engine::{Pattern, Production, TDisp, TOperand, TReg, TemplateInst};
use dise_isa::{AluOp, Cond, Instr, OpClass, Operand, Reg, Width};

use crate::app::Edits;
use crate::backend::BackendImpl;
use crate::region::{RegionBuilder, SAVE_BYTES};
use crate::session::DebugError;
use crate::{
    Application, CheckKind, DebugRegion, DiseStrategy, MultiMatch, Transition, TransitionStats,
    WatchExpr, WatchState, Watchpoint,
};

const T_RAW: Reg = Reg::dise(1);
const T_ALN: Reg = Reg::dise(2);
const T_ACC: Reg = Reg::dise(3);
const T_TMP: Reg = Reg::dise(4);
const K0: Reg = Reg::dise(5);
const K1: Reg = Reg::dise(6);
const K2: Reg = Reg::dise(7);
const STASH: Reg = Reg::DERR;
const DBASE: Reg = Reg::DBASE;

/// Where a watched constant lives during matching.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// In a DISE register.
    Reg(Reg),
    /// In the debugger data region at this offset (loaded with one
    /// extra `ldq`).
    Mem(u64),
}

/// Per-watchpoint cells in the debugger data region.
#[derive(Clone, Copy, Debug, Default)]
struct Cells {
    prev: u64,
    cond: Option<u64>,
    target: Option<u64>,
    shadow_abs: Option<u64>,
    /// Byte masks clipping a boundary-quad comparison to the watched
    /// bytes of an unaligned range (region offsets; too wide for
    /// `load_const`).
    mask_lo: Option<u64>,
    mask_hi: Option<u64>,
}

#[derive(Debug)]
pub(crate) struct DiseBackend {
    strategy: DiseStrategy,
    wps: Vec<Watchpoint>,
    productions: Vec<Production>,
    reg_values: Vec<(Reg, u64)>,
    region: Option<DebugRegion>,
    protection_pos: Option<u16>,
    last_store: Option<MemOp>,
}

impl DiseBackend {
    pub fn new(strategy: DiseStrategy) -> DiseBackend {
        DiseBackend {
            strategy,
            wps: Vec::new(),
            productions: Vec::new(),
            reg_values: Vec::new(),
            region: None,
            protection_pos: None,
            last_store: None,
        }
    }
}

fn unsupported(reason: impl Into<String>) -> DebugError {
    DebugError::Unsupported { backend: "dise", reason: reason.into() }
}

fn t_alu(op: AluOp, rd: Reg, ra: Reg, rb: TOperand) -> TemplateInst {
    TemplateInst::Alu { op, rd: TReg::Lit(rd), ra: TReg::Lit(ra), rb }
}

fn t_alu_reg(op: AluOp, rd: Reg, ra: Reg, rb: Reg) -> TemplateInst {
    t_alu(op, rd, ra, TOperand::Reg(TReg::Lit(rb)))
}

fn t_alu_imm(op: AluOp, rd: Reg, ra: Reg, imm: u8) -> TemplateInst {
    t_alu(op, rd, ra, TOperand::Imm(imm))
}

/// `lda dr1, T.IMM(T.RS1)` — reconstruct the store's effective address.
fn t_recon(rd: Reg) -> TemplateInst {
    TemplateInst::Lda { rd: TReg::Lit(rd), base: TReg::Rs1, disp: TDisp::Imm }
}

/// Terminal: conditionally invoke the handler on `flag != 0`.
fn call_tail(conditional_ops: bool, flag: Reg) -> Vec<TemplateInst> {
    if conditional_ops {
        vec![TemplateInst::Fixed(Instr::DCCall { cond: Cond::Ne, rs: flag, target: Reg::DHDLR })]
    } else {
        vec![
            TemplateInst::Fixed(Instr::DBr { cond: Cond::Eq, rs: flag, disp: 1 }),
            TemplateInst::Fixed(Instr::DCall { target: Reg::DHDLR }),
        ]
    }
}

/// Append the debugger's data region, placed at `base`, past the
/// application's data (which ends at `data_end`), zero padding included.
fn append_region(edits: &mut Edits, data_end: u64, base: u64, bytes: &[u8]) {
    edits.data.resize((base - data_end) as usize, 0);
    edits.data.extend_from_slice(bytes);
}

/// Terminal: conditionally trap on `flag` satisfying `cond`.
fn trap_tail(conditional_ops: bool, cond: Cond, flag: Reg) -> Vec<TemplateInst> {
    if conditional_ops {
        vec![TemplateInst::Fixed(Instr::CTrap { cond, rs: flag })]
    } else {
        vec![
            TemplateInst::Fixed(Instr::DBr { cond: cond.negate(), rs: flag, disp: 1 }),
            TemplateInst::Fixed(Instr::Trap),
        ]
    }
}

impl BackendImpl for DiseBackend {
    #[allow(clippy::too_many_lines)]
    fn build_program(
        &mut self,
        app: &Application,
        wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        let prepared = app.prepared()?;
        self.wps = wps.to_vec();
        let s = self.strategy;

        // The image as initially loaded, for initial values.
        let image = prepared.memory();
        // What this backend writes past the application's text and data.
        let mut edits =
            Edits { text_at: prepared.text_end(), entry: prepared.entry(), ..Edits::default() };

        // ---- Inline organisations: single scalar only -----------------
        if matches!(s.check, CheckKind::EvaluateInline | CheckKind::MatchAddressValue) {
            let (addr, width, cond) = match wps {
                [Watchpoint { expr: WatchExpr::Scalar { addr, width }, condition }] => {
                    (*addr, *width, *condition)
                }
                _ => {
                    return Err(unsupported(
                        "inline organisations support exactly one scalar watchpoint",
                    ))
                }
            };
            let prev = image.read_u(addr, width.bytes());
            self.reg_values = vec![(Reg::DAR, addr), (Reg::DPV, prev)];
            if let Some(c) = cond {
                self.reg_values.push((K0, c.equals));
            }

            let mut seq: Vec<TemplateInst> = Vec::new();
            let mut protection = Vec::new();
            if s.protect_debugger {
                // Protection needs a region to protect; inline strategies
                // embed no data, so protect a minimal region anyway for
                // symmetry.
                let builder = RegionBuilder::new();
                let align = builder.required_align();
                let base = prepared.data_end().div_ceil(align) * align;
                let (bytes, region) = builder.finish(base);
                append_region(&mut edits, prepared.data_end(), base, &bytes);
                self.reg_values.push((Reg::DSEG, region.seg_tag()));
                protection = protection_prefix(region.prot_shift);
                self.protection_pos = Some(protection.len() as u16);
                self.region = Some(region);
            }

            seq.extend(protection);
            seq.push(TemplateInst::Trigger);
            match s.check {
                CheckKind::EvaluateInline => {
                    // Fig. 2a/b, plus an in-sequence previous-value
                    // refresh (the paper's figure leaves the update to
                    // the trap path; refreshing inline keeps the
                    // sequence self-contained).
                    seq.push(TemplateInst::Load {
                        width,
                        rd: TReg::Lit(T_RAW),
                        base: TReg::Lit(Reg::DAR),
                        disp: TDisp::Lit(0),
                    });
                    seq.push(t_alu_reg(AluOp::CmpEq, T_ALN, T_RAW, Reg::DPV));
                    seq.push(t_alu_reg(AluOp::Or, Reg::DPV, T_RAW, T_RAW));
                    match cond {
                        None => seq.extend(trap_tail(s.conditional_ops, Cond::Eq, T_ALN)),
                        Some(_) => {
                            seq.push(t_alu_reg(AluOp::CmpEq, T_ACC, T_RAW, K0));
                            seq.push(t_alu_reg(AluOp::Bic, T_ACC, T_ACC, T_ALN));
                            seq.extend(trap_tail(s.conditional_ops, Cond::Ne, T_ACC));
                        }
                    }
                }
                CheckKind::MatchAddressValue => {
                    seq.push(t_recon(T_RAW));
                    seq.push(t_alu_reg(AluOp::CmpEq, T_ALN, T_RAW, Reg::DAR));
                    seq.push(TemplateInst::Alu {
                        op: AluOp::CmpEq,
                        rd: TReg::Lit(T_ACC),
                        ra: TReg::Rd,
                        rb: TOperand::Reg(TReg::Lit(Reg::DPV)),
                    });
                    seq.push(t_alu_reg(AluOp::Bic, T_TMP, T_ALN, T_ACC));
                    if cond.is_some() {
                        seq.push(TemplateInst::Alu {
                            op: AluOp::CmpEq,
                            rd: TReg::Lit(T_ACC),
                            ra: TReg::Rd,
                            rb: TOperand::Reg(TReg::Lit(K0)),
                        });
                        seq.push(t_alu_reg(AluOp::And, T_TMP, T_TMP, T_ACC));
                    }
                    seq.extend(trap_tail(s.conditional_ops, Cond::Ne, T_TMP));
                }
                CheckKind::MatchAddressCall => unreachable!(),
            }
            self.productions =
                vec![Production::new("watch-inline", Pattern::opclass(OpClass::Store), seq)];
            self.add_specialization();
            return Ok(Some(edits));
        }

        // ---- Match-address + handler organisation ---------------------
        // 1. Region layout.
        let mut rb = RegionBuilder::new();
        let mut cells = vec![Cells::default(); wps.len()];
        for (i, w) in wps.iter().enumerate() {
            match w.expr {
                WatchExpr::Scalar { addr, width } => {
                    cells[i].prev = rb.quad(image.read_u(addr, width.bytes()));
                }
                WatchExpr::Indirect { ptr, width } => {
                    let target = image.read_u(ptr, 8);
                    cells[i].prev = rb.quad(image.read_u(target, width.bytes()));
                    cells[i].target = Some(rb.quad(target));
                }
                WatchExpr::Range { base, len } => {
                    // `len > 0` (validated), so `last` is the final
                    // watched byte, possibly `u64::MAX`.
                    let last = base + (len - 1);
                    cells[i].prev = rb.quad(0); // unused; shadow carries state
                    let lo_pad = base % 8;
                    let hi_pad = 7 - last % 8;
                    if lo_pad > 0 {
                        cells[i].mask_lo = Some(rb.quad(u64::MAX << (8 * lo_pad)));
                    }
                    if hi_pad > 0 {
                        cells[i].mask_hi = Some(rb.quad(u64::MAX >> (8 * hi_pad)));
                    }
                }
            }
            if let Some(c) = w.condition {
                cells[i].cond = Some(rb.quad(c.equals));
            }
        }

        // 2. Constant-slot allocation for the matching sequence.
        let use_bloom = !matches!(s.multi_match, MultiMatch::Serial);
        let slots: Vec<Reg> = if use_bloom {
            vec![] // Bloom owns K0/K1; no per-address constants
        } else {
            vec![Reg::DAR, Reg::DAR2, Reg::DAR3, K0, K1, K2]
        };
        let mut next_slot = 0usize;
        fn alloc(
            slots: &[Reg],
            next_slot: &mut usize,
            rb: &mut RegionBuilder,
            value: u64,
            reg_values: &mut Vec<(Reg, u64)>,
        ) -> Slot {
            if *next_slot < slots.len() {
                let r = slots[*next_slot];
                *next_slot += 1;
                reg_values.push((r, value));
                Slot::Reg(r)
            } else {
                Slot::Mem(rb.quad(value))
            }
        }

        // Matching terms, one (or two) per watchpoint.
        enum Term {
            Aligned(Slot),
            Range { lo: Slot, len: Slot },
        }
        let mut terms: Vec<Term> = Vec::new();
        let mut reg_values: Vec<(Reg, u64)> = Vec::new();
        if !use_bloom {
            for (i, w) in wps.iter().enumerate() {
                match w.expr {
                    WatchExpr::Scalar { addr, .. } => {
                        terms.push(Term::Aligned(alloc(
                            &slots,
                            &mut next_slot,
                            &mut rb,
                            addr & !7,
                            &mut reg_values,
                        )));
                    }
                    WatchExpr::Indirect { ptr, .. } => {
                        // The handler rewrites `dar` when the pointer
                        // moves, so the target must own `dar` itself.
                        if i != 0 || next_slot != 0 {
                            return Err(unsupported(
                                "an indirect watchpoint must be the first (it owns `dar`)",
                            ));
                        }
                        let target = image.read_u(ptr, 8);
                        terms.push(Term::Aligned(alloc(
                            &slots,
                            &mut next_slot,
                            &mut rb,
                            target & !7,
                            &mut reg_values,
                        )));
                        terms.push(Term::Aligned(alloc(
                            &slots,
                            &mut next_slot,
                            &mut rb,
                            ptr & !7,
                            &mut reg_values,
                        )));
                    }
                    WatchExpr::Range { base, len } => {
                        let lo = alloc(&slots, &mut next_slot, &mut rb, base, &mut reg_values);
                        let l = alloc(&slots, &mut next_slot, &mut rb, len, &mut reg_values);
                        terms.push(Term::Range { lo, len: l });
                    }
                }
            }
        }

        // 3. Bloom filter block.
        if use_bloom {
            let bitwise = matches!(s.multi_match, MultiMatch::BloomBit);
            let mut filter = vec![0u8; 2048];
            for w in wps {
                let quads: Vec<u64> = match w.expr {
                    WatchExpr::Scalar { addr, width } => quad_span(addr, width.bytes()).collect(),
                    WatchExpr::Range { base, len } => quad_span(base, len).collect(),
                    WatchExpr::Indirect { .. } => {
                        return Err(unsupported(
                            "Bloom matching does not track moving indirect targets; \
                             use serial matching",
                        ))
                    }
                };
                for q in quads {
                    bloom_set(&mut filter, q, bitwise);
                }
            }
            let off = rb.block(&filter, 8);
            // K0 holds the filter's absolute base — patched after the
            // region base is known (marker for now).
            reg_values.push((K0, off)); // placeholder, fixed below
            reg_values.push((K1, if bitwise { 16383 } else { 2047 }));
        }

        // 4. Range shadows.
        for (i, w) in wps.iter().enumerate() {
            if let WatchExpr::Range { base, len } = w.expr {
                let lo = base & !7;
                let last_quad = (base + (len - 1)) & !7;
                let snapshot = image.read_bytes(lo, (last_quad - lo + 8) as usize);
                cells[i].shadow_abs = Some(rb.block(&snapshot, 8));
            }
        }

        // 5. Append the region.
        let align = rb.required_align();
        let base = prepared.data_end().div_ceil(align) * align;
        let (bytes, region) = rb.finish(base);
        append_region(&mut edits, prepared.data_end(), base, &bytes);
        self.region = Some(region);

        // Resolve region-relative placeholders to absolute addresses.
        if use_bloom {
            for (r, v) in &mut reg_values {
                if *r == K0 {
                    *v += base;
                }
            }
        }
        for c in &mut cells {
            if let Some(sh) = &mut c.shadow_abs {
                *sh += base;
            }
        }
        reg_values.push((DBASE, base));

        // 6. The debugger-generated function (Fig. 2e, generalised).
        let handler = generate_handler(wps, &cells, base);
        let hbase = edits.text_at;
        let handler_prog = handler
            .assemble_with(
                Layout {
                    text_base: hbase,
                    data_base: prepared.data_end() + edits.data.len() as u64,
                    stack_top: prepared.stack_top(),
                },
                prepared.symbols(),
            )
            .map_err(DebugError::Asm)?;
        edits.text = handler_prog.text;
        reg_values.push((Reg::DHDLR, hbase));

        // 7. The store production.
        let mut seq: Vec<TemplateInst> = Vec::new();
        if s.protect_debugger {
            let prefix = protection_prefix(region.prot_shift);
            self.protection_pos = Some(prefix.len() as u16);
            reg_values.push((Reg::DSEG, region.seg_tag()));
            seq.extend(prefix);
        }
        seq.push(TemplateInst::Trigger);
        seq.push(t_recon(T_RAW));
        if use_bloom {
            let bitwise = matches!(s.multi_match, MultiMatch::BloomBit);
            seq.push(t_alu_imm(AluOp::Srl, T_ALN, T_RAW, 3));
            seq.push(t_alu_reg(AluOp::And, T_ALN, T_ALN, K1));
            if bitwise {
                seq.push(t_alu_imm(AluOp::Srl, T_ACC, T_ALN, 3));
                seq.push(t_alu_reg(AluOp::Add, T_ACC, T_ACC, K0));
                seq.push(TemplateInst::Load {
                    width: Width::B,
                    rd: TReg::Lit(T_TMP),
                    base: TReg::Lit(T_ACC),
                    disp: TDisp::Lit(0),
                });
                seq.push(t_alu_imm(AluOp::And, T_ALN, T_ALN, 7));
                seq.push(t_alu_reg(AluOp::Srl, T_TMP, T_TMP, T_ALN));
                seq.push(t_alu_imm(AluOp::And, T_TMP, T_TMP, 1));
                seq.extend(call_tail(s.conditional_ops, T_TMP));
            } else {
                seq.push(t_alu_reg(AluOp::Add, T_ALN, T_ALN, K0));
                seq.push(TemplateInst::Load {
                    width: Width::B,
                    rd: TReg::Lit(T_ACC),
                    base: TReg::Lit(T_ALN),
                    disp: TDisp::Lit(0),
                });
                seq.extend(call_tail(s.conditional_ops, T_ACC));
            }
        } else {
            let needs_aligned = terms.iter().any(|t| matches!(t, Term::Aligned(_)));
            if needs_aligned {
                seq.push(t_alu_imm(AluOp::Bic, T_ALN, T_RAW, 7));
            }
            let mut first = true;
            for term in &terms {
                match term {
                    Term::Aligned(slot) => {
                        let cmp_with = match slot {
                            Slot::Reg(r) => *r,
                            Slot::Mem(off) => {
                                seq.push(load_cell(T_TMP, *off)?);
                                T_TMP
                            }
                        };
                        let dst = if first { T_ACC } else { T_TMP };
                        seq.push(t_alu_reg(AluOp::CmpEq, dst, T_ALN, cmp_with));
                        if !first {
                            seq.push(t_alu_reg(AluOp::Or, T_ACC, T_ACC, T_TMP));
                        }
                    }
                    Term::Range { lo, len } => {
                        let lo_reg = match lo {
                            Slot::Reg(r) => *r,
                            Slot::Mem(off) => {
                                seq.push(load_cell(T_TMP, *off)?);
                                T_TMP
                            }
                        };
                        seq.push(t_alu_reg(AluOp::Sub, T_TMP, T_RAW, lo_reg));
                        let len_reg = match len {
                            Slot::Reg(r) => *r,
                            Slot::Mem(off) => {
                                // `T_TMP` holds addr-lo; load the length
                                // into the accumulator position first.
                                let dst = if first { T_ACC } else { T_RAW };
                                return Err(unsupported(format!(
                                    "range watchpoint bounds spilled to memory \
                                     (offset {off}, dst {dst}); reduce watchpoint count",
                                )));
                            }
                        };
                        let dst = if first { T_ACC } else { T_TMP };
                        seq.push(t_alu_reg(AluOp::CmpUlt, dst, T_TMP, len_reg));
                        if !first {
                            seq.push(t_alu_reg(AluOp::Or, T_ACC, T_ACC, T_TMP));
                        }
                    }
                }
                first = false;
            }
            seq.extend(call_tail(s.conditional_ops, T_ACC));
        }
        self.productions =
            vec![Production::new("watch-match", Pattern::opclass(OpClass::Store), seq)];
        self.add_specialization();
        self.reg_values = reg_values;
        Ok(Some(edits))
    }

    fn configure(&mut self, exec: &mut Executor, _wps: &[Watchpoint]) -> Result<(), DebugError> {
        for (r, v) in &self.reg_values {
            exec.set_reg(*r, *v);
        }
        for p in self.productions.drain(..) {
            exec.engine_mut().install(p).map_err(DebugError::Engine)?;
        }
        Ok(())
    }

    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        watch: &mut WatchState,
        stats: &mut TransitionStats,
    ) -> Option<Transition> {
        // Remember the most recent application store (the expansion
        // trigger) for false-positive attribution.
        if let Some(m) = e.mem {
            if m.is_store && !e.in_dise_call {
                self.last_store = Some(m);
            }
        }
        if e.flush == Some(FlushKind::DiseCall) {
            stats.handler_calls += 1;
            if let Some(m) = self.last_store {
                if !watch.store_overlaps(exec.mem(), m.addr, m.width) {
                    stats.false_positive_calls += 1;
                }
            }
        }
        match e.event {
            Some(Event::Trap) => {
                if !e.in_dise_call && self.protection_pos == Some(e.disepc) {
                    return Some(Transition::ProtectionViolation);
                }
                // A value trap: the in-application logic already
                // established that the expression changed (and any
                // condition passed) — every transition reaches the user.
                watch.reevaluate(exec.mem());
                if self.strategy.check == CheckKind::MatchAddressValue {
                    // The debugger refreshes the previous-value register.
                    if let Some(Watchpoint { expr: WatchExpr::Scalar { addr, width }, .. }) =
                        self.wps.first()
                    {
                        let v = exec.mem().read_u(*addr, width.bytes());
                        exec.set_reg(Reg::DPV, v);
                    }
                }
                Some(Transition::User)
            }
            _ => None,
        }
    }

    fn cpu_config(&self, mut base: dise_cpu::CpuConfig) -> dise_cpu::CpuConfig {
        // OR rather than overwrite: `split_timing` may already have
        // folded the strategy's flag into the base configuration.
        base.multithreaded_dise_calls |= self.strategy.multithreaded_calls;
        base
    }
}

impl DiseBackend {
    /// §4 "Pattern matching optimizations": a more specific pass-through
    /// production for stack-pointer stores.
    fn add_specialization(&mut self) {
        if self.strategy.specialize_stack_stores {
            self.productions.push(Production::new(
                "stack-passthrough",
                Pattern::opclass(OpClass::Store).with_base_reg(Reg::SP),
                vec![TemplateInst::Trigger],
            ));
        }
    }
}

/// The Fig. 2f protection prefix: trap to the debugger when a store
/// aims at the debugger's protected block. (The figure branches to an
/// error handler; trapping reports through the same debugger path
/// without a taken-branch flush in the common case.)
fn protection_prefix(shift: u32) -> Vec<TemplateInst> {
    vec![
        t_recon(T_ALN),
        t_alu_imm(AluOp::Srl, T_ACC, T_ALN, shift as u8),
        t_alu_reg(AluOp::CmpEq, T_ACC, T_ACC, Reg::DSEG),
        TemplateInst::Fixed(Instr::CTrap { cond: Cond::Ne, rs: T_ACC }),
    ]
}

/// `ldq rd, off(dbase)` for spilled constants.
fn load_cell(rd: Reg, off: u64) -> Result<TemplateInst, DebugError> {
    if off > dise_isa::MEM_DISP_MAX as u64 {
        return Err(unsupported(format!("spill cell offset {off} exceeds displacement range")));
    }
    Ok(TemplateInst::Load {
        width: Width::Q,
        rd: TReg::Lit(rd),
        base: TReg::Lit(DBASE),
        disp: TDisp::Lit(off as i16),
    })
}

/// The quad-aligned addresses covering `[addr, addr + len)`, wrapping
/// past the top of the address space as memory accesses do.
fn quad_span(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let last = addr.wrapping_add(len.max(1) - 1) & !7;
    std::iter::successors(Some(addr & !7), move |&q| (q != last).then(|| q.wrapping_add(8)))
}

fn bloom_set(filter: &mut [u8], quad_addr: u64, bitwise: bool) {
    let h = quad_addr >> 3;
    if bitwise {
        let idx = (h & 16383) as usize;
        filter[idx >> 3] |= 1 << (idx & 7);
    } else {
        filter[(h & 2047) as usize] = 1;
    }
}

/// Probe a Bloom filter the way the replacement sequence does.
#[cfg(test)]
fn bloom_probe(filter: &[u8], addr: u64, bitwise: bool) -> bool {
    let h = addr >> 3;
    if bitwise {
        let idx = (h & 16383) as usize;
        filter[idx >> 3] & (1 << (idx & 7)) != 0
    } else {
        filter[(h & 2047) as usize] != 0
    }
}

/// Generate the debugger's expression-evaluation function (Fig. 2e,
/// generalised to multiple watchpoints, indirection, ranges and
/// conditions). Straight-line per-entry code: the debugger knows the
/// watchpoint set when it generates the function.
#[allow(clippy::too_many_lines)]
fn generate_handler(wps: &[Watchpoint], cells: &[Cells], base: u64) -> Asm {
    let r1 = Reg::gpr(1);
    let r2 = Reg::gpr(2);
    let r3 = Reg::gpr(3);
    let r4 = Reg::gpr(4);
    let r5 = Reg::gpr(5);
    let r6 = Reg::gpr(6);
    let alu = |op, rd, ra, rb: Operand| Instr::Alu { op, rd, ra, rb };

    let mut a = Asm::new();
    a.label("__handler");
    // Prolog: the calling convention is bespoke (§4.2 "the function
    // cannot use the normal calling convention; instead it treats all
    // registers as callee-saved"). r6 is stashed in a DISE register so
    // it can address the save area.
    a.inst(Instr::DMtr { dr: STASH, rs: r6 });
    a.load_const(r6, base);
    for (i, r) in [r1, r2, r3, r4, r5].iter().enumerate() {
        a.inst(Instr::Store { width: Width::Q, rs: *r, base: r6, disp: (i * 8) as i16 });
    }
    const { assert!(SAVE_BYTES >= 48) };
    // The raw store address computed by the replacement sequence.
    a.inst(Instr::DMfr { rd: r1, dr: T_RAW });

    for (i, (w, c)) in wps.iter().zip(cells).enumerate() {
        let next = format!("__next_{i}");
        let prev_off = c.prev as i16;
        match w.expr {
            WatchExpr::Scalar { addr, width } => {
                a.inst(alu(AluOp::Bic, r2, r1, Operand::Imm(7)));
                a.load_const(r3, addr & !7);
                a.inst(alu(AluOp::CmpEq, r2, r2, Operand::Reg(r3)));
                a.cond_br(Cond::Eq, r2, &next);
                a.load_const(r3, addr);
                a.inst(Instr::Load { width, rd: r4, base: r3, disp: 0 });
                a.inst(Instr::Load { width: Width::Q, rd: r5, base: r6, disp: prev_off });
                a.inst(alu(AluOp::CmpEq, r5, r5, Operand::Reg(r4)));
                a.cond_br(Cond::Ne, r5, "__done"); // silent store: pruned in-app
                a.inst(Instr::Store { width: Width::Q, rs: r4, base: r6, disp: prev_off });
                emit_condition(&mut a, c, r4, r5, r6);
                a.inst(Instr::Trap);
                a.br("__done");
                a.label(&next);
            }
            WatchExpr::Indirect { ptr, width } => {
                let tgt_off = c.target.expect("indirect has a target cell") as i16;
                let chk = format!("__tgt_{i}");
                a.inst(alu(AluOp::Bic, r2, r1, Operand::Imm(7)));
                a.load_const(r3, ptr & !7);
                a.inst(alu(AluOp::CmpEq, r3, r2, Operand::Reg(r3)));
                a.cond_br(Cond::Eq, r3, &chk);
                // The pointer cell itself was written: re-dereference and
                // retarget the match register.
                a.load_const(r3, ptr);
                a.inst(Instr::Load { width: Width::Q, rd: r3, base: r3, disp: 0 });
                a.inst(Instr::Store { width: Width::Q, rs: r3, base: r6, disp: tgt_off });
                a.inst(alu(AluOp::Bic, r4, r3, Operand::Imm(7)));
                a.inst(Instr::DMtr { dr: Reg::DAR, rs: r4 });
                // Its current value becomes the reference.
                a.inst(Instr::Load { width, rd: r4, base: r3, disp: 0 });
                a.inst(Instr::Store { width: Width::Q, rs: r4, base: r6, disp: prev_off });
                a.br("__done");
                a.label(&chk);
                a.inst(Instr::Load { width: Width::Q, rd: r3, base: r6, disp: tgt_off });
                a.inst(alu(AluOp::Bic, r4, r3, Operand::Imm(7)));
                a.inst(alu(AluOp::CmpEq, r4, r2, Operand::Reg(r4)));
                a.cond_br(Cond::Eq, r4, &next);
                a.inst(Instr::Load { width, rd: r4, base: r3, disp: 0 });
                a.inst(Instr::Load { width: Width::Q, rd: r5, base: r6, disp: prev_off });
                a.inst(alu(AluOp::CmpEq, r5, r5, Operand::Reg(r4)));
                a.cond_br(Cond::Ne, r5, "__done");
                a.inst(Instr::Store { width: Width::Q, rs: r4, base: r6, disp: prev_off });
                emit_condition(&mut a, c, r4, r5, r6);
                a.inst(Instr::Trap);
                a.br("__done");
                a.label(&next);
            }
            WatchExpr::Range { base: lo, len } => {
                let shadow = c.shadow_abs.expect("range has a shadow");
                a.load_const(r2, lo);
                a.inst(alu(AluOp::CmpUlt, r2, r1, Operand::Reg(r2)));
                a.cond_br(Cond::Ne, r2, &next); // below the range
                if let Some(end) = lo.checked_add(len) {
                    // (A range ending at the top of the address space
                    // has nothing above it.)
                    a.load_const(r2, end);
                    a.inst(alu(AluOp::CmpUlt, r2, r1, Operand::Reg(r2)));
                    a.cond_br(Cond::Eq, r2, &next); // at/above the range
                }
                // An in-range store of up to 8 bytes can touch the quad
                // holding its first byte *and* the next one, and the
                // first/last quads of an unaligned range also hold bytes
                // outside [lo, lo+len). Check every watched quad the
                // store can reach, clip each difference down to the
                // watched bytes (boundary masks live in the debugger
                // data region), update the shadows, and take a single
                // conditional trap if any watched byte changed — so a
                // store straddling the range end (or an interior quad
                // boundary) neither raises a false transition nor
                // escapes a real one. (A store *starting* below `lo`
                // that overlaps in is not matched by the replacement
                // sequence at all; the paper's sequences match the
                // store's base address.)
                let first_quad = lo & !7;
                let last_quad = (lo + (len - 1)) & !7;
                a.inst(alu(AluOp::Bic, r2, r1, Operand::Imm(7)));
                a.inst(Instr::DMtr { dr: T_ACC, rs: Reg::ZERO }); // no pending trap
                let check_quad = |a: &mut Asm, pass: usize| {
                    a.inst(Instr::Load { width: Width::Q, rd: r3, base: r2, disp: 0 });
                    // Shadow slot for this quad.
                    a.load_const(r4, first_quad);
                    a.inst(alu(AluOp::Sub, r4, r2, Operand::Reg(r4)));
                    a.load_const(r5, shadow);
                    a.inst(alu(AluOp::Add, r4, r4, Operand::Reg(r5)));
                    a.inst(Instr::Load { width: Width::Q, rd: r5, base: r4, disp: 0 });
                    a.inst(alu(AluOp::Xor, r5, r5, Operand::Reg(r3)));
                    let masked = c.mask_lo.is_some() || c.mask_hi.is_some();
                    if masked {
                        // Free r3 for mask work; the handler may use
                        // DISE scratch registers through d_mtr/d_mfr,
                        // and the replacement sequence is past reading
                        // T_TMP.
                        a.inst(Instr::DMtr { dr: T_TMP, rs: r3 });
                        let clip = |a: &mut Asm, which: &str, quad: u64, mask_off: u64| {
                            let skip = format!("__mask_{which}_{pass}_{i}");
                            a.load_const(r3, quad);
                            a.inst(alu(AluOp::CmpEq, r3, r2, Operand::Reg(r3)));
                            a.cond_br(Cond::Eq, r3, &skip);
                            a.inst(Instr::Load {
                                width: Width::Q,
                                rd: r3,
                                base: r6,
                                disp: mask_off as i16,
                            });
                            a.inst(alu(AluOp::And, r5, r5, Operand::Reg(r3)));
                            a.label(&skip);
                        };
                        if let Some(off) = c.mask_lo {
                            clip(a, "lo", first_quad, off);
                        }
                        if let Some(off) = c.mask_hi {
                            clip(a, "hi", last_quad, off);
                        }
                    }
                    let clean = format!("__quad_clean_{pass}_{i}");
                    a.cond_br(Cond::Eq, r5, &clean); // no watched byte changed
                    if masked {
                        a.inst(Instr::DMfr { rd: r3, dr: T_TMP });
                    }
                    a.inst(Instr::Store { width: Width::Q, rs: r3, base: r4, disp: 0 });
                    a.inst(Instr::DMtr { dr: T_ACC, rs: r5 }); // nonzero: trap below
                    a.label(&clean);
                };
                check_quad(&mut a, 0);
                if first_quad < last_quad {
                    // The store may spill into the next quad; skip when
                    // that quad is past the watched span.
                    let skip = format!("__quad_skip_{i}");
                    a.inst(alu(AluOp::Add, r2, r2, Operand::Imm(8)));
                    a.load_const(r3, last_quad);
                    a.inst(alu(AluOp::CmpUlt, r3, r3, Operand::Reg(r2)));
                    a.cond_br(Cond::Ne, r3, &skip);
                    check_quad(&mut a, 1);
                    a.label(&skip);
                }
                a.inst(Instr::DMfr { rd: r3, dr: T_ACC });
                a.inst(Instr::CTrap { cond: Cond::Ne, rs: r3 });
                a.br("__done");
                a.label(&next);
            }
        }
    }

    // Epilog: restore and return into the replacement sequence.
    a.label("__done");
    for (i, r) in [r1, r2, r3, r4, r5].iter().enumerate() {
        a.inst(Instr::Load { width: Width::Q, rd: *r, base: r6, disp: (i * 8) as i16 });
    }
    a.inst(Instr::DMfr { rd: r6, dr: STASH });
    a.inst(Instr::DRet);
    a
}

/// Conditional watchpoints: the predicate guards the trap inside the
/// generated function (§4.3).
fn emit_condition(a: &mut Asm, c: &Cells, value: Reg, tmp: Reg, base: Reg) {
    if let Some(off) = c.cond {
        a.inst(Instr::Load { width: Width::Q, rd: tmp, base, disp: off as i16 });
        a.inst(Instr::Alu { op: AluOp::CmpEq, rd: tmp, ra: value, rb: Operand::Reg(tmp) });
        a.cond_br(Cond::Eq, tmp, "__done");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_no_false_negatives() {
        for bitwise in [false, true] {
            let mut f = vec![0u8; 2048];
            let watched = [0x0100_0000u64, 0x0100_0040, 0x0123_4568];
            for &w in &watched {
                for q in quad_span(w, 8) {
                    bloom_set(&mut f, q, bitwise);
                }
            }
            for &w in &watched {
                assert!(bloom_probe(&f, w, bitwise), "watched address must probe set");
                assert!(bloom_probe(&f, w + 7, bitwise), "same quad");
            }
        }
    }

    #[test]
    fn bitwise_bloom_has_fewer_aliases() {
        let mut byte = vec![0u8; 2048];
        let mut bit = vec![0u8; 2048];
        for q in (0..64u64).map(|i| 0x0100_0000 + i * 8) {
            bloom_set(&mut byte, q, false);
            bloom_set(&mut bit, q, true);
        }
        let probes: Vec<u64> = (0..20_000).map(|i| 0x0200_0000 + i * 8).collect();
        let fp_byte = probes.iter().filter(|&&a| bloom_probe(&byte, a, false)).count();
        let fp_bit = probes.iter().filter(|&&a| bloom_probe(&bit, a, true)).count();
        assert!(
            fp_bit <= fp_byte,
            "bitwise ({fp_bit}) should alias no more than bytewise ({fp_byte})"
        );
    }

    #[test]
    fn quad_span_covers_partial_quads() {
        assert_eq!(quad_span(0x100, 8).collect::<Vec<_>>(), vec![0x100]);
        assert_eq!(quad_span(0x104, 8).collect::<Vec<_>>(), vec![0x100, 0x108]);
        assert_eq!(quad_span(0x101, 1).collect::<Vec<_>>(), vec![0x100]);
        assert_eq!(quad_span(u64::MAX, 1).collect::<Vec<_>>(), vec![u64::MAX - 7]);
        assert_eq!(quad_span(u64::MAX - 3, 8).collect::<Vec<_>>(), vec![u64::MAX - 7, 0]);
    }

    #[test]
    fn protection_prefix_shape() {
        let p = protection_prefix(11);
        assert_eq!(p.len(), 4);
        assert!(matches!(p[3], TemplateInst::Fixed(Instr::CTrap { .. })));
    }
}
