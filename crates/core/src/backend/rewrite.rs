//! Static binary rewriting (§5.1 "Static transformation", Fig. 5): the
//! check of Fig. 2c inlined at every store, with no static optimization.
//!
//! The transformation happens at the pre-layout assembly level, which is
//! how recompilation-based systems (Wahbe et al.) operate: branch
//! retargeting comes for free from re-assembly, and register scavenging
//! is modeled by three reserved registers (`r25`, `r27`, `r28`) that the
//! calibrated workloads leave unused — a real implementation would
//! re-allocate registers instead. A program that reads or writes one of
//! them is refused as unsupported.

use dise_asm::{Asm, AsmError, Layout, TextItem};
use dise_cpu::{Event, Exec, Executor};
use dise_isa::{AluOp, Cond, Instr, Operand, Reg, Width};

use crate::app::Edits;
use crate::backend::{classify, BackendImpl};
use crate::session::DebugError;
use crate::{Application, Transition, TransitionStats, WatchExpr, WatchState, Watchpoint};

/// The previous-value cell the inlined check compares against.
const PREV: &str = "__bw_prev";

/// Registers scavenged from the application.
const S1: Reg = Reg::gpr(25);
const S2: Reg = Reg::gpr(27);
const S3: Reg = Reg::gpr(28);

/// The registers a text item reads or writes.
fn registers(item: &TextItem) -> [Option<Reg>; 3] {
    match item {
        TextItem::Inst(i) => [i.sources()[0], i.sources()[1], i.dest()],
        TextItem::BranchTo { link: r, .. }
        | TextItem::CondBranchTo { rs: r, .. }
        | TextItem::LoadAddr { rd: r, .. } => [Some(*r), None, None],
        TextItem::Label(_) | TextItem::Stmt => [None; 3],
    }
}

#[derive(Debug, Default)]
pub(crate) struct Rewrite;

impl BackendImpl for Rewrite {
    fn build_program(
        &mut self,
        app: &Application,
        wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        let (addr, width) = match wps {
            [Watchpoint { expr: WatchExpr::Scalar { addr, width }, condition: None }] => {
                (*addr, *width)
            }
            _ => {
                return Err(DebugError::Unsupported {
                    backend: "binary-rewrite",
                    reason: "rewriting experiment covers a single unconditional scalar \
                             watchpoint (Fig. 5)"
                        .to_string(),
                })
            }
        };

        // The watched address is known from the *unmodified* layout; the
        // transformation only grows text and appends data, so data
        // addresses are unchanged. Only the text is reassembled, against
        // the application's symbols: the initialised data (quads patched
        // in included) carries over from the prepared image.
        let mut items = Vec::with_capacity(app.asm().text_items().len() * 4);
        let mut skips = Vec::new();
        for item in app.asm().text_items() {
            // The inlined check overwrites the scavenged registers, so a
            // program that uses one would silently compute wrong values.
            if let Some(r) =
                registers(item).into_iter().flatten().find(|r| [S1, S2, S3].contains(r))
            {
                return Err(DebugError::Unsupported {
                    backend: "binary-rewrite",
                    reason: format!(
                        "the program uses {r}, a register the inlined check scavenges \
                         (r25, r27, r28)"
                    ),
                });
            }
            match item {
                TextItem::Inst(i @ Instr::Store { base, disp, .. }) => {
                    items.push(TextItem::Inst(*i));
                    let skip = format!("__bw_skip_{}", skips.len());
                    let mut frag = Asm::new();
                    // Reconstruct and align the store address.
                    frag.inst(Instr::Lda { rd: S2, base: *base, disp: *disp });
                    frag.inst(alu(AluOp::Bic, S2, S2, Operand::Imm(7)));
                    frag.load_const(S3, addr & !7);
                    frag.inst(alu(AluOp::CmpEq, S2, S2, Operand::Reg(S3)));
                    frag.cond_br(Cond::Eq, S2, &skip);
                    // Match: evaluate the expression.
                    frag.load_const(S3, addr);
                    frag.inst(Instr::Load { width, rd: S2, base: S3, disp: 0 });
                    frag.load_addr(S3, PREV, 0);
                    frag.inst(Instr::Load { width: Width::Q, rd: S1, base: S3, disp: 0 });
                    frag.inst(alu(AluOp::CmpEq, S1, S1, Operand::Reg(S2)));
                    frag.cond_br(Cond::Ne, S1, &skip); // silent store
                    frag.inst(Instr::Store { width: Width::Q, rs: S2, base: S3, disp: 0 });
                    frag.inst(Instr::Trap);
                    frag.label(&skip);
                    items.extend(frag.text_items().iter().cloned());
                    skips.push(skip);
                }
                other => items.push(other.clone()),
            }
        }

        let prepared = app.prepared()?;
        // A label the rewrite adds must be new: assembling the whole
        // rewritten unit would report it bound twice.
        if let Some(dup) = std::iter::once(PREV)
            .chain(skips.iter().map(String::as_str))
            .find(|l| prepared.symbol(l).is_some())
        {
            return Err(AsmError::DuplicateSymbol(dup.to_string()).into());
        }
        // The rewritten text, and the previous-value cell past the data.
        let mut out = Asm::new();
        out.set_text_items(items);
        out.align(8).data_label(PREV).quad(0);
        let layout = Layout { data_base: prepared.data_end(), ..app.layout() };
        let prog = out.assemble_with(layout, prepared.symbols())?;

        // Address-of quads naming a text label follow it to its new place.
        let relocations = app
            .asm()
            .data_layout(app.layout().data_base)?
            .addr_cells
            .into_iter()
            .filter_map(|(cell, sym)| prog.symbol(&sym).map(|a| (cell, a)))
            .collect();
        // Initialise the prev cell with the watched variable's initial
        // value from the image.
        let init = prepared.memory().read_u(addr, width.bytes());
        let off = (prog.symbol(PREV).expect("cell exists") - prog.data_base) as usize;
        let mut data = prog.data;
        data[off..off + 8].copy_from_slice(&init.to_le_bytes());
        Ok(Some(Edits {
            text_at: prog.text_base,
            text: prog.text,
            relocations,
            data,
            entry: prog.entry,
        }))
    }

    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        watch: &mut WatchState,
        _stats: &mut TransitionStats,
    ) -> Option<Transition> {
        // The inlined check traps only when the expression's value
        // changed: every transition reaches the user.
        if matches!(e.event, Some(Event::Trap)) {
            let (changed, pred_ok) = watch.reevaluate(exec.mem());
            Some(classify(changed, pred_ok, true))
        } else {
            None
        }
    }
}

fn alu(op: AluOp, rd: Reg, ra: Reg, rb: Operand) -> Instr {
    Instr::Alu { op, rd, ra, rb }
}
