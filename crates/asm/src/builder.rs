//! The programmatic assembly builder.

use dise_isa::{Cond, Instr, Reg};

/// One item of the text section, prior to layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TextItem {
    /// A label binding the address of the next instruction.
    Label(String),
    /// A fully resolved instruction.
    Inst(Instr),
    /// An unconditional branch to a label (`br`/`bsr`), resolved at
    /// assembly time.
    BranchTo {
        /// Link register ([`Reg::ZERO`] for a plain branch).
        link: Reg,
        /// Target label.
        target: String,
    },
    /// A conditional branch to a label.
    CondBranchTo {
        /// Branch condition.
        cond: Cond,
        /// Tested register.
        rs: Reg,
        /// Target label.
        target: String,
    },
    /// Materialise the 64-bit address of `symbol + offset` into `rd`;
    /// expands to an `ldah`/`lda` pair.
    LoadAddr {
        /// Destination register.
        rd: Reg,
        /// Symbol (text or data label).
        symbol: String,
        /// Byte offset added to the symbol address.
        offset: i64,
    },
    /// A source-statement boundary marker (no code emitted; the PC of the
    /// next instruction is recorded in [`crate::Program::stmt_pcs`]).
    Stmt,
}

impl TextItem {
    /// Number of encoded instructions this item occupies.
    pub fn len(&self) -> u64 {
        match self {
            TextItem::Label(_) | TextItem::Stmt => 0,
            TextItem::LoadAddr { .. } => 2,
            _ => 1,
        }
    }

    /// True if the item emits no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One item of the data section.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DataItem {
    /// A label binding the current data address.
    Label(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// `n` zero bytes.
    Space(u64),
    /// Pad with zeros to the given power-of-two alignment.
    Align(u64),
    /// A quad holding the address of `symbol` (resolved at assembly).
    AddrOf(String),
}

/// Incremental builder for a two-section (text + data) assembly unit.
///
/// The builder is the unit of *static transformation*: the debugger's
/// binary-rewriting backend consumes [`Asm::text_items`], splices in its
/// instrumentation, and reassembles.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Asm {
    pub(crate) text: Vec<TextItem>,
    pub(crate) data: Vec<DataItem>,
}

impl Asm {
    /// An empty unit.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Bind `name` to the next text address.
    pub fn label(&mut self, name: &str) -> &mut Asm {
        self.text.push(TextItem::Label(name.to_string()));
        self
    }

    /// Append a resolved instruction.
    pub fn inst(&mut self, i: Instr) -> &mut Asm {
        self.text.push(TextItem::Inst(i));
        self
    }

    /// Append several resolved instructions.
    pub fn insts<I: IntoIterator<Item = Instr>>(&mut self, is: I) -> &mut Asm {
        self.text.extend(is.into_iter().map(TextItem::Inst));
        self
    }

    /// Unconditional branch to `target`, no link.
    pub fn br(&mut self, target: &str) -> &mut Asm {
        self.text.push(TextItem::BranchTo { link: Reg::ZERO, target: target.to_string() });
        self
    }

    /// Branch-and-link (`bsr`) to `target`.
    pub fn bsr(&mut self, link: Reg, target: &str) -> &mut Asm {
        self.text.push(TextItem::BranchTo { link, target: target.to_string() });
        self
    }

    /// Conditional branch to `target`.
    pub fn cond_br(&mut self, cond: Cond, rs: Reg, target: &str) -> &mut Asm {
        self.text.push(TextItem::CondBranchTo { cond, rs, target: target.to_string() });
        self
    }

    /// Materialise `symbol + offset` into `rd` (two instructions).
    pub fn load_addr(&mut self, rd: Reg, symbol: &str, offset: i64) -> &mut Asm {
        self.text.push(TextItem::LoadAddr { rd, symbol: symbol.to_string(), offset });
        self
    }

    /// Materialise a known constant (e.g. an already-resolved address)
    /// into `rd` as an `ldah`/`lda` pair.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds the two-instruction range (≈ 2^27);
    /// all simulator segment addresses fit.
    pub fn load_const(&mut self, rd: Reg, value: u64) -> &mut Asm {
        let (hi, lo) = crate::program::split_addr(value)
            .unwrap_or_else(|| panic!("constant {value:#x} not materialisable"));
        self.inst(Instr::Ldah { rd, base: Reg::ZERO, disp: hi });
        self.inst(Instr::Lda { rd, base: rd, disp: lo });
        self
    }

    /// Mark a source-statement boundary at the next instruction.
    pub fn stmt(&mut self) -> &mut Asm {
        self.text.push(TextItem::Stmt);
        self
    }

    /// Bind `name` to the next data address.
    pub fn data_label(&mut self, name: &str) -> &mut Asm {
        self.data.push(DataItem::Label(name.to_string()));
        self
    }

    /// Append a 64-bit little-endian quad to the data section.
    pub fn quad(&mut self, v: u64) -> &mut Asm {
        self.data.push(DataItem::Bytes(v.to_le_bytes().to_vec()));
        self
    }

    /// Append a 32-bit little-endian long.
    pub fn long(&mut self, v: u32) -> &mut Asm {
        self.data.push(DataItem::Bytes(v.to_le_bytes().to_vec()));
        self
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Asm {
        self.bytes_vec(b.to_vec())
    }

    /// Append raw bytes already in a vector, without copying them (a
    /// large initialiser, say).
    pub fn bytes_vec(&mut self, b: Vec<u8>) -> &mut Asm {
        self.data.push(DataItem::Bytes(b));
        self
    }

    /// Append `n` zero bytes.
    pub fn space(&mut self, n: u64) -> &mut Asm {
        self.data.push(DataItem::Space(n));
        self
    }

    /// Align the data cursor to `n` bytes (power of two).
    pub fn align(&mut self, n: u64) -> &mut Asm {
        self.data.push(DataItem::Align(n));
        self
    }

    /// Append a quad holding the address of `symbol` (text or data
    /// label), resolved at assembly time.
    pub fn addr_quad(&mut self, symbol: &str) -> &mut Asm {
        self.data.push(DataItem::AddrOf(symbol.to_string()));
        self
    }

    /// The text items accumulated so far (for static transformation).
    pub fn text_items(&self) -> &[TextItem] {
        &self.text
    }

    /// The data items accumulated so far.
    pub fn data_items(&self) -> &[DataItem] {
        &self.data
    }

    /// Replace the text section (used by the binary-rewriting backend
    /// after splicing in instrumentation).
    pub fn set_text_items(&mut self, items: Vec<TextItem>) {
        self.text = items;
    }

    /// Number of encoded instructions the current text section will
    /// occupy.
    pub fn text_len(&self) -> u64 {
        self.text.iter().map(TextItem::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::{AluOp, Operand};

    #[test]
    fn item_lengths() {
        assert_eq!(TextItem::Label("x".into()).len(), 0);
        assert_eq!(TextItem::Stmt.len(), 0);
        assert_eq!(TextItem::Inst(Instr::Nop).len(), 1);
        assert_eq!(TextItem::LoadAddr { rd: Reg::gpr(1), symbol: "d".into(), offset: 0 }.len(), 2);
        assert!(TextItem::Label("x".into()).is_empty());
    }

    #[test]
    fn builder_accumulates() {
        let mut a = Asm::new();
        a.label("start")
            .inst(Instr::Nop)
            .load_addr(Reg::gpr(1), "var", 8)
            .stmt()
            .inst(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::gpr(2),
                ra: Reg::gpr(1),
                rb: Operand::Imm(1),
            })
            .br("start");
        assert_eq!(a.text_items().len(), 6);
        assert_eq!(a.text_len(), 5); // nop + 2 + alu + br
        a.data_label("var").quad(42).align(64).space(8);
        assert_eq!(a.data_items().len(), 4);
    }
}
