//! Layout, assembly (two-pass), and loadable program images.

use std::collections::{HashMap, HashSet};
use std::fmt;

use dise_isa::{decode, encode, Instr, Reg, INSTR_BYTES, MEM_DISP_MAX, MEM_DISP_MIN};

use crate::{Asm, DataItem, TextItem};

/// Segment placement for assembly.
///
/// All bases must be below 2^27 so that a two-instruction
/// `ldah`/`lda` pair can materialise any address (see
/// [`Asm::load_addr`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    /// Base of the text segment.
    pub text_base: u64,
    /// Base of the data segment.
    pub data_base: u64,
    /// Initial stack pointer (stacks grow down).
    pub stack_top: u64,
}

impl Default for Layout {
    fn default() -> Layout {
        Layout { text_base: 0x0010_0000, data_base: 0x0100_0000, stack_top: 0x07FF_C000 }
    }
}

/// Errors from [`Asm::assemble`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A branch or `load_addr` referenced an unbound label.
    UndefinedSymbol(String),
    /// The same label was bound twice.
    DuplicateSymbol(String),
    /// A branch target is beyond the 20-bit displacement range.
    BranchOutOfRange {
        /// The unreachable label.
        target: String,
        /// The computed instruction displacement.
        disp: i64,
    },
    /// A symbol address cannot be materialised by `ldah`/`lda`.
    AddrOutOfRange {
        /// The symbol.
        symbol: String,
        /// Its address.
        addr: u64,
    },
    /// A data alignment was not a power of two.
    BadAlignment(u64),
    /// The data section would exceed [`MAX_DATA_BYTES`] (or run past
    /// the top of the address space).
    DataTooLarge,
}

/// The largest data section [`Asm::assemble`] lays out: 1 GiB, far
/// above any workload's and far below what would exhaust the host when
/// a `.space` or `.align` asks for more.
pub const MAX_DATA_BYTES: u64 = 1 << 30;

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedSymbol(s) => write!(f, "undefined symbol `{s}`"),
            AsmError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            AsmError::BranchOutOfRange { target, disp } => {
                write!(f, "branch to `{target}` out of range (disp {disp})")
            }
            AsmError::AddrOutOfRange { symbol, addr } => {
                write!(f, "address {addr:#x} of `{symbol}` not materialisable")
            }
            AsmError::BadAlignment(a) => write!(f, "alignment {a} is not a power of two"),
            AsmError::DataTooLarge => {
                write!(f, "data section exceeds {MAX_DATA_BYTES} bytes")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// A fully laid-out, loadable program image.
#[derive(Clone, Debug)]
pub struct Program {
    /// Base address of the text segment.
    pub text_base: u64,
    /// Encoded text, one 32-bit word per instruction.
    pub text: Vec<u32>,
    /// Base address of the data segment.
    pub data_base: u64,
    /// Initialised data bytes.
    pub data: Vec<u8>,
    /// Entry PC (`start` label if defined, else `text_base`).
    pub entry: u64,
    /// Initial stack pointer.
    pub stack_top: u64,
    /// All label addresses (text and data).
    pub symbols: HashMap<String, u64>,
    /// PCs of source-statement boundaries (for single-stepping).
    pub stmt_pcs: HashSet<u64>,
}

/// Split a 64-bit address into an `(ldah, lda)` displacement pair:
/// `addr == (hi << 14) + lo` with `lo` in the signed 14-bit range.
///
/// Returns `None` when `hi` itself does not fit 14 signed bits
/// (addresses ≥ ~2^27).
pub(crate) fn split_addr(addr: u64) -> Option<(i16, i16)> {
    let a = addr as i64;
    let hi = (a + (1 << 13)) >> 14;
    let lo = a - (hi << 14);
    if hi < MEM_DISP_MIN as i64 || hi > MEM_DISP_MAX as i64 {
        return None;
    }
    debug_assert!((MEM_DISP_MIN as i64..=MEM_DISP_MAX as i64).contains(&lo));
    Some((hi as i16, lo as i16))
}

impl Asm {
    /// Assemble into a [`Program`] under the given layout.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for undefined or duplicate labels,
    /// unreachable branch targets, unmaterialisable addresses, bad
    /// alignments, or a data section over [`MAX_DATA_BYTES`].
    pub fn assemble(&self, layout: Layout) -> Result<Program, AsmError> {
        self.assemble_with(layout, &HashMap::new())
    }

    /// Assemble with additional *external* symbols (addresses defined
    /// outside this unit). The debugger uses this to assemble its
    /// dynamically generated handler function against the already-loaded
    /// application image.
    ///
    /// # Errors
    ///
    /// As [`Asm::assemble`]; local labels shadow externals.
    pub fn assemble_with(
        &self,
        layout: Layout,
        externs: &HashMap<String, u64>,
    ) -> Result<Program, AsmError> {
        let mut symbols: HashMap<String, u64> = HashMap::new();
        let bind = |name: &str, addr: u64, symbols: &mut HashMap<String, u64>| {
            if symbols.insert(name.to_string(), addr).is_some() {
                Err(AsmError::DuplicateSymbol(name.to_string()))
            } else {
                Ok(())
            }
        };

        // Pass 1a: data layout (so text can reference data symbols), into
        // a buffer sized up front: a large initialiser is copied once,
        // never regrown.
        let mut data: Vec<u8> = Vec::new();
        let len = self.lay_out_data(layout.data_base, |_, _| Ok(())).unwrap_or(0);
        let _ = data.try_reserve_exact(usize::try_from(len).unwrap_or(0));
        let mut addr_fixups: Vec<(usize, String)> = Vec::new();
        let data_len = self.lay_out_data(layout.data_base, |item, off| {
            // Alignment padding: zeros up to the item's offset.
            data.resize(off as usize, 0);
            match item {
                DataItem::Label(name) => bind(name, layout.data_base + off, &mut symbols)?,
                DataItem::Bytes(b) => data.extend_from_slice(b),
                DataItem::Space(n) => data.resize(data.len() + *n as usize, 0),
                DataItem::AddrOf(sym) => {
                    addr_fixups.push((data.len(), sym.clone()));
                    data.extend_from_slice(&[0; 8]);
                }
                DataItem::Align(_) => {}
            }
            Ok(())
        })?;
        data.resize(data_len as usize, 0);

        // Pass 1b: text label addresses and statement PCs.
        let mut pc = layout.text_base;
        let mut stmt_pcs = HashSet::new();
        for item in self.text_items() {
            match item {
                TextItem::Label(name) => bind(name, pc, &mut symbols)?,
                TextItem::Stmt => {
                    stmt_pcs.insert(pc);
                }
                other => pc += other.len() * INSTR_BYTES,
            }
        }

        // Pass 2: emit.
        let mut text: Vec<u32> = Vec::with_capacity(self.text_len() as usize);
        let mut pc = layout.text_base;
        let lookup = |name: &str| -> Result<u64, AsmError> {
            symbols
                .get(name)
                .copied()
                .or_else(|| externs.get(name).copied())
                .ok_or_else(|| AsmError::UndefinedSymbol(name.to_string()))
        };
        let branch_disp = |pc: u64, target: &str, addr: u64| -> Result<i32, AsmError> {
            let disp = (addr as i64 - (pc as i64 + 4)) / INSTR_BYTES as i64;
            if !(-(1 << 19)..(1 << 19)).contains(&disp) {
                return Err(AsmError::BranchOutOfRange { target: target.to_string(), disp });
            }
            Ok(disp as i32)
        };
        for item in self.text_items() {
            match item {
                TextItem::Label(_) | TextItem::Stmt => {}
                TextItem::Inst(i) => {
                    text.push(encode(i));
                    pc += INSTR_BYTES;
                }
                TextItem::BranchTo { link, target } => {
                    let addr = lookup(target)?;
                    let disp = branch_disp(pc, target, addr)?;
                    text.push(encode(&Instr::Br { rd: *link, disp }));
                    pc += INSTR_BYTES;
                }
                TextItem::CondBranchTo { cond, rs, target } => {
                    let addr = lookup(target)?;
                    let disp = branch_disp(pc, target, addr)?;
                    text.push(encode(&Instr::CondBr { cond: *cond, rs: *rs, disp }));
                    pc += INSTR_BYTES;
                }
                TextItem::LoadAddr { rd, symbol, offset } => {
                    let addr = lookup(symbol)?.wrapping_add(*offset as u64);
                    let (hi, lo) = split_addr(addr)
                        .ok_or(AsmError::AddrOutOfRange { symbol: symbol.clone(), addr })?;
                    text.push(encode(&Instr::Ldah { rd: *rd, base: Reg::ZERO, disp: hi }));
                    text.push(encode(&Instr::Lda { rd: *rd, base: *rd, disp: lo }));
                    pc += 2 * INSTR_BYTES;
                }
            }
        }

        // Patch address-of data cells now that all labels are bound.
        for (off, sym) in addr_fixups {
            let addr = symbols
                .get(&sym)
                .copied()
                .or_else(|| externs.get(&sym).copied())
                .ok_or_else(|| AsmError::UndefinedSymbol(sym.clone()))?;
            data[off..off + 8].copy_from_slice(&addr.to_le_bytes());
        }

        let entry = symbols.get("start").copied().unwrap_or(layout.text_base);
        Ok(Program {
            text_base: layout.text_base,
            text,
            data_base: layout.data_base,
            data,
            entry,
            stack_top: layout.stack_top,
            symbols,
            stmt_pcs,
        })
    }

    /// Lay the data section out at `data_base` without copying a byte:
    /// `visit` sees every item with its offset from `data_base` (after
    /// any alignment padding it implies). Returns the section's length.
    fn lay_out_data(
        &self,
        data_base: u64,
        mut visit: impl FnMut(&DataItem, u64) -> Result<(), AsmError>,
    ) -> Result<u64, AsmError> {
        // Every length stays within `MAX_DATA_BYTES` of `data_base`, so
        // checked arithmetic covers a hostile size or alignment.
        let bounded = |len: Option<u64>| {
            len.filter(|&l| l <= MAX_DATA_BYTES && data_base.checked_add(l).is_some())
                .ok_or(AsmError::DataTooLarge)
        };
        let mut len = 0u64;
        for item in self.data_items() {
            if let DataItem::Align(n) = item {
                if !n.is_power_of_two() {
                    return Err(AsmError::BadAlignment(*n));
                }
                len =
                    bounded((data_base + len).checked_next_multiple_of(*n).map(|a| a - data_base))?;
            }
            let end = bounded(len.checked_add(match item {
                DataItem::Bytes(b) => b.len() as u64,
                DataItem::Space(n) => *n,
                DataItem::AddrOf(_) => 8,
                DataItem::Label(_) | DataItem::Align(_) => 0,
            }))?;
            visit(item, len)?;
            len = end;
        }
        Ok(len)
    }

    /// Where [`Asm::assemble`] places the data section when it starts at
    /// `data_base`, found without assembling or copying the data.
    ///
    /// # Errors
    ///
    /// As [`Asm::assemble`], for the data section alone: a duplicate
    /// data label, a bad alignment or an oversized section.
    pub fn data_layout(&self, data_base: u64) -> Result<DataLayout, AsmError> {
        let mut symbols = HashMap::new();
        let mut addr_cells = Vec::new();
        let len = self.lay_out_data(data_base, |item, off| {
            match item {
                DataItem::Label(name)
                    if symbols.insert(name.clone(), data_base + off).is_some() =>
                {
                    return Err(AsmError::DuplicateSymbol(name.clone()));
                }
                DataItem::AddrOf(sym) => addr_cells.push((data_base + off, sym.clone())),
                _ => {}
            }
            Ok(())
        })?;
        Ok(DataLayout { symbols, addr_cells, end: data_base + len })
    }
}

/// Where an assembly unit's data section lies ([`Asm::data_layout`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataLayout {
    /// Data label addresses.
    pub symbols: HashMap<String, u64>,
    /// Each address-of quad's address, with the symbol it holds.
    pub addr_cells: Vec<(u64, String)>,
    /// First address past the initialised data.
    pub end: u64,
}

impl Program {
    /// First address past the text segment.
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * INSTR_BYTES
    }

    /// First address past the initialised data segment.
    pub fn data_end(&self) -> u64 {
        self.data_base + self.data.len() as u64
    }

    /// Load text and data into a memory, ready to run from
    /// [`Program::entry`].
    pub fn load(&self, mem: &mut dise_mem::Memory) {
        for (i, word) in self.text.iter().enumerate() {
            mem.write_u(self.text_base + i as u64 * INSTR_BYTES, 4, *word as u64);
        }
        mem.write_bytes(self.data_base, &self.data);
    }

    /// Address of a label.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Decode the instruction at `pc` from the image (not from a live
    /// memory). Returns `None` outside the text segment or for
    /// malformed words.
    pub fn decode_at(&self, pc: u64) -> Option<Instr> {
        if pc < self.text_base || pc >= self.text_end() || !pc.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = ((pc - self.text_base) / INSTR_BYTES) as usize;
        decode(self.text[idx]).ok()
    }

    /// Append instructions to the text segment (the debugger's
    /// dynamically generated function), returning their base address and
    /// recording `name` as a symbol.
    pub fn append_text(&mut self, name: &str, code: &[Instr]) -> u64 {
        let base = self.text_end();
        self.symbols.insert(name.to_string(), base);
        self.text.extend(code.iter().map(encode));
        base
    }

    /// Append `bytes` to the data segment at the given power-of-two
    /// alignment (the debugger's data region), returning its address and
    /// recording `name` as a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn append_data(&mut self, name: &str, bytes: &[u8], align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        while !self.data_end().is_multiple_of(align) {
            self.data.push(0);
        }
        let base = self.data_end();
        self.symbols.insert(name.to_string(), base);
        self.data.extend_from_slice(bytes);
        base
    }

    /// Total static code size in bytes (used to compare DISE against
    /// binary rewriting's code bloat).
    pub fn text_bytes(&self) -> u64 {
        self.text.len() as u64 * INSTR_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::{AluOp, Cond, Operand, Width};

    fn r(i: u8) -> Reg {
        Reg::gpr(i)
    }

    #[test]
    fn split_addr_reconstructs() {
        for addr in [0u64, 1, 0x3fff, 0x4000, 0x0010_0000, 0x0100_0000, 0x07FF_C000] {
            let (hi, lo) = split_addr(addr).unwrap();
            let rebuilt = ((hi as i64) << 14) + lo as i64;
            assert_eq!(rebuilt as u64, addr, "addr {addr:#x}");
        }
        assert!(split_addr(1 << 28).is_none());
    }

    #[test]
    fn assemble_loop_and_symbols() {
        let mut a = Asm::new();
        a.label("start");
        a.label("loop");
        a.inst(Instr::Alu { op: AluOp::Sub, rd: r(1), ra: r(1), rb: Operand::Imm(1) });
        a.cond_br(Cond::Gt, r(1), "loop");
        a.inst(Instr::Halt);
        let p = a.assemble(Layout::default()).unwrap();
        assert_eq!(p.text.len(), 3);
        assert_eq!(p.entry, p.symbol("start").unwrap());
        // beq disp: target = loop = text_base, pc of branch = base+4
        match p.decode_at(p.text_base + 4).unwrap() {
            Instr::CondBr { disp, .. } => assert_eq!(disp, -2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_addr_expands_to_pair() {
        let mut a = Asm::new();
        a.data_label("var").quad(7);
        a.load_addr(r(2), "var", 0);
        a.inst(Instr::Load { width: Width::Q, rd: r(3), base: r(2), disp: 0 });
        a.inst(Instr::Halt);
        let p = a.assemble(Layout::default()).unwrap();
        assert_eq!(p.text.len(), 4);
        let var = p.symbol("var").unwrap();
        assert_eq!(var, Layout::default().data_base);
        // Execute the pair by hand.
        let (hi, lo) = split_addr(var).unwrap();
        assert_eq!(((hi as i64) << 14) + lo as i64, var as i64);
    }

    #[test]
    fn statement_markers_record_pcs() {
        let mut a = Asm::new();
        a.stmt();
        a.inst(Instr::Nop);
        a.inst(Instr::Nop);
        a.stmt();
        a.inst(Instr::Halt);
        let p = a.assemble(Layout::default()).unwrap();
        assert!(p.stmt_pcs.contains(&p.text_base));
        assert!(p.stmt_pcs.contains(&(p.text_base + 8)));
        assert_eq!(p.stmt_pcs.len(), 2);
    }

    #[test]
    fn duplicate_and_undefined_symbols() {
        let mut a = Asm::new();
        a.label("x").label("x");
        assert_eq!(
            a.assemble(Layout::default()).unwrap_err(),
            AsmError::DuplicateSymbol("x".into())
        );
        let mut a = Asm::new();
        a.br("nowhere");
        assert_eq!(
            a.assemble(Layout::default()).unwrap_err(),
            AsmError::UndefinedSymbol("nowhere".into())
        );
    }

    #[test]
    fn data_layout_is_where_assembly_puts_the_data() {
        let mut a = Asm::new();
        a.load_addr(r(1), "arr", 0).label("code").inst(Instr::Halt);
        a.data_label("a").quad(1).long(2).align(64).data_label("arr").space(24);
        a.data_label("p").addr_quad("code").align(16).data_label("end");
        let p = a.assemble(Layout::default()).unwrap();
        let d = a.data_layout(p.data_base).unwrap();
        assert_eq!(d.end, p.data_end());
        for (name, addr) in &d.symbols {
            assert_eq!(p.symbol(name), Some(*addr), "{name}");
        }
        assert_eq!(d.symbols.len(), 4);
        assert_eq!(d.addr_cells, vec![(p.symbol("p").unwrap(), "code".to_string())]);
        a.data_label("a");
        assert_eq!(a.data_layout(0).unwrap_err(), AsmError::DuplicateSymbol("a".into()));
    }

    #[test]
    fn data_alignment_and_space() {
        let mut a = Asm::new();
        a.inst(Instr::Halt);
        a.quad(1).align(64).data_label("arr").space(16).data_label("tail").quad(2);
        let p = a.assemble(Layout::default()).unwrap();
        let arr = p.symbol("arr").unwrap();
        assert_eq!(arr % 64, 0);
        assert_eq!(p.symbol("tail").unwrap(), arr + 16);
        let mut a = Asm::new();
        a.align(3);
        assert_eq!(a.assemble(Layout::default()).unwrap_err(), AsmError::BadAlignment(3));
    }

    #[test]
    fn load_into_memory() {
        let mut a = Asm::new();
        a.inst(Instr::Nop).inst(Instr::Halt);
        a.data_label("d").quad(0x1122_3344);
        let p = a.assemble(Layout::default()).unwrap();
        let mut mem = dise_mem::Memory::new();
        p.load(&mut mem);
        assert_eq!(mem.read_u(p.text_base, 4), encode(&Instr::Nop) as u64);
        assert_eq!(mem.read_u(p.symbol("d").unwrap(), 8), 0x1122_3344);
    }

    #[test]
    fn append_text_and_data() {
        let mut a = Asm::new();
        a.inst(Instr::Halt);
        let mut p = a.assemble(Layout::default()).unwrap();
        let old_end = p.text_end();
        let f = p.append_text("handler", &[Instr::Nop, Instr::DRet]);
        assert_eq!(f, old_end);
        assert_eq!(p.decode_at(f).unwrap(), Instr::Nop);
        assert_eq!(p.symbol("handler"), Some(f));

        let d = p.append_data("dbg", &[1, 2, 3], 2048);
        assert_eq!(d % 2048, 0);
        assert_eq!(p.symbol("dbg"), Some(d));
        assert_eq!(&p.data[(d - p.data_base) as usize..][..3], &[1, 2, 3]);
    }
}
