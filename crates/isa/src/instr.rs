//! The instruction enumeration and its static-analysis helpers.

use std::fmt;

use crate::{AluOp, Cond, Operand, Reg, Width};

/// Coarse instruction class, matchable by DISE patterns
/// (`T.OPCLASS==store` and friends in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps/calls/returns.
    Jump,
    /// Register-to-register computation (including `lda`/`ldah`).
    Alu,
    /// Traps, codewords, halt, and DISE-internal instructions.
    Other,
}

/// One decoded instruction.
///
/// PC-relative displacements (`disp` on branches) are in *instructions*
/// relative to the next PC, Alpha style: target = PC + 4 + 4*disp.
/// DISE branch displacements ([`Instr::DBr`]) are relative to the next
/// DISEPC within the replacement sequence, e.g. `d_bne dr1, +1` skips one
/// replacement instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// Load `width` bytes, zero-extended: `rd = mem[base + disp]`.
    Load {
        /// Access width.
        width: Width,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Store the low `width` bytes of `rs`: `mem[base + disp] = rs`.
    Store {
        /// Access width.
        width: Width,
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Load address: `rd = base + disp`.
    Lda {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Load address high: `rd = base + (disp << 14)`.
    ///
    /// (Alpha shifts by 16; we shift by the memory-displacement width so
    /// that an `ldah`/`lda` pair can materialise any address up to
    /// 2^27 — see `dise-asm`'s `load_addr`.)
    Ldah {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement, shifted left 14.
        disp: i16,
    },
    /// ALU operation `rd = op(ra, rb)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second operand: register or 8-bit immediate.
        rb: Operand,
    },
    /// Unconditional PC-relative branch, saving the return address in `rd`
    /// (use [`Reg::ZERO`] for a plain `br`).
    Br {
        /// Link register.
        rd: Reg,
        /// Instruction displacement.
        disp: i32,
    },
    /// Conditional PC-relative branch on `cond(rs)`.
    CondBr {
        /// Branch condition, tested against zero.
        cond: Cond,
        /// Tested register.
        rs: Reg,
        /// Instruction displacement.
        disp: i32,
    },
    /// Indirect jump: `rd = return address; PC = base`.
    Jmp {
        /// Link register.
        rd: Reg,
        /// Target address register.
        base: Reg,
    },
    /// Unconditional trap into the debugger.
    Trap,
    /// Conditional trap (Optimization I): trap iff `cond(rs)`. Part of the
    /// DISE ISA only; never emitted by application compilers.
    CTrap {
        /// Trap condition.
        cond: Cond,
        /// Tested register.
        rs: Reg,
    },
    /// DISE codeword: a reserved opcode whose only purpose is to match a
    /// DISE pattern and trigger an expansion. Executes as a no-op if
    /// unmatched.
    Codeword(u16),
    /// Stop simulation.
    Halt,
    /// No operation.
    Nop,
    /// DISE branch: transfers to `⟨samePC : DISEPC+1+disp⟩` iff `cond(rs)`.
    /// Taken DISE branches flush the pipeline (they are predicted
    /// not-taken by construction).
    DBr {
        /// Branch condition.
        cond: Cond,
        /// Tested register.
        rs: Reg,
        /// DISEPC displacement from the next replacement instruction.
        disp: i8,
    },
    /// DISE call to the conventional code whose address is in `target`;
    /// saves `⟨PC : DISEPC+1⟩` on the DISE return stack and flushes.
    DCall {
        /// Register holding the callee address (typically [`Reg::DHDLR`]).
        target: Reg,
    },
    /// Conditional DISE call (Optimization III): call iff `cond(rs)`.
    DCCall {
        /// Call condition.
        cond: Cond,
        /// Tested register.
        rs: Reg,
        /// Register holding the callee address.
        target: Reg,
    },
    /// Return from a DISE-called function to `⟨PC : DISEPC+1⟩`,
    /// re-enabling DISE expansion; flushes.
    DRet,
    /// DISE move-from-register: `rd = dise[dr]` (valid only inside
    /// DISE-called functions).
    DMfr {
        /// GPR destination.
        rd: Reg,
        /// DISE register source.
        dr: Reg,
    },
    /// DISE move-to-register: `dise[dr] = rs` (valid only inside
    /// DISE-called functions).
    DMtr {
        /// DISE register destination.
        dr: Reg,
        /// GPR source.
        rs: Reg,
    },
}

impl Instr {
    /// A register-move pseudo-instruction (`bis rs, rs, rd`).
    pub const fn mov(rs: Reg, rd: Reg) -> Instr {
        Instr::Alu { op: AluOp::Or, rd, ra: rs, rb: Operand::Reg(rs) }
    }

    /// A load-immediate pseudo-instruction for small constants
    /// (`lda rd, imm(r31)`).
    pub const fn li(rd: Reg, imm: i16) -> Instr {
        Instr::Lda { rd, base: Reg::ZERO, disp: imm }
    }

    /// The coarse class used by DISE pattern matching.
    pub const fn opclass(&self) -> OpClass {
        match self {
            Instr::Load { .. } => OpClass::Load,
            Instr::Store { .. } => OpClass::Store,
            Instr::CondBr { .. } => OpClass::Branch,
            Instr::Br { .. } | Instr::Jmp { .. } => OpClass::Jump,
            Instr::Lda { .. } | Instr::Ldah { .. } | Instr::Alu { .. } => OpClass::Alu,
            _ => OpClass::Other,
        }
    }

    /// True for memory stores.
    pub const fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }

    /// True for memory loads.
    pub const fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// True for instructions that may redirect the conventional PC.
    pub const fn is_control(&self) -> bool {
        matches!(self, Instr::Br { .. } | Instr::CondBr { .. } | Instr::Jmp { .. })
    }

    /// True for instructions legal *only* within DISE replacement
    /// sequences or DISE-called functions.
    #[inline]
    pub const fn is_dise_only(&self) -> bool {
        matches!(
            self,
            Instr::DBr { .. }
                | Instr::DCall { .. }
                | Instr::DCCall { .. }
                | Instr::DRet
                | Instr::DMfr { .. }
                | Instr::DMtr { .. }
                | Instr::CTrap { .. }
        )
    }

    /// The register written by this instruction, if any. The zero register
    /// is reported as `None` (writes to it are discarded).
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Instr::Load { rd, .. }
            | Instr::Lda { rd, .. }
            | Instr::Ldah { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::Br { rd, .. }
            | Instr::Jmp { rd, .. }
            | Instr::DMfr { rd, .. } => rd,
            Instr::DMtr { dr, .. } => dr,
            _ => return None,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// The registers read by this instruction (up to two).
    #[inline]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Load { base, .. } | Instr::Lda { base, .. } | Instr::Ldah { base, .. } => {
                [Some(base), None]
            }
            Instr::Store { rs, base, .. } => [Some(rs), Some(base)],
            Instr::Alu { ra, rb, .. } => match rb {
                Operand::Reg(r) => [Some(ra), Some(r)],
                Operand::Imm(_) => [Some(ra), None],
            },
            Instr::CondBr { rs, .. } | Instr::CTrap { rs, .. } | Instr::DBr { rs, .. } => {
                [Some(rs), None]
            }
            Instr::Jmp { base, .. } => [Some(base), None],
            Instr::DCall { target } => [Some(target), None],
            Instr::DCCall { rs, target, .. } => [Some(rs), Some(target)],
            Instr::DMfr { dr, .. } => [Some(dr), None],
            Instr::DMtr { rs, .. } => [Some(rs), None],
            _ => [None, None],
        }
    }

    /// True if any operand (source or destination) names a DISE register.
    #[inline]
    pub fn touches_dise_regs(&self) -> bool {
        let dest_uses = match *self {
            Instr::Load { rd, .. }
            | Instr::Lda { rd, .. }
            | Instr::Ldah { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::Br { rd, .. }
            | Instr::Jmp { rd, .. } => rd.is_dise(),
            Instr::Store { rs, .. } => rs.is_dise(),
            _ => false,
        };
        dest_uses || self.sources().iter().flatten().any(|r| r.is_dise())
    }

    /// For memory instructions: the `(base, disp, width)` of the access.
    pub fn mem_access(&self) -> Option<(Reg, i16, Width)> {
        match *self {
            Instr::Load { width, base, disp, .. } | Instr::Store { width, base, disp, .. } => {
                Some((base, disp, width))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Load { width, rd, base, disp } => {
                write!(f, "ld{width} {rd}, {disp}({base})")
            }
            Instr::Store { width, rs, base, disp } => {
                write!(f, "st{width} {rs}, {disp}({base})")
            }
            Instr::Lda { rd, base, disp } => write!(f, "lda {rd}, {disp}({base})"),
            Instr::Ldah { rd, base, disp } => write!(f, "ldah {rd}, {disp}({base})"),
            Instr::Alu { op, rd, ra, rb } => write!(f, "{op} {ra}, {rb}, {rd}"),
            Instr::Br { rd, disp } => {
                if rd.is_zero() {
                    write!(f, "br {disp:+}")
                } else {
                    write!(f, "bsr {rd}, {disp:+}")
                }
            }
            Instr::CondBr { cond, rs, disp } => write!(f, "b{cond} {rs}, {disp:+}"),
            Instr::Jmp { rd, base } => {
                if rd.is_zero() {
                    write!(f, "jmp ({base})")
                } else {
                    write!(f, "jsr {rd}, ({base})")
                }
            }
            Instr::Trap => write!(f, "trap"),
            Instr::CTrap { cond, rs } => write!(f, "ctrap{cond} {rs}"),
            Instr::Codeword(i) => write!(f, "codeword {i}"),
            Instr::Halt => write!(f, "halt"),
            Instr::Nop => write!(f, "nop"),
            Instr::DBr { cond, rs, disp } => write!(f, "d_b{cond} {rs}, {disp:+}"),
            Instr::DCall { target } => write!(f, "d_call ({target})"),
            Instr::DCCall { cond, rs, target } => write!(f, "d_ccall{cond} {rs}, ({target})"),
            Instr::DRet => write!(f, "d_ret"),
            Instr::DMfr { rd, dr } => write!(f, "d_mfr {rd}, {dr}"),
            Instr::DMtr { dr, rs } => write!(f, "d_mtr {dr}, {rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::gpr(i)
    }

    #[test]
    fn opclass_covers_kinds() {
        let ld = Instr::Load { width: Width::Q, rd: r(1), base: r(2), disp: 0 };
        let st = Instr::Store { width: Width::Q, rs: r(1), base: r(2), disp: 0 };
        assert_eq!(ld.opclass(), OpClass::Load);
        assert_eq!(st.opclass(), OpClass::Store);
        assert_eq!(Instr::CondBr { cond: Cond::Eq, rs: r(1), disp: 0 }.opclass(), OpClass::Branch);
        assert_eq!(Instr::Br { rd: Reg::ZERO, disp: 0 }.opclass(), OpClass::Jump);
        assert_eq!(Instr::Trap.opclass(), OpClass::Other);
        assert_eq!(Instr::li(r(1), 5).opclass(), OpClass::Alu);
    }

    #[test]
    fn dest_hides_zero_register() {
        let i = Instr::Alu { op: AluOp::Add, rd: Reg::ZERO, ra: r(1), rb: Operand::Imm(1) };
        assert_eq!(i.dest(), None);
        let i = Instr::Alu { op: AluOp::Add, rd: r(3), ra: r(1), rb: Operand::Imm(1) };
        assert_eq!(i.dest(), Some(r(3)));
    }

    #[test]
    fn sources_of_store_include_data_and_base() {
        let st = Instr::Store { width: Width::L, rs: r(4), base: r(5), disp: 8 };
        assert_eq!(st.sources(), [Some(r(4)), Some(r(5))]);
        assert_eq!(st.dest(), None);
        assert_eq!(st.mem_access(), Some((r(5), 8, Width::L)));
    }

    #[test]
    fn dise_only_instructions_flagged() {
        assert!(Instr::DRet.is_dise_only());
        assert!(Instr::CTrap { cond: Cond::Eq, rs: r(1) }.is_dise_only());
        assert!(Instr::DBr { cond: Cond::Ne, rs: Reg::dise(1), disp: 1 }.is_dise_only());
        assert!(!Instr::Trap.is_dise_only());
        assert!(!Instr::Nop.is_dise_only());
    }

    #[test]
    fn touches_dise_regs() {
        let i = Instr::Load { width: Width::Q, rd: Reg::dise(1), base: Reg::DAR, disp: 0 };
        assert!(i.touches_dise_regs());
        let i = Instr::Load { width: Width::Q, rd: r(1), base: r(2), disp: 0 };
        assert!(!i.touches_dise_regs());
        let i = Instr::Store { width: Width::Q, rs: Reg::dise(0), base: r(2), disp: 0 };
        assert!(i.touches_dise_regs());
    }

    #[test]
    fn mov_and_li_pseudos() {
        let m = Instr::mov(r(2), r(3));
        assert_eq!(m.dest(), Some(r(3)));
        assert_eq!(m.sources(), [Some(r(2)), Some(r(2))]);
        let l = Instr::li(r(4), -7);
        assert_eq!(l.to_string(), "lda r4, -7(r31)");
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Instr::Load { width: Width::Q, rd: r(4), base: Reg::SP, disp: 32 };
        assert_eq!(i.to_string(), "ldq r4, 32(sp)");
        let i = Instr::Alu { op: AluOp::Add, rd: Reg::dise(0), ra: Reg::SP, rb: Operand::Imm(8) };
        assert_eq!(i.to_string(), "addq sp, 8, dr0");
        let i = Instr::DCCall { cond: Cond::Ne, rs: Reg::dise(1), target: Reg::DHDLR };
        assert_eq!(i.to_string(), "d_ccallne dr1, (dhdlr)");
    }
}
