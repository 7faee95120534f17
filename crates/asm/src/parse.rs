//! A small text assembler for the DISE ISA.
//!
//! Supports the mnemonics produced by `dise_isa::Instr`'s `Display`
//! implementation, labels, `.data`/`.text` section switching, the data
//! directives `.quad`/`.long`/`.byte`/`.space`/`.align`, the
//! statement-boundary marker `.stmt`, and the address pseudo-instruction
//! `la rd, symbol` / `la rd, symbol+off`.

use std::fmt;

use dise_isa::{AluOp, Cond, Instr, Operand, Reg, Width, MEM_DISP_MAX, MEM_DISP_MIN};

use crate::Asm;

/// A parse failure, with the 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    let s = s.trim();
    match s {
        "sp" => return Ok(Reg::SP),
        "ra" => return Ok(Reg::RA),
        "gp" => return Ok(Reg::GP),
        "zero" => return Ok(Reg::ZERO),
        "dar" => return Ok(Reg::DAR),
        "dpv" => return Ok(Reg::DPV),
        "dhdlr" => return Ok(Reg::DHDLR),
        "dseg" => return Ok(Reg::DSEG),
        _ => {}
    }
    if let Some(n) = s.strip_prefix("dr") {
        if let Ok(i) = n.parse::<u8>() {
            if i < 16 {
                return Ok(Reg::dise(i));
            }
        }
    } else if let Some(n) = s.strip_prefix('r') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(Reg::gpr(i));
            }
        }
    }
    err(line, format!("bad register `{s}`"))
}

fn parse_int(s: &str, line: usize) -> Result<i64, ParseError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    };
    match v {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(line, format!("bad integer `{s}`")),
    }
}

/// Parse `disp(base)` into `(disp, base)`.
fn parse_mem_operand(s: &str, line: usize) -> Result<(i16, Reg), ParseError> {
    let s = s.trim();
    let open = match s.find('(') {
        Some(i) => i,
        None => return err(line, format!("expected `disp(base)`, got `{s}`")),
    };
    if !s.ends_with(')') {
        return err(line, format!("expected `disp(base)`, got `{s}`"));
    }
    let disp_str = &s[..open];
    let disp = if disp_str.trim().is_empty() { 0 } else { parse_int(disp_str, line)? };
    if !(i64::from(MEM_DISP_MIN)..=i64::from(MEM_DISP_MAX)).contains(&disp) {
        return err(line, format!("displacement {disp} out of 14-bit range"));
    }
    let base = parse_reg(&s[open + 1..s.len() - 1], line)?;
    Ok((disp as i16, base))
}

/// A numeric branch displacement, checked against its 20-bit field.
fn branch_disp(disp: i64, line: usize) -> Result<i32, ParseError> {
    if !(-(1 << 19)..(1 << 19)).contains(&disp) {
        return err(line, format!("branch displacement {disp} out of 20-bit range"));
    }
    Ok(disp as i32)
}

fn split_operands(rest: &str) -> Vec<String> {
    rest.split(',').map(|p| p.trim().to_string()).collect()
}

fn alu_from_mnemonic(m: &str) -> Option<AluOp> {
    AluOp::ALL.into_iter().find(|op| op.mnemonic() == m)
}

fn cond_from_suffix(s: &str) -> Option<Cond> {
    Cond::ALL.into_iter().find(|c| c.suffix() == s)
}

fn width_from_suffix(c: char) -> Option<Width> {
    Width::ALL.into_iter().find(|w| w.suffix() == c)
}

/// Parse assembly text into an [`Asm`] unit.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first offending line.
///
/// ```
/// let src = r"
///     start:
///         lda r1, 10(zero)
///     loop:
///         subq r1, 1, r1
///         bgt r1, loop
///         halt
///     .data
///     v:  .quad 42
/// ";
/// let asm = dise_asm::parse_asm(src)?;
/// let prog = asm.assemble(dise_asm::Layout::default())?;
/// assert_eq!(prog.symbol("v"), Some(prog.data_base));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_asm(src: &str) -> Result<Asm, ParseError> {
    let mut asm = Asm::new();
    let mut in_data = false;

    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let mut text = raw;
        if let Some(i) = raw.find([';', '#']) {
            text = &raw[..i];
        }
        let mut text = text.trim();
        if text.is_empty() {
            continue;
        }

        // Labels (possibly followed by code on the same line).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return err(line, format!("bad label `{label}`"));
            }
            if in_data {
                asm.data_label(label);
            } else {
                asm.label(label);
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };

        // Directives.
        match mnemonic {
            ".text" => {
                in_data = false;
                continue;
            }
            ".data" => {
                in_data = true;
                continue;
            }
            ".stmt" => {
                asm.stmt();
                continue;
            }
            ".quad" | ".long" | ".byte" => {
                for p in split_operands(rest) {
                    let v = parse_int(&p, line)?;
                    match mnemonic {
                        ".quad" => asm.quad(v as u64),
                        ".long" => asm.long(v as u32),
                        _ => asm.bytes(&[v as u8]),
                    };
                }
                continue;
            }
            ".addr" => {
                asm.addr_quad(rest.trim());
                continue;
            }
            ".space" => {
                asm.space(parse_int(rest, line)? as u64);
                continue;
            }
            ".align" => {
                asm.align(parse_int(rest, line)? as u64);
                continue;
            }
            _ => {}
        }
        if mnemonic.starts_with('.') {
            return err(line, format!("unknown directive `{mnemonic}`"));
        }
        if in_data {
            return err(line, "instruction in .data section");
        }

        let ops = if rest.is_empty() { vec![] } else { split_operands(rest) };
        let need = |n: usize| -> Result<(), ParseError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(line, format!("`{mnemonic}` expects {n} operand(s), got {}", ops.len()))
            }
        };

        // ALU mnemonics: `op ra, rb|imm, rd`.
        if let Some(op) = alu_from_mnemonic(mnemonic) {
            need(3)?;
            let ra = parse_reg(&ops[0], line)?;
            let rb = if let Ok(r) = parse_reg(&ops[1], line) {
                Operand::Reg(r)
            } else {
                let v = parse_int(&ops[1], line)?;
                if !(0..=255).contains(&v) {
                    return err(line, format!("ALU immediate {v} out of 0..=255"));
                }
                Operand::Imm(v as u8)
            };
            let rd = parse_reg(&ops[2], line)?;
            asm.inst(Instr::Alu { op, rd, ra, rb });
            continue;
        }

        // Loads/stores: `ldq rd, disp(base)`. Suffix extraction must not
        // index past short mnemonics: a bare `ld`/`st` is a parse error,
        // not a panic, and multi-char or unknown suffixes fall through to
        // the remaining mnemonic tables (`lda`, `ldah`, ...).
        if mnemonic.starts_with("ld") || mnemonic.starts_with("st") {
            let mut suffix = mnemonic.chars().skip(2);
            match (suffix.next(), suffix.next()) {
                (None, _) => {
                    return err(
                        line,
                        format!("`{mnemonic}` needs a width suffix (b/w/l/q), e.g. `{mnemonic}q`"),
                    );
                }
                (Some(c), None) => {
                    if let Some(width) = width_from_suffix(c) {
                        need(2)?;
                        let r = parse_reg(&ops[0], line)?;
                        let (disp, base) = parse_mem_operand(&ops[1], line)?;
                        let inst = if mnemonic.starts_with("ld") {
                            Instr::Load { width, rd: r, base, disp }
                        } else {
                            Instr::Store { width, rs: r, base, disp }
                        };
                        asm.inst(inst);
                        continue;
                    }
                }
                _ => {}
            }
        }

        // Branches on condition: `beq r, target`.
        if let Some(cond) = mnemonic.strip_prefix('b').and_then(cond_from_suffix) {
            need(2)?;
            let rs = parse_reg(&ops[0], line)?;
            if let Ok(disp) = parse_int(&ops[1], line) {
                asm.inst(Instr::CondBr { cond, rs, disp: branch_disp(disp, line)? });
            } else {
                asm.cond_br(cond, rs, &ops[1]);
            }
            continue;
        }

        match mnemonic {
            "lda" | "ldah" => {
                need(2)?;
                let rd = parse_reg(&ops[0], line)?;
                let (disp, base) = parse_mem_operand(&ops[1], line)?;
                let inst = if mnemonic == "lda" {
                    Instr::Lda { rd, base, disp }
                } else {
                    Instr::Ldah { rd, base, disp }
                };
                asm.inst(inst);
            }
            "la" => {
                need(2)?;
                let rd = parse_reg(&ops[0], line)?;
                let (sym, off) = match ops[1].split_once('+') {
                    Some((s, o)) => (s.trim().to_string(), parse_int(o, line)?),
                    None => (ops[1].clone(), 0),
                };
                asm.load_addr(rd, &sym, off);
            }
            "br" => {
                need(1)?;
                if let Ok(disp) = parse_int(&ops[0], line) {
                    asm.inst(Instr::Br { rd: Reg::ZERO, disp: branch_disp(disp, line)? });
                } else {
                    asm.br(&ops[0]);
                }
            }
            "bsr" => {
                need(2)?;
                let link = parse_reg(&ops[0], line)?;
                if let Ok(disp) = parse_int(&ops[1], line) {
                    asm.inst(Instr::Br { rd: link, disp: branch_disp(disp, line)? });
                } else {
                    asm.bsr(link, &ops[1]);
                }
            }
            "jmp" => {
                need(1)?;
                let t = ops[0].trim_matches(['(', ')']);
                asm.inst(Instr::Jmp { rd: Reg::ZERO, base: parse_reg(t, line)? });
            }
            "jsr" => {
                need(2)?;
                let rd = parse_reg(&ops[0], line)?;
                let t = ops[1].trim_matches(['(', ')']);
                asm.inst(Instr::Jmp { rd, base: parse_reg(t, line)? });
            }
            "ret" => {
                need(0)?;
                asm.inst(Instr::Jmp { rd: Reg::ZERO, base: Reg::RA });
            }
            "mov" => {
                need(2)?;
                let rs = parse_reg(&ops[0], line)?;
                let rd = parse_reg(&ops[1], line)?;
                asm.inst(Instr::mov(rs, rd));
            }
            "li" => {
                need(2)?;
                let rd = parse_reg(&ops[0], line)?;
                let v = parse_int(&ops[1], line)?;
                if !(i64::from(MEM_DISP_MIN)..=i64::from(MEM_DISP_MAX)).contains(&v) {
                    return err(line, format!("li immediate {v} out of 14-bit range"));
                }
                asm.inst(Instr::li(rd, v as i16));
            }
            "trap" => {
                need(0)?;
                asm.inst(Instr::Trap);
            }
            "halt" => {
                need(0)?;
                asm.inst(Instr::Halt);
            }
            "nop" => {
                need(0)?;
                asm.inst(Instr::Nop);
            }
            "codeword" => {
                need(1)?;
                asm.inst(Instr::Codeword(parse_int(&ops[0], line)? as u16));
            }
            "d_ret" => {
                need(0)?;
                asm.inst(Instr::DRet);
            }
            "d_call" => {
                need(1)?;
                let t = ops[0].trim_matches(['(', ')']);
                asm.inst(Instr::DCall { target: parse_reg(t, line)? });
            }
            "d_mfr" => {
                need(2)?;
                asm.inst(Instr::DMfr {
                    rd: parse_reg(&ops[0], line)?,
                    dr: parse_reg(&ops[1], line)?,
                });
            }
            "d_mtr" => {
                need(2)?;
                asm.inst(Instr::DMtr {
                    dr: parse_reg(&ops[0], line)?,
                    rs: parse_reg(&ops[1], line)?,
                });
            }
            _ => {
                // Suffixed forms: ctrap<cond>, d_b<cond>, d_ccall<cond>.
                if let Some(cond) = mnemonic.strip_prefix("ctrap").and_then(cond_from_suffix) {
                    need(1)?;
                    asm.inst(Instr::CTrap { cond, rs: parse_reg(&ops[0], line)? });
                } else if let Some(cond) = mnemonic.strip_prefix("d_b").and_then(cond_from_suffix) {
                    need(2)?;
                    let rs = parse_reg(&ops[0], line)?;
                    let disp = parse_int(&ops[1], line)?;
                    asm.inst(Instr::DBr { cond, rs, disp: disp as i8 });
                } else if let Some(cond) =
                    mnemonic.strip_prefix("d_ccall").and_then(cond_from_suffix)
                {
                    need(2)?;
                    let rs = parse_reg(&ops[0], line)?;
                    let t = ops[1].trim_matches(['(', ')']);
                    asm.inst(Instr::DCCall { cond, rs, target: parse_reg(t, line)? });
                } else {
                    return err(line, format!("unknown mnemonic `{mnemonic}`"));
                }
            }
        }
    }
    Ok(asm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;

    #[test]
    fn parse_round_trips_display() {
        // Every instruction printed by Display should re-parse to itself.
        let cases = [
            Instr::Load { width: Width::Q, rd: Reg::gpr(4), base: Reg::SP, disp: 32 },
            Instr::Store { width: Width::B, rs: Reg::gpr(1), base: Reg::gpr(2), disp: -4 },
            Instr::Lda { rd: Reg::gpr(1), base: Reg::ZERO, disp: 100 },
            Instr::Ldah { rd: Reg::gpr(1), base: Reg::gpr(1), disp: 64 },
            Instr::Alu { op: AluOp::Bic, rd: Reg::dise(1), ra: Reg::dise(1), rb: Operand::Imm(7) },
            Instr::Alu {
                op: AluOp::CmpEq,
                rd: Reg::dise(1),
                ra: Reg::dise(1),
                rb: Operand::Reg(Reg::DAR),
            },
            Instr::Trap,
            Instr::CTrap { cond: Cond::Eq, rs: Reg::dise(1) },
            Instr::Codeword(7),
            Instr::Halt,
            Instr::Nop,
            Instr::DBr { cond: Cond::Ne, rs: Reg::dise(1), disp: 1 },
            Instr::DCall { target: Reg::DHDLR },
            Instr::DCCall { cond: Cond::Ne, rs: Reg::dise(1), target: Reg::DHDLR },
            Instr::DRet,
            Instr::DMfr { rd: Reg::gpr(1), dr: Reg::DPV },
            Instr::DMtr { dr: Reg::DPV, rs: Reg::gpr(1) },
        ];
        for inst in cases {
            let text = inst.to_string();
            let asm = parse_asm(&text).unwrap_or_else(|e| panic!("parsing `{text}`: {e}"));
            let p = asm.assemble(Layout::default()).unwrap();
            assert_eq!(p.decode_at(p.text_base), Some(inst), "`{text}`");
        }
    }

    #[test]
    fn parse_program_with_labels_and_data() {
        let src = r"
            # countdown
            start:
                la r2, counter
                ldq r1, 0(r2)
            loop:
                subq r1, 1, r1
                .stmt
                stq r1, 0(r2)
                bgt r1, loop
                halt
            .data
            counter: .quad 5
            buf:     .space 8
            tail:    .byte 1, 2
        ";
        let asm = parse_asm(src).unwrap();
        let p = asm.assemble(Layout::default()).unwrap();
        assert_eq!(p.symbol("counter"), Some(p.data_base));
        assert_eq!(p.symbol("tail"), Some(p.data_base + 16));
        assert_eq!(p.stmt_pcs.len(), 1);
        assert_eq!(p.data[0], 5);
        assert_eq!(*p.data.last().unwrap(), 2);
    }

    #[test]
    fn parse_errors_name_line() {
        let e = parse_asm("nop\nbogus r1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse_asm("addq r1, 999, r2").unwrap_err();
        assert!(e.message.contains("out of 0..=255"));

        let e = parse_asm(".data\nnop").unwrap_err();
        assert!(e.message.contains(".data"));
    }

    #[test]
    fn short_load_store_mnemonics_are_errors_not_panics() {
        // 2-character mnemonics: a clear missing-suffix diagnostic.
        for m in ["ld", "st"] {
            let e = parse_asm(&format!("{m} r1, 0(r2)")).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("width suffix"), "{m}: {}", e.message);
        }
        // 1-character prefixes never reach the suffix logic.
        for m in ["l", "s"] {
            let e = parse_asm(&format!("{m} r1, 0(r2)")).unwrap_err();
            assert!(e.message.contains("unknown mnemonic"), "{m}: {}", e.message);
        }
        // Unknown one-char suffixes fall through to the mnemonic tables.
        let e = parse_asm("ldx r1, 0(r2)").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"), "{}", e.message);
        // Multi-byte suffix characters must not slice mid-character.
        let e = parse_asm("ldé r1, 0(r2)").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"), "{}", e.message);
        // `lda`/`ldah` still parse via their own table entries.
        assert!(parse_asm("lda r1, 4(r2)\nldah r1, 1(zero)").is_ok());
    }

    #[test]
    fn branch_with_numeric_displacement() {
        let asm = parse_asm("beq r1, +2\nbr -1").unwrap();
        let p = asm.assemble(Layout::default()).unwrap();
        assert_eq!(
            p.decode_at(p.text_base),
            Some(Instr::CondBr { cond: Cond::Eq, rs: Reg::gpr(1), disp: 2 })
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let asm = parse_asm("; only comments\n\n# here\n").unwrap();
        assert_eq!(asm.text_len(), 0);
    }
}
