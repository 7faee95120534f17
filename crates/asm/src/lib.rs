//! # dise-asm — assembler and program images
//!
//! The paper's workloads are Alpha binaries; ours are programs in the
//! `dise-isa` instruction set, built either programmatically with the
//! [`Asm`] builder or from assembly text with [`parse_asm`], and laid out
//! into loadable [`Program`] images.
//!
//! Three features exist specifically for the debugging experiments:
//!
//! * **statement markers** ([`Asm::stmt`], `.stmt` in text) record
//!   source-statement boundaries; the single-stepping debugger backend
//!   transitions at each marked PC, like a debugger stepping statements;
//! * **image appendices** ([`Program::append_text`],
//!   [`Program::append_data`]) let the debugger add its dynamically
//!   generated expression-evaluation function and data region to the
//!   application image, exactly as §4.2 of the paper describes;
//! * the pre-layout item list stays available (via [`Asm::text_items`])
//!   so the **static binary rewriting** backend can splice check code
//!   around every store and re-assemble, branch retargeting included.
//!
//! ```
//! use dise_asm::{Asm, Layout};
//! use dise_isa::{Instr, Reg, AluOp, Operand, Cond};
//!
//! let mut a = Asm::new();
//! a.label("loop");
//! a.inst(Instr::Alu { op: AluOp::Sub, rd: Reg::gpr(1), ra: Reg::gpr(1), rb: Operand::Imm(1) });
//! a.cond_br(Cond::Gt, Reg::gpr(1), "loop");
//! a.inst(Instr::Halt);
//! let prog = a.assemble(Layout::default())?;
//! assert_eq!(prog.entry, Layout::default().text_base);
//! # Ok::<(), dise_asm::AsmError>(())
//! ```

mod builder;
mod parse;
mod program;

pub use builder::{Asm, DataItem, TextItem};
pub use parse::{parse_asm, ParseError};
pub use program::{AsmError, DataLayout, Layout, Program, MAX_DATA_BYTES};
