//! The text assembler never panics on data: `parse_asm` followed by
//! `assemble` on token soup returns a program or a typed error.
//!
//! The soup is lines of a mnemonic or directive and a few operands:
//! registers in and out of range, integers at and past each field's
//! limits (memory and branch displacements, ALU immediates, `i64`
//! overflow), hostile sizes and alignments, symbols and punctuation.
//! Tier-1 runs a small case count; the `#[ignore]`d sweep runs many
//! more:
//!
//! ```text
//! cargo test --release -p dise-asm --test parse_robustness -- --include-ignored
//! ```

use dise_asm::{parse_asm, Layout};
use proptest::prelude::*;

/// Line heads: every mnemonic family, with and without suffixes, and
/// every directive.
#[rustfmt::skip]
const HEADS: &[&str] = &[
    "addq", "subq", "mulq", "and", "bis", "xor", "sll", "srl", "cmpeq", "cmplt", "ldq", "ldl",
    "ldw", "ldb", "stq", "stl", "stw", "stb", "ld", "st", "ldx", "lda", "ldah", "la", "br", "bsr",
    "beq", "bne", "bgt", "blt", "bge", "ble", "bxx", "jmp", "jsr", "ret", "mov", "li", "trap",
    "halt", "nop", "codeword", "d_ret", "d_call", "d_mfr", "d_mtr", "ctrapeq", "d_bne",
    "d_ccallgt", ".text", ".data", ".stmt", ".quad", ".long", ".byte", ".addr", ".space",
    ".align", ".bogus", "start:", "loop:", "x:", "9:", ":", "",
];

/// Operands: registers in and out of range, integers at and past every
/// field's limit, memory operands, symbols, punctuation and odd bytes.
#[rustfmt::skip]
const OPERANDS: &[&str] = &[
    "r0", "r1", "r31", "r32", "r255", "sp", "ra", "gp", "zero", "dr0", "dr15", "dr16", "dar",
    "dpv", "dhdlr", "dseg", "0", "1", "-1", "7", "255", "256", "-8192", "8191", "8192", "-8193",
    "32767", "-32768", "32768", "524287", "524288", "-524289", "0x10", "0x7fff", "0xffff",
    "4096", "2147483648", "9223372036854775807", "-9223372036854775807", "9223372036854775808",
    "0xffffffffffffffff", "0x4000000000000000", "-0x10", "+5", "1e3", "0(r1)", "8191(sp)",
    "-8192(r2)", "8192(r1)", "-8193(r2)", "32767(zero)", "(r1)", "(", ")", "x", "start",
    "loop", "x+8", "x+-9223372036854775807", "undefined", ",", "+", "#", ";", "é", "\t", "\0",
    "",
];

/// Lines of `(head, operands, separator)`: separator 0 joins operands
/// with `", "`, 1 with a space, 2 with nothing.
type Soup = Vec<(usize, Vec<usize>, u8)>;

fn soup_strategy(max_lines: usize) -> impl Strategy<Value = Soup> {
    prop::collection::vec(
        (0..HEADS.len(), prop::collection::vec(0..OPERANDS.len(), 0..4), 0u8..3),
        0..max_lines,
    )
}

fn render(soup: &Soup) -> Vec<String> {
    soup.iter()
        .map(|(head, operands, sep)| {
            let ops: Vec<&str> = operands.iter().map(|&o| OPERANDS[o]).collect();
            format!("{} {}\n", HEADS[*head], ops.join([", ", " ", ""][*sep as usize]))
        })
        .collect()
}

/// Parse and assemble the whole soup, and each line alone in the text
/// and in the data section (one bad line stops the whole parse, so the
/// single lines are what mostly reach the assembler); either outcome is
/// fine, a panic fails the case.
fn parses_or_errs(soup: &Soup) {
    let lines = render(soup);
    let singles = lines.iter().flat_map(|l| [l.clone(), format!(".data\n{l}")]);
    for src in std::iter::once(lines.concat()).chain(singles) {
        if let Ok(asm) = parse_asm(&src) {
            let _ = asm.assemble(Layout::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn token_soup_never_panics(soup in soup_strategy(12)) {
        parses_or_errs(&soup);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300_000))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn token_soup_never_panics_sweep(soup in soup_strategy(16)) {
        parses_or_errs(&soup);
    }
}

/// The inputs that panicked before the parser checked each field
/// against its encoding and the data layout checked its arithmetic:
/// every one is now a typed error.
#[test]
fn out_of_range_fields_are_typed_errors() {
    for src in [
        "ldq r1, 8192(r2)",
        "stq r1, -8193(r2)",
        "lda r1, 32767(zero)",
        "ldah r1, -32768(zero)",
        "li r1, 10000",
        "beq r1, 524288",
        "bne r1, -524289",
        "br 9223372036854775807",
        "bsr ra, 2147483648",
    ] {
        assert!(parse_asm(src).is_err(), "{src} parses");
    }
    for src in [
        ".data\n.space -1",
        ".data\n.byte 1\n.space -1",
        ".data\n.space 9223372036854775807",
        ".data\n.space 2147483648",
        ".data\n.align 0x4000000000000000",
        ".data\n.byte 1\n.align 0x4000000000000000",
    ] {
        let asm = parse_asm(src).expect("data directives parse");
        assert!(asm.assemble(Layout::default()).is_err(), "{src} assembles");
        assert!(asm.data_layout(Layout::default().data_base).is_err(), "{src} lays out");
    }
}
