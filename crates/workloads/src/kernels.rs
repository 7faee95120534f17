//! The six benchmark kernels.
//!
//! Each kernel is a complete program in the DISE ISA that mimics the
//! algorithmic character of the paper's chosen SPEC2000 function and
//! declares the standard watch symbols:
//!
//! * `hot`, `warm1`, `warm2`, `cold` — scalar quads with decreasing
//!   write frequency (Table 2);
//! * `ind_p` — a pointer cell containing `&hot` (the INDIRECT
//!   watchpoint aliases HOT's storage, exactly as in the paper);
//! * `range_arr` — a small array (the RANGE watchpoint);
//! * `extras` — sixteen additional scalars for the Fig. 6
//!   number-of-watchpoints sweep, deliberately sharing pages with busy
//!   data so page-protection fallback hurts.
//!
//! Register conventions: kernels use `r1`–`r22` and never touch `r25`,
//! `r27`, `r28` (reserved for the binary-rewriting backend's register
//! scavenging) nor `sp` (no watched data on the stack, which also makes
//! the stack-store pattern specialization sound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dise_asm::parse_asm;

use crate::Workload;

/// Deterministic seed for the generated input data.
const SEED: u64 = 0x5EED_D15E;

/// Shared watch-symbol footer. `cold_isolated` puts COLD on its own
/// page (bzip2's COLD shows near-zero virtual-memory overhead in the
/// paper); otherwise COLD shares a page with frequently written data.
fn watch_footer(range_quads: usize, cold_isolated: bool) -> String {
    let mut s = String::new();
    s.push_str("hot:    .quad 0\n");
    s.push_str("warm1:  .quad 0\n");
    s.push_str("warm2:  .quad 0\n");
    s.push_str("range_arr:\n");
    for _ in 0..range_quads {
        s.push_str("        .quad 0\n");
    }
    s.push_str("extras:\n");
    for _ in 0..16 {
        s.push_str("        .quad 0\n");
    }
    if cold_isolated {
        // Only COLD (and the never-written pointer cell) on this page:
        // bzip2's COLD shows near-zero virtual-memory overhead.
        s.push_str(".align 4096\n");
    }
    s.push_str("cold:   .quad 0\n");
    s.push_str("ind_p:  .addr hot\n");
    s
}

/// The iteration count every kernel template is built at;
/// [`Workload::with_iters`] patches the real count in.
pub(crate) const TEMPLATE_ITERS: u32 = 1;

/// A kernel's full construction from source at a scale.
pub(crate) type Build = fn(u32) -> Workload;

/// The six kernels in the paper's order, by name, with their full
/// construction.
pub(crate) const KERNELS: [(&str, Build); 6] = [
    ("bzip2", Workload::bzip2_at),
    ("crafty", Workload::crafty_at),
    ("gcc", Workload::gcc_at),
    ("mcf", Workload::mcf_at),
    ("twolf", Workload::twolf_at),
    ("vortex", Workload::vortex_at),
];

impl Workload {
    /// `bzip2` / `generateMTFValues`: a move-to-front transform over a
    /// skewed byte stream. Dense byte stores from table shifting; HOT is
    /// a run-length counter written per symbol with a *changing* value
    /// (bzip2 is the paper's one benchmark whose HOT stores are mostly
    /// non-silent).
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn bzip2(iters: u32) -> Workload {
        Workload::bzip2_at(TEMPLATE_ITERS).with_iters(iters)
    }

    /// `crafty` / `InitializeAttackBoards`: bitboard ray masks via
    /// shift/or chains. HOT is the per-direction accumulator — half its
    /// stores rewrite an unchanged value (the paper's ≥50% silent
    /// stores).
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn crafty(iters: u32) -> Workload {
        Workload::crafty_at(TEMPLATE_ITERS).with_iters(iters)
    }

    /// `gcc` / `regclass`: per-instruction register-class cost scans.
    /// The scan over the eight classes is fully unrolled, giving gcc the
    /// large static footprint that makes it instruction-cache-sensitive
    /// (Fig. 5); RANGE (the per-class counter array) is written once per
    /// instruction, by far the paper's hottest RANGE.
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn gcc(iters: u32) -> Workload {
        Workload::gcc_at(TEMPLATE_ITERS).with_iters(iters)
    }

    /// `mcf` / `write_circs`: a pointer-chasing walk over a 2 MB node
    /// pool in pseudo-random order — dependent loads that miss the L2,
    /// reproducing mcf's memory-bound IPC (0.33 in Table 1). HOT is a
    /// checksum whose XOR update is zero (silent) half the time.
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn mcf(iters: u32) -> Workload {
        Workload::mcf_at(TEMPLATE_ITERS).with_iters(iters)
    }

    /// `twolf` / `uloop`: a cell-swap annealing loop. Swaps become rarer
    /// as the placement converges, so the HOT cost updates are
    /// frequently silent; COLD is written comparatively often for a
    /// "cold" variable, as in Table 2 (80.8 per 100K stores).
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn twolf(iters: u32) -> Workload {
        Workload::twolf_at(TEMPLATE_ITERS).with_iters(iters)
    }

    /// `vortex` / `BMT_TraverseSets`: traverse object sets via index
    /// arrays, rewriting status fields. The status rewrites and the HOT
    /// visit stamp are overwhelmingly silent — vortex is the paper's
    /// showcase for silent-store-induced spurious value transitions.
    ///
    /// The kernel's template scaled with [`Workload::with_iters`].
    pub fn vortex(iters: u32) -> Workload {
        Workload::vortex_at(TEMPLATE_ITERS).with_iters(iters)
    }
}

impl Workload {
    /// The `bzip2` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn bzip2_at(iters: u32) -> Workload {
        const SCALE: u64 = 16;
        let mut rng = StdRng::seed_from_u64(SEED);
        // Skewed alphabet-32 input: mostly small symbols, so MTF shifts
        // stay short and store density lands near Table 1's 19.8%.
        let input: Vec<u8> = (0..256)
            .map(|_| if rng.gen_bool(0.7) { rng.gen_range(0..4u8) } else { rng.gen_range(0..32u8) })
            .collect();
        let src = format!(
            "start:
                la r1, input
                la r2, mtf
                la r3, hot
                la r4, warm1
                la r5, range_arr
                la r15, warm2
                la r6, n_iters
                ldq r16, 0(r6)
                lda r7, 31(zero)
            initm:
                addq r2, r7, r8
                stb r7, 0(r8)
                subq r7, 1, r7
                bge r7, initm
            outer:
                .stmt
                and r16, 255, r6
                addq r1, r6, r8
                ldb r9, 0(r8)
            find:   lda r10, 0(zero)
            findl:
                addq r2, r10, r11
                ldb r12, 0(r11)
                cmpeq r12, r9, r13
                bne r13, shift
                addq r10, 1, r10
                br findl
            shift:
                ble r10, place
                .stmt
                addq r2, r10, r11
                ldb r13, -1(r11)
                stb r13, 0(r11)
                subq r10, 1, r10
                br shift
            place:
                stb r9, 0(r2)
                .stmt
                ldq r13, 0(r3)
                addq r13, 1, r13
                stq r13, 0(r3)          # HOT: run counter, never silent
                and r13, 63, r17
                bne r17, next
                ldq r18, 0(r4)
                addq r18, 1, r18
                stq r18, 0(r4)          # WARM1: run flush
                and r9, 7, r17
                s8addq r17, r5, r17
                ldq r18, 0(r17)
                addq r18, 1, r18
                stq r18, 0(r17)         # RANGE: frequency bucket
                and r13, 255, r17
                bne r17, next
                ldq r18, 0(r15)
                addq r18, 1, r18
                stq r18, 0(r15)         # WARM2: block boundary
            next:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("bzip2 kernel parses");
        asm.data_label("input").bytes(&input);
        asm.data_label("mtf").space(32);
        // COLD isolated: bzip2's COLD shows near-zero VM overhead.
        for line in watch_footer(8, true).lines() {
            push_data_line(&mut asm, line);
        }
        Workload::from_asm("bzip2", "generateMTFValues", asm, 64, SCALE)
    }

    /// The `crafty` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn crafty_at(iters: u32) -> Workload {
        const SCALE: u64 = 12;
        let src = format!(
            "start:
                la r1, attacks
                la r2, hot
                la r3, warm1
                la r4, warm2
                la r5, cold
                la r6, range_arr
                la r19, extras
                la r7, n_iters
                ldq r16, 0(r7)
                lda r20, 1023(zero)
                la r21, mask14
                ldq r21, 0(r21)
            outer:
                .stmt
                and r16, 63, r8
                lda r9, 0(zero)
                lda r10, 4(zero)
            ray:
                .stmt
                and r8, 31, r11
                lda r12, 1(zero)
                sll r12, r11, r12
                and r10, 1, r13
                mulq r12, r13, r12
                bis r9, r12, r9
                beq r13, skiph
                stq r9, 0(r2)           # HOT: odd directions only, ~50% silent
            skiph:
                s8addq r8, r1, r14
                stq r9, 0(r14)          # attacks[sq]: busy, shares page with cold
                subq r10, 1, r10
                bgt r10, ray
                .stmt
                and r16, 1, r11
                bne r11, skipw1
                ldq r12, 0(r3)
                addq r12, 1, r12
                stq r12, 0(r3)          # WARM1
            skipw1:
                and r16, r20, r11
                bne r11, skipw2
                ldq r12, 0(r4)
                addq r12, 1, r12
                stq r12, 0(r4)          # WARM2
                and r16, r21, r11
                bne r11, skipw2
                ldq r12, 0(r5)
                addq r12, 1, r12
                stq r12, 0(r5)          # COLD
            skipw2:
                and r16, 127, r11
                bne r11, skipx
                and r8, 7, r11
                s8addq r11, r6, r11
                stq r9, 0(r11)          # RANGE
                and r16, 15, r11
                s8addq r11, r19, r11
                stq r9, 0(r11)          # extras[i]: Fig. 6 sweep traffic
            skipx:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            mask14:  .quad 4095
            attacks: .space 512
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("crafty kernel parses");
        for line in watch_footer(8, false).lines() {
            push_data_line(&mut asm, line);
        }
        Workload::from_asm("crafty", "InitializeAttackBoards", asm, 64, SCALE)
    }

    /// The `gcc` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn gcc_at(iters: u32) -> Workload {
        const SCALE: u64 = 10;
        let mut rng = StdRng::seed_from_u64(SEED ^ 1);
        let ops: Vec<u8> = (0..256).map(|_| rng.gen_range(0..8u8)).collect();
        let table: Vec<u8> = (0..64).map(|_| rng.gen_range(1..200u8)).collect();
        // Unrolled scan: class c cost vs best.
        let mut scan = String::new();
        for c in 0..8 {
            scan.push_str(&format!(
                "    .stmt
                     ldb r15, {c}(r14)
                     cmpult r15, r12, r17
                     beq r17, noupd{c}
                     bis r15, r15, r12
                     lda r13, {c}(zero)
                 noupd{c}:
                     s8addq r31, r3, r17
                     stq r15, {off}(r17)         # costs[{c}]: busy working array
                ",
                off = c * 8,
            ));
        }
        let src = format!(
            "start:
                la r1, ops
                la r2, cost_table
                la r3, costs
                la r4, range_arr
                la r5, hot
                la r6, warm1
                la r7, warm2
                la r8, cold
                la r19, extras
                la r9, n_iters
                ldq r16, 0(r9)
                lda r20, 8191(zero)
                lda r21, 4095(zero)
            outer:
                .stmt
                and r16, 255, r9
                addq r1, r9, r9
                ldb r10, 0(r9)
                lda r12, 255(zero)
                lda r13, 0(zero)
                sll r10, 3, r14
                addq r2, r14, r14
            {scan}
                .stmt
                and r13, 7, r17
                s8addq r17, r4, r17
                ldq r18, 0(r17)
                addq r18, 1, r18
                stq r18, 0(r17)         # RANGE: class_count[best]++
                and r16, 15, r17
                bne r17, skiph
                stq r13, 0(r5)          # HOT: best class, mostly unchanged (silent)
            skiph:
                and r16, 31, r17
                bne r17, skipw1
                ldq r18, 0(r6)
                addq r18, 1, r18
                stq r18, 0(r6)          # WARM1
                and r16, 63, r17
                bne r17, skipw1
                and r16, 255, r17
                s8addq r31, r19, r18
                stq r16, 0(r18)         # extras[0]: sweep traffic
            skipw1:
                and r16, r21, r17
                bne r17, next
                ldq r18, 0(r7)
                addq r18, 1, r18
                stq r18, 0(r7)          # WARM2
                and r16, r20, r17
                bne r17, next
                ldq r18, 0(r8)
                addq r18, 1, r18
                stq r18, 0(r8)          # COLD
            next:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("gcc kernel parses");
        asm.data_label("ops").bytes(&ops);
        asm.data_label("cost_table").bytes(&table);
        asm.data_label("costs").space(64);
        for line in watch_footer(8, false).lines() {
            push_data_line(&mut asm, line);
        }
        Workload::from_asm("gcc", "regclass", asm, 64, SCALE)
    }

    /// The `mcf` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn mcf_at(iters: u32) -> Workload {
        const SCALE: u64 = 14;
        const NODES: u64 = 65_536;
        const NODE_BYTES: u64 = 32;
        let nodes_base = dise_asm::Layout::default().data_base + 16; // after n_iters + pad
                                                                     // A full-cycle LCG permutation over node indices: next(i) =
                                                                     // (a*i + c) mod NODES with a ≡ 1 (mod 4), c odd.
        let next_index = |i: u64| (i.wrapping_mul(52_237).wrapping_add(12_345)) % NODES;
        let mut nodes = vec![0u8; (NODES * NODE_BYTES) as usize];
        let mut rng = StdRng::seed_from_u64(SEED ^ 2);
        for i in 0..NODES {
            let off = (i * NODE_BYTES) as usize;
            let next_addr = nodes_base + next_index(i) * NODE_BYTES;
            nodes[off..off + 8].copy_from_slice(&next_addr.to_le_bytes());
            let v: u64 = rng.gen_range(0..1_000_000);
            nodes[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        }
        let src = format!(
            "start:
                la r1, nodes
                la r2, hot
                la r3, warm1
                la r4, warm2
                la r5, n_iters
                ldq r16, 0(r5)
                bis r1, r1, r9
                lda r20, 4095(zero)
            outer:
                .stmt
                ldq r10, 0(r9)          # next pointer: dependent, cache-hostile
                .stmt
                ldq r11, 8(r9)
                addq r11, 1, r11
                stq r11, 8(r9)          # node field write
                and r16, 3, r12
                bne r12, skiph
                and r11, 1, r12
                mulq r12, r11, r12
                ldq r13, 0(r2)
                xor r13, r12, r13
                stq r13, 0(r2)          # HOT: checksum, silent when xor is 0
            skiph:
                .stmt
                bis r10, r10, r9
                and r16, 63, r12
                bne r12, skipw1
                ldq r13, 0(r3)
                addq r13, 1, r13
                stq r13, 0(r3)          # WARM1
            skipw1:
                and r16, r20, r12
                bne r12, next
                ldq r13, 0(r4)
                addq r13, 1, r13
                stq r13, 0(r4)          # WARM2
            next:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            pad:     .quad 0
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("mcf kernel parses");
        asm.data_label("nodes").bytes_vec(nodes);
        // COLD and RANGE are never written: Table 2 reports 0 for both.
        for line in watch_footer(8, false).lines() {
            push_data_line(&mut asm, line);
        }
        let w = Workload::from_asm("mcf", "write_circs", asm, 64, SCALE);
        debug_assert_eq!(
            w.app().prepared().map(|p| p.symbol("nodes")),
            Ok(Some(nodes_base)),
            "node pool base must match the precomputed link addresses"
        );
        w
    }

    /// The `twolf` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn twolf_at(iters: u32) -> Workload {
        const SCALE: u64 = 8;
        let mut rng = StdRng::seed_from_u64(SEED ^ 3);
        let mut cells = Vec::new();
        for _ in 0..256 {
            cells.extend_from_slice(&rng.gen_range(0..100_000u64).to_le_bytes());
        }
        let src = format!(
            "start:
                la r1, cells
                la r2, hot
                la r3, warm1
                la r4, warm2
                la r5, cold
                la r6, range_arr
                la r7, n_iters
                ldq r16, 0(r7)
                lda r18, 1234(zero)
                la r21, lcg_a
                ldq r21, 0(r21)
                la r22, lcg_c
                ldq r22, 0(r22)
                la r20, mask16
                ldq r20, 0(r20)
            outer:
                .stmt
                mulq r18, r21, r18
                addq r18, r22, r18
                and r18, r20, r18
                and r18, 255, r9
                srl r18, 8, r10
                and r10, 255, r10
                .stmt
                s8addq r9, r1, r11
                ldq r12, 0(r11)
                s8addq r10, r1, r13
                ldq r14, 0(r13)
                subq r12, r14, r15
                ble r15, noswap
                stq r14, 0(r11)         # swap: cells converge over time
                stq r12, 0(r13)
            noswap:
                .stmt
                cmplt r15, r31, r17
                mulq r15, r17, r17      # clamp: 0 unless this pair swapped
                and r16, 3, r9
                bne r9, skiph
                ldq r12, 0(r2)
                addq r12, r17, r12
                stq r12, 0(r2)          # HOT: cost update, silent when delta<=0
            skiph:
                .stmt
                and r16, 31, r9
                bne r9, skipw1
                ldq r12, 0(r3)
                addq r12, 1, r12
                stq r12, 0(r3)          # WARM1
            skipw1:
                and r16, r20, r9
                bne r9, skipc
                ldq r12, 0(r4)
                addq r12, 1, r12
                stq r12, 0(r4)          # WARM2
            skipc:
                la r9, mask11
                ldq r9, 0(r9)
                and r16, r9, r9
                bne r9, skipr
                ldq r12, 0(r5)
                addq r12, 1, r12
                stq r12, 0(r5)          # COLD: rare but nonzero
            skipr:
                and r16, 15, r9
                bne r9, next
                and r18, 7, r9
                s8addq r9, r6, r9
                stq r15, 0(r9)          # RANGE
            next:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            mask16:  .quad 65535
            mask11:  .quad 2047
            lcg_a:   .quad 25173
            lcg_c:   .quad 13849
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("twolf kernel parses");
        asm.data_label("cells").bytes(&cells);
        for line in watch_footer(8, false).lines() {
            push_data_line(&mut asm, line);
        }
        Workload::from_asm("twolf", "uloop", asm, 64, SCALE)
    }

    /// The `vortex` kernel built from its source at `iters`: the one full
    /// construction, which [`crate::template`] runs once per kernel.
    fn vortex_at(iters: u32) -> Workload {
        const SCALE: u64 = 14;
        let mut rng = StdRng::seed_from_u64(SEED ^ 4);
        const RECORDS: usize = 512;
        let mut records = vec![0u8; RECORDS * 32];
        for r in 0..RECORDS {
            let v: u64 = rng.gen_range(0..256);
            records[r * 32 + 8..r * 32 + 16].copy_from_slice(&v.to_le_bytes());
        }
        let sets: Vec<u8> = (0..512u32)
            .flat_map(|_| (rng.gen_range(0..RECORDS as u32) * 32).to_le_bytes())
            .collect();
        let src = format!(
            "start:
                la r1, records
                la r2, sets
                la r3, hot
                la r4, warm1
                la r5, warm2
                la r6, out
                la r19, extras
                la r7, n_iters
                ldq r16, 0(r7)
                lda r17, 0(zero)
                la r20, mask13
                ldq r20, 0(r20)
            outer:
                .stmt
                and r16, r20, r8
                and r16, 255, r8
                sll r8, 2, r8
                addq r2, r8, r8
                ldl r9, 0(r8)           # member offset
                .stmt
                addq r1, r9, r9
                ldq r10, 8(r9)          # record value
                bis r10, 1, r11
                stq r11, 16(r9)         # status rewrite: silent after first pass
                and r16, 63, r12
                s8addq r31, r6, r13
                stq r10, 0(r13)         # out[0]: busy store on the watch-var page
                .stmt
                addq r17, 1, r17
                and r17, 3, r12
                bne r12, skiph
                srl r17, 3, r12
                stq r12, 0(r3)          # HOT: visit stamp, ~50% silent
            skiph:
                and r16, 255, r12
                bne r12, skipw
                ldq r13, 0(r4)
                addq r13, 1, r13
                stq r13, 0(r4)          # WARM1
                ldq r13, 0(r5)
                addq r13, 1, r13
                stq r13, 0(r5)          # WARM2 (equal frequency, as in Table 2)
                and r16, 15, r13
                s8addq r31, r19, r13
                stq r16, 8(r13)         # extras[1]: sweep traffic
            skipw:
                and r16, r20, r12
                bne r12, next
                la r12, range_arr
                stq r16, 0(r12)         # RANGE: almost never (0.4 per 100K)
            next:
                subq r16, 1, r16
                bgt r16, outer
                halt
            .data
            n_iters: .quad {n}
            mask13:  .quad 8191
            ",
            n = u64::from(iters) * SCALE,
        );
        let mut asm = parse_asm(&src).expect("vortex kernel parses");
        asm.data_label("records").bytes(&records);
        asm.data_label("sets").bytes(&sets);
        asm.data_label("out").space(64);
        // COLD for vortex is ~0; it still shares the busy page with
        // `out`, which is what makes the paper's COLD/vortex VM bar tall.
        for line in watch_footer(8, false).lines() {
            push_data_line(&mut asm, line);
        }
        Workload::from_asm("vortex", "BMT_TraverseSets", asm, 64, SCALE)
    }
}

/// Feed one line of the shared footer through the data-side parser.
fn push_data_line(asm: &mut dise_asm::Asm, line: &str) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    // Labels.
    let mut rest = line;
    while let Some(colon) = rest.find(':') {
        let (label, tail) = rest.split_at(colon);
        asm.data_label(label.trim());
        rest = tail[1..].trim();
    }
    if rest.is_empty() {
        return;
    }
    let (dir, arg) = match rest.find(char::is_whitespace) {
        Some(i) => (&rest[..i], rest[i..].trim()),
        None => (rest, ""),
    };
    match dir {
        ".quad" => {
            asm.quad(arg.parse::<u64>().expect("quad literal"));
        }
        ".space" => {
            asm.space(arg.parse::<u64>().expect("space literal"));
        }
        ".align" => {
            asm.align(arg.parse::<u64>().expect("align literal"));
        }
        ".addr" => {
            asm.addr_quad(arg);
        }
        other => panic!("unsupported footer directive {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_cpu::{program_fingerprint, Machine};

    /// A template scaled by one patched quad is the kernel built from
    /// source at that scale, in every assembled field, in its prepared
    /// image and in its fingerprint.
    #[test]
    fn scaled_templates_are_the_kernels_built_at_each_scale() {
        for (name, build) in KERNELS {
            let template = build(TEMPLATE_ITERS);
            for iters in [1, 3, 40, 120, 400] {
                let (built, scaled) = (build(iters), template.with_iters(iters));
                let want = built.app().program().expect("kernel assembles");
                let got = scaled.app().program().expect("kernel assembles");
                assert_eq!(
                    (got.text_base, &got.text, got.data_base, got.entry, got.stack_top),
                    (want.text_base, &want.text, want.data_base, want.entry, want.stack_top),
                    "{name} × {iters}: layout"
                );
                assert!(got.data == want.data, "{name} × {iters}: data");
                assert_eq!(got.symbols, want.symbols, "{name} × {iters}: symbols");
                assert_eq!(got.stmt_pcs, want.stmt_pcs, "{name} × {iters}: statement PCs");
                let (p, q) = (built.app().prepared().unwrap(), scaled.app().prepared().unwrap());
                assert_eq!(p.fingerprint(), program_fingerprint(&want), "{name} × {iters}");
                assert_eq!(q.fingerprint(), program_fingerprint(&want), "{name} × {iters}");
                let len = (want.data_end() - want.data_base) as usize;
                assert!(
                    p.memory().read_bytes(want.data_base, len)
                        == q.memory().read_bytes(want.data_base, len),
                    "{name} × {iters}: loaded data"
                );
            }
        }
    }

    #[test]
    fn bzip2_mtf_is_correct() {
        // After the run, mtf[0] must hold the last symbol processed.
        let w = Workload::bzip2(64);
        let prog = w.app().program().unwrap();
        let mut m = Machine::from_program(&prog);
        m.run();
        let mtf = prog.symbol("mtf").unwrap();
        let input = prog.symbol("input").unwrap();
        // Iterations count down from n to 1; index = n & 255.
        let last_index = 1u64 & 255;
        let last_sym = m.exec.mem().read_u(input + last_index, 1);
        assert_eq!(m.exec.mem().read_u(mtf, 1), last_sym);
        // The MTF table stays a permutation of 0..32.
        let mut seen = [false; 32];
        for j in 0..32 {
            let v = m.exec.mem().read_u(mtf + j, 1) as usize;
            assert!(v < 32 && !seen[v], "duplicate or out-of-range entry");
            seen[v] = true;
        }
    }

    #[test]
    fn mcf_walks_the_full_pool_without_escaping() {
        let w = Workload::mcf(64);
        let prog = w.app().program().unwrap();
        let nodes = prog.symbol("nodes").unwrap();
        let mut exec = dise_cpu::Executor::from_program(&prog, Default::default());
        let mut node_stores = 0u64;
        while !exec.is_halted() {
            let e = exec.step();
            if let Some(m) = e.mem {
                if m.is_store && m.addr >= nodes && m.addr < nodes + 65_536 * 32 {
                    node_stores += 1;
                }
            }
        }
        assert!(node_stores >= 64 * 14, "every iteration writes a node");
    }

    #[test]
    fn twolf_converges_to_fewer_swaps() {
        // Count swap stores in the first and last quarter of the run:
        // annealing should make them rarer.
        let w = Workload::twolf(400);
        let prog = w.app().program().unwrap();
        let cells = prog.symbol("cells").unwrap();
        let mut exec = dise_cpu::Executor::from_program(&prog, Default::default());
        let mut swaps = Vec::new();
        let mut total = 0u64;
        while !exec.is_halted() {
            let e = exec.step();
            total += 1;
            if let Some(m) = e.mem {
                if m.is_store && m.addr >= cells && m.addr < cells + 256 * 8 {
                    swaps.push(total);
                }
            }
        }
        let quarter = total / 4;
        let early = swaps.iter().filter(|&&t| t < quarter).count();
        let late = swaps.iter().filter(|&&t| t > 3 * quarter).count();
        assert!(early > late, "swaps should decay: early {early}, late {late}");
    }

    #[test]
    fn hot_silent_fractions_match_paper_direction() {
        // §5.1: "in all HOT benchmarks—save bzip2—50% or more of all
        // stores to the watched address do not change the data value."
        for w in crate::all(300) {
            let prog = w.app().program().unwrap();
            let hot = prog.symbol("hot").unwrap();
            let mut exec = dise_cpu::Executor::from_program(&prog, Default::default());
            let (mut silent, mut total) = (0u64, 0u64);
            while !exec.is_halted() {
                let e = exec.step();
                if let Some(m) = e.mem {
                    if m.is_store && m.addr == hot {
                        total += 1;
                        if m.is_silent_store() {
                            silent += 1;
                        }
                    }
                }
            }
            let frac = silent as f64 / total.max(1) as f64;
            if w.name() == "bzip2" {
                assert!(frac < 0.5, "bzip2 HOT should be mostly non-silent, got {frac:.2}");
            } else {
                assert!(frac >= 0.4, "{} HOT should be heavily silent, got {frac:.2}", w.name());
            }
        }
    }

    #[test]
    fn mcf_has_lowest_ipc() {
        let mut ipcs = std::collections::HashMap::new();
        for w in crate::all(150) {
            let prog = w.app().program().unwrap();
            let mut m = Machine::from_program(&prog);
            let s = m.run_limit(3_000_000);
            ipcs.insert(w.name(), s.ipc());
        }
        let mcf = ipcs["mcf"];
        for (name, ipc) in &ipcs {
            if *name != "mcf" {
                assert!(mcf < *ipc, "mcf ({mcf:.2}) should trail {name} ({ipc:.2})");
            }
        }
        assert!(mcf < 1.0, "mcf must look memory-bound, got {mcf:.2}");
    }
}
