//! Criterion microbenchmarks of the simulator's hot paths: DISE
//! expansion, cache access, branch prediction, functional execution
//! (a tight loop, the six kernels, and the DISE replacement path),
//! the timing model — its steady-state per-record cost on a tight loop
//! and on a DISE-expanded kernel pass and, apart from it, the cost of
//! building one — the trace codec and its CRC, and
//! session admission from a prepared kernel.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use dise_asm::{parse_asm, Layout};
use dise_cpu::{
    CpuConfig, Exec, ExecChunk, ExecDecoder, ExecEncoder, Executor, Predictor, Timing,
    MAX_BLOCK_STEPS,
};
use dise_debug::{BackendKind, Session, SessionTask, Step};
use dise_engine::{Engine, Pattern, Production, TDisp, TOperand, TReg, TemplateInst};
use dise_isa::{decode, encode, AluOp, Cond, Instr, OpClass, Reg, Width};
use dise_mem::{Cache, CacheConfig, MemConfig, MemSystem};
use dise_workloads::WatchKind;

fn bench_isa_codec(c: &mut Criterion) {
    let insts: Vec<Instr> = (0..64u8)
        .map(|i| Instr::Load {
            width: Width::Q,
            rd: Reg::gpr(i % 32),
            base: Reg::SP,
            disp: i as i16 * 8,
        })
        .collect();
    let words: Vec<u32> = insts.iter().map(encode).collect();
    let mut g = c.benchmark_group("isa");
    g.throughput(Throughput::Elements(insts.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| insts.iter().map(encode).fold(0u64, |a, w| a ^ w as u64))
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            words.iter().map(|w| decode(black_box(*w)).unwrap()).filter(Instr::is_load).count()
        })
    });
    g.finish();
}

fn bench_engine_expansion(c: &mut Criterion) {
    let mut engine = Engine::with_paper_config();
    engine
        .install(Production::new(
            "stores",
            Pattern::opclass(OpClass::Store),
            vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
        ))
        .unwrap();
    let store = Instr::Store { width: Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 8 };
    let alu = Instr::mov(Reg::gpr(1), Reg::gpr(2));
    let mut g = c.benchmark_group("engine");
    g.bench_function("expand_match", |b| {
        b.iter(|| engine.expand(black_box(0x1000), black_box(&store)))
    });
    g.bench_function("expand_miss", |b| {
        b.iter(|| engine.expand(black_box(0x1000), black_box(&alu)))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem");
    g.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheConfig::L1);
        cache.access(0x1000);
        b.iter(|| cache.access(black_box(0x1000)))
    });
    g.bench_function("hierarchy_stream", |b| {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0xf_ffff;
            sys.data_access(black_box(addr), false)
        })
    });
    // Consecutive quads of one line: every access after the first
    // repeats the last line resolved.
    g.bench_function("hierarchy_repeat_line", |b| {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 8) & 0x3f;
            sys.data_access(black_box(0x4000 + addr), false)
        })
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut p = Predictor::new(Default::default());
    let mut i = 0u64;
    c.bench_function("predictor/predict_update", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            p.predict_and_update(black_box(0x1000 + (i % 64) * 4), i.is_multiple_of(3))
        })
    });
}

fn countdown(n: u32) -> dise_asm::Program {
    parse_asm(&format!(
        "start: lda r1, {n}(zero)
         loop:  subq r1, 1, r1
                stq r1, 0(r2)
                bgt r1, loop
                halt"
    ))
    .unwrap()
    .assemble(Layout::default())
    .unwrap()
}

fn bench_pipeline(c: &mut Criterion) {
    let prog = countdown(2000);
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(2000 * 3));
    g.bench_function("functional", |b| {
        b.iter(|| {
            let mut e = Executor::from_program(&prog, CpuConfig::default());
            let mut n = 0u64;
            while !e.is_halted() {
                e.step();
                n += 1;
            }
            n
        })
    });
    // The recorded stream, replayed through one long-lived model: the
    // per-record cost of timing alone, with construction kept out.
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut stream: Vec<Exec> = Vec::new();
    while !exec.is_halted() {
        stream.push(exec.step());
    }
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("timed_stream", |b| {
        let mut t = Timing::new(CpuConfig::default());
        b.iter(|| {
            for e in &stream {
                t.consume(e);
            }
            t.cycles()
        })
    });
    g.finish();
    c.bench_function("cpu/timing_new", |b| b.iter(|| Timing::new(black_box(CpuConfig::default()))));
}

/// The timing model on the records a figure's private pass feeds it:
/// crafty under DISE with serial matching over eight watchpoints, so
/// about half the records are replacement instructions. The stream is
/// recorded once from the admitted machine and replayed through one
/// long-lived model, reported per record.
fn bench_timed_dise_stream(c: &mut Criterion) {
    let w = dise_workloads::by_name("crafty", 20).expect("a kernel");
    let session = Session::with_config(
        w.app(),
        w.sweep_watchpoints(8),
        BackendKind::dise_default(),
        CpuConfig::default(),
    )
    .expect("crafty admits under DISE");
    let mut exec = session.executor().clone();
    let mut stream: Vec<Exec> = Vec::new();
    while !exec.is_halted() {
        stream.push(exec.step());
    }
    let replacements = stream.iter().filter(|e| e.disepc != 0).count();
    assert!(5 * replacements > 2 * stream.len(), "{replacements} of {} replace", stream.len());
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("timed_dise_stream", |b| {
        let mut t = Timing::new(CpuConfig::default());
        b.iter(|| {
            for e in &stream {
                t.consume(e);
            }
            t.cycles()
        })
    });
    g.finish();
}

/// Run `exec` to its halt a chunk at a time, the way the observer
/// fan-out and perfbench's `cpu.exec` probe drive it; returns the
/// records stepped.
fn run_chunked(exec: &mut Executor, chunk: &mut ExecChunk) -> u64 {
    let mut n = 0;
    while !exec.is_halted() {
        chunk.clear();
        n += exec.step_chunk(chunk, u64::MAX, |_| false).0;
    }
    n
}

/// The functional step on real code: each of the six kernels at
/// `iters = 100`, loaded and stepped to its halt through `step_chunk`
/// with 64-record chunks. Reported per record; the image load is
/// inside the timed routine.
fn bench_kernels(c: &mut Criterion) {
    let progs: Vec<_> =
        dise_workloads::all(100).iter().map(|w| w.app().program().unwrap()).collect();
    let mut chunk = ExecChunk::with_capacity(MAX_BLOCK_STEPS);
    let records: u64 = progs
        .iter()
        .map(|p| run_chunked(&mut Executor::from_program(p, CpuConfig::default()), &mut chunk))
        .sum();
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(records));
    g.bench_function("kernels", |b| {
        b.iter(|| {
            progs
                .iter()
                .map(|p| {
                    let mut exec = Executor::from_program(p, CpuConfig::default());
                    run_chunked(&mut exec, &mut chunk)
                })
                .sum::<u64>()
        })
    });
    g.finish();
}

/// The DISE replacement path on its own: a store loop whose every
/// store expands into the paper's Fig. 2a check (load the watched
/// quad, compare, DISE-branch over a trap). The stored value never
/// changes the watched quad, so each trigger runs four replacement
/// instructions and its `d_bne` is taken.
fn bench_dise_replacement(c: &mut Criterion) {
    const STORES: u32 = 2000;
    let prog = parse_asm(&format!(
        "start: la r2, v
                lda r1, {STORES}(zero)
         loop:  stq r1, 8(r2)
                subq r1, 1, r1
                bgt r1, loop
                halt
         .data
         v: .quad 0
            .quad 0"
    ))
    .unwrap()
    .assemble(Layout::default())
    .unwrap();
    let watched = prog.symbol("v").unwrap();
    let dr1 = TReg::Lit(Reg::dise(1));
    let machine = || {
        let mut e = Executor::from_program(&prog, CpuConfig::default());
        e.engine_mut()
            .install(Production::new(
                "fig2a",
                Pattern::opclass(OpClass::Store),
                vec![
                    TemplateInst::Trigger,
                    TemplateInst::Load {
                        width: Width::Q,
                        rd: dr1,
                        base: TReg::Lit(Reg::DAR),
                        disp: TDisp::Lit(0),
                    },
                    TemplateInst::Alu {
                        op: AluOp::CmpEq,
                        rd: dr1,
                        ra: dr1,
                        rb: TOperand::Reg(TReg::Lit(Reg::DPV)),
                    },
                    TemplateInst::Fixed(Instr::DBr { cond: Cond::Ne, rs: Reg::dise(1), disp: 1 }),
                    TemplateInst::Fixed(Instr::Trap),
                ],
            ))
            .unwrap();
        e.set_reg(Reg::DAR, watched);
        e
    };
    let mut chunk = ExecChunk::with_capacity(MAX_BLOCK_STEPS);
    let records = run_chunked(&mut machine(), &mut chunk);
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(records));
    g.bench_function("dise_replacement", |b| b.iter(|| run_chunked(&mut machine(), &mut chunk)));
    g.finish();
}

/// The trace codec in steady state, with no file I/O: every kernel's
/// recorded stream encoded into (and decoded from) a reused buffer,
/// reported per record; and the container's CRC over one full chunk.
fn bench_trace(c: &mut Criterion) {
    let streams: Vec<Vec<Exec>> = dise_workloads::all(20)
        .iter()
        .map(|w| {
            let prog = w.app().program().unwrap();
            let mut exec = Executor::from_program(&prog, CpuConfig::default());
            let mut stream = Vec::new();
            while !exec.is_halted() {
                stream.push(exec.step());
            }
            stream
        })
        .collect();
    let records: usize = streams.iter().map(Vec::len).sum();
    let encode = |out: &mut Vec<Vec<u8>>| {
        for (stream, bytes) in streams.iter().zip(out.iter_mut()) {
            bytes.clear();
            let mut enc = ExecEncoder::new();
            for e in stream {
                enc.encode(e, bytes);
            }
            enc.finish(bytes);
        }
    };
    let mut encoded = vec![Vec::new(); streams.len()];
    encode(&mut encoded);
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(records as u64));
    g.bench_function("encode", |b| {
        let mut out = vec![Vec::new(); streams.len()];
        b.iter(|| {
            encode(&mut out);
            out.iter().map(Vec::len).sum::<usize>()
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for bytes in &encoded {
                let mut dec = ExecDecoder::new();
                let mut pos = 0;
                while let Some(e) = dec.next(bytes, &mut pos).unwrap() {
                    sum = sum.wrapping_add(e.pc);
                }
            }
            sum
        })
    });
    let chunk: Vec<u8> =
        (0..64 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    g.throughput(Throughput::Bytes(chunk.len() as u64));
    g.bench_function("crc32_64k", |b| b.iter(|| dise_trace::wire::crc32(black_box(&chunk))));
    g.finish();
}

/// Session admission: `poll(0)` of a fresh `SessionTask::session` on
/// a shared, already prepared workload — the per-session cost of
/// instantiating the image (and, under DISE, building the handler and
/// data region), with no instruction run.
fn bench_admit(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/admit");
    for name in ["mcf", "bzip2"] {
        let w = dise_workloads::by_name(name, 40).expect("a kernel");
        let wps = vec![w.watchpoint(WatchKind::Hot)];
        for (label, backend) in
            [("vm", BackendKind::VirtualMemory), ("dise", BackendKind::dise_default())]
        {
            let admit = || {
                let mut task =
                    SessionTask::session(w.app(), wps.clone(), backend, CpuConfig::default());
                matches!(task.poll(0), Step::Yielded(_))
            };
            assert!(admit(), "{name} admits under {label}");
            g.bench_function(&format!("{name}_{label}"), |b| b.iter(admit));
        }
    }
    g.finish();
}

/// Scaling a prepared kernel template: one patched quad, nothing built.
fn bench_with_iters(c: &mut Criterion) {
    let t = dise_workloads::template("mcf").expect("a kernel");
    t.app().prepared().expect("kernel assembles");
    c.bench_function("workloads/with_iters", |b| {
        b.iter(|| t.with_iters(black_box(40)).app().prepared().map(|p| p.entry()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_isa_codec, bench_engine_expansion, bench_cache, bench_predictor,
              bench_pipeline, bench_timed_dise_stream, bench_kernels, bench_dise_replacement, bench_trace, bench_admit,
              bench_with_iters
}
criterion_main!(benches);
