//! Per-layer probes: the benchmark's own timed calls into each crate's
//! public functions, on every kernel. Each probe is a span per call
//! loop, so its self time and µs/call land in the summary table.

use std::time::Instant;

use dise_cpu::{
    program_fingerprint, CpuConfig, Exec, ExecChunk, Executor, Machine, RunStats, TimingBatch,
    TraceReader, TraceWriter,
};
use dise_debug::ObserverBatch;
use dise_engine::{Engine, Pattern, Production, TemplateInst};
use dise_isa::{Instr, OpClass};
use dise_mem::{CacheStats, MemSystem};
use dise_workloads::{all, by_name, transition_cost_sweep, watchpoint_set_sweep, Workload};

use crate::measure::Outcome;
use crate::spans::{SpanId, Tracer};
use crate::trace_store::observers;
use crate::{LayerValues, RunConfig};

/// Kernel iterations the probes run at.
pub const PROBE_ITERS: u32 = 100;

/// Records per chunk, as the observer fan-out uses.
const CHUNK: usize = 64;

/// Forks timed per kernel.
const FORKS: usize = 50;

/// Cycles and instructions of every kernel's undebugged run at
/// [`PROBE_ITERS`], with the final `MemSystem::stats`. A deterministic
/// simulator gives the same totals every time it is asked.
pub fn baseline_totals() -> Vec<(RunStats, [CacheStats; 5])> {
    all(PROBE_ITERS)
        .iter()
        .map(|w| {
            let prog = w.app().program().expect("kernel assembles");
            let mut m = Machine::with_config(&prog, CpuConfig::default());
            let stats = m.run();
            let (a, b, c, d, e) = m.timing.mem_system().stats();
            (stats, [a, b, c, d, e])
        })
        .collect()
}

/// Run every probe under one span and add its per-layer values.
pub fn probe(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome, values: &mut LayerValues) {
    let root = tracer.open("layer probes", Tracer::ROOT);
    let cpu = CpuConfig::default();

    let (kernels, secs) =
        tracer.time("workloads dise_workloads::all", root, 1, || all(PROBE_ITERS));
    values.insert("workloads.build_ms", secs * 1e3);
    let names: Vec<&str> = kernels.iter().map(Workload::name).collect();
    let ((), _) =
        tracer.time("workloads dise_workloads::by_name", root, names.len() as u64, || {
            for n in &names {
                by_name(n, PROBE_ITERS).expect("known kernel");
            }
        });

    let (progs, secs) = tracer.time("asm Application::program", root, kernels.len() as u64, || {
        kernels.iter().map(|w| w.app().program().expect("kernel assembles")).collect::<Vec<_>>()
    });
    values.insert("asm.assemble_us", 1e6 * secs / kernels.len() as f64);

    // cpu.exec: the functional stream of each kernel, a chunk at a time.
    let mut streams: Vec<Vec<Exec>> = Vec::new();
    let (mut exec_s, mut lookups, mut hits) = (0.0, 0u64, 0u64);
    for prog in &progs {
        let mut exec = Executor::from_program(prog, cpu);
        let mut chunk = ExecChunk::with_capacity(CHUNK);
        let mut records = Vec::new();
        let span = tracer.open("cpu.exec Executor::step_chunk", root);
        let t = Instant::now();
        let mut calls = 0;
        while !exec.is_halted() {
            chunk.clear();
            exec.step_chunk(&mut chunk, u64::MAX, |_| false);
            records.extend_from_slice(chunk.records());
            calls += 1;
        }
        exec_s += t.elapsed().as_secs_f64();
        tracer.close(span, calls, 0);
        let b = exec.block_cache_stats();
        lookups += b.lookups;
        hits += b.hits;
        streams.push(records);
    }
    let records: usize = streams.iter().map(Vec::len).sum();
    values.insert("cpu.exec.ns_per_record", 1e9 * exec_s / records as f64);
    values.insert("cpu.exec.block_hit_ratio", hits as f64 / lookups.max(1) as f64);

    // cpu.timing: every kernel's stream under the three transition costs.
    let configs: Vec<CpuConfig> = transition_cost_sweep(cpu).into_iter().map(|(_, c)| c).collect();
    let mut timing_s = 0.0;
    for stream in &streams {
        let mut batch = TimingBatch::new(&configs);
        let ((), secs) = tracer.time(
            "cpu.timing TimingBatch::consume_slice",
            root,
            stream.len().div_ceil(CHUNK) as u64,
            || {
                for slice in stream.chunks(CHUNK) {
                    batch.consume_slice(slice);
                }
            },
        );
        timing_s += secs;
        std::hint::black_box(batch.finish());
    }
    values.insert("cpu.timing.ns_per_record", 1e9 * timing_s / (records * configs.len()) as f64);

    trace_codec(cfg, tracer, root, &progs, &streams, out, values);
    memory(tracer, root, &progs, &streams, values);
    dise(tracer, root, &streams, values);

    // core.observer: one shared pass fanned out to every observing
    // backend × watchpoint set.
    let mut observe_s = 0.0;
    let mut member_records = 0u64;
    for (w, stream) in kernels.iter().zip(&streams) {
        let mut batch = ObserverBatch::new(w.app());
        let mut members = 0u64;
        for b in observers() {
            for (_, wps) in watchpoint_set_sweep(w) {
                batch.member(b, wps, vec![cpu]);
                members += 1;
            }
        }
        let (result, secs) =
            tracer.time("core.observer ObserverBatch::run", root, 1, || batch.run());
        observe_s += secs;
        member_records += members * stream.len() as u64;
        out.attempted += 1;
        out.failures
            .check(result.is_ok(), || format!("observer batch on {}: {result:?}", w.name()));
    }
    values.insert("core.observer.ns_per_member_record", 1e9 * observe_s / member_records as f64);
    tracer.close(root, 1, 0);
}

/// cpu.trace and trace: write each stream to a `.dtrc` file, reopen it,
/// decode it, and check it round-trips.
fn trace_codec(
    cfg: &RunConfig,
    tracer: &Tracer,
    root: SpanId,
    progs: &[dise_asm::Program],
    streams: &[Vec<Exec>],
    out: &mut Outcome,
    values: &mut LayerValues,
) {
    let dir = cfg.scratch.join(format!("probe-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.attempted += 1;
        return out.failures.fail(format!("create {}: {e}", dir.display()));
    }
    let (mut encode_s, mut decode_s, mut finish_s, mut open_s, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0u64);
    for (i, (prog, stream)) in progs.iter().zip(streams).enumerate() {
        let path = dir.join(format!("{i}.dtrc"));
        let fp = program_fingerprint(prog);
        out.attempted += 1;
        let round_trip = (|| -> Result<Vec<Exec>, String> {
            let mut writer = TraceWriter::create(&path, fp).map_err(|e| e.to_string())?;
            let ((), secs) =
                tracer.time("cpu.trace TraceWriter::record", root, stream.len() as u64, || {
                    for e in stream {
                        writer.record(e);
                    }
                });
            encode_s += secs;
            let (stats, secs) =
                tracer.time("trace TraceWriter::finish", root, 1, || writer.finish());
            encode_s += secs;
            finish_s += secs;
            bytes += stats.map_err(|e| e.to_string())?.file_bytes;
            let (reader, secs) = tracer
                .time("trace TraceReader::open", root, 1, || TraceReader::open(&path, Some(fp)));
            open_s += secs;
            let mut reader = reader.map_err(|e| e.to_string())?;
            let mut chunk = ExecChunk::with_capacity(CHUNK);
            let mut decoded = Vec::with_capacity(stream.len());
            let span = tracer.open("cpu.trace TraceReader::next_chunk", root);
            let t = Instant::now();
            let mut calls = 0;
            loop {
                chunk.clear();
                let (n, _) = reader
                    .next_chunk(&mut chunk, u64::MAX, |_| false)
                    .map_err(|e| e.to_string())?;
                calls += 1;
                if n == 0 {
                    break;
                }
                decoded.extend_from_slice(chunk.records());
            }
            decode_s += t.elapsed().as_secs_f64();
            tracer.close(span, calls, 0);
            Ok(decoded)
        })();
        match round_trip {
            Ok(decoded) => out.failures.check(decoded == *stream, || {
                format!("kernel {i}: decoded trace differs from the recorded stream")
            }),
            Err(e) => out.failures.fail(format!("kernel {i}: trace round trip: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let records: usize = streams.iter().map(Vec::len).sum();
    values.insert("cpu.trace.encode_ns_per_record", 1e9 * encode_s / records as f64);
    values.insert("cpu.trace.decode_ns_per_record", 1e9 * decode_s / records as f64);
    values.insert("cpu.trace.bytes_per_record", bytes as f64 / records as f64);
    values.insert("trace.finish_ms", 1e3 * finish_s / streams.len() as f64);
    values.insert("trace.open_ms", 1e3 * open_s / streams.len() as f64);
}

/// mem: the hierarchy on each stream's data accesses, and copy-on-write
/// forks of each loaded image.
fn memory(
    tracer: &Tracer,
    root: SpanId,
    progs: &[dise_asm::Program],
    streams: &[Vec<Exec>],
    values: &mut LayerValues,
) {
    let cpu = CpuConfig::default();
    let (mut access_s, mut accesses) = (0.0, 0u64);
    for stream in streams {
        let ops: Vec<_> = stream.iter().filter_map(|e| e.mem).collect();
        let mut sys = MemSystem::new(cpu.mem);
        let (cycles, secs) =
            tracer.time("mem MemSystem::data_access", root, ops.len() as u64, || {
                ops.iter().map(|m| sys.data_access(m.addr, m.is_store)).sum::<u64>()
            });
        std::hint::black_box(cycles);
        access_s += secs;
        accesses += ops.len() as u64;
    }
    values.insert("mem.data_access_ns", 1e9 * access_s / accesses.max(1) as f64);

    let (mut fork_s, mut copied) = (0.0, 0u64);
    for prog in progs {
        let mut parent = Executor::from_program(prog, cpu);
        let (forks, secs) = tracer.time("mem Executor::fork", root, FORKS as u64, || {
            (0..FORKS).map(|_| parent.fork()).collect::<Vec<_>>()
        });
        fork_s += secs;
        drop(forks);
        let mut child = parent.fork();
        let mut chunk = ExecChunk::with_capacity(CHUNK);
        while !child.is_halted() {
            chunk.clear();
            child.step_chunk(&mut chunk, u64::MAX, |_| false);
        }
        copied += child.mem().cow_stats().pages_copied + parent.mem().cow_stats().pages_copied;
    }
    values.insert("mem.fork_us", 1e6 * fork_s / (FORKS * progs.len()) as f64);
    values.insert("mem.pages_copied", copied as f64);
}

/// dise: expand every fetched instruction of each stream through a
/// paper-configured engine holding one store production.
fn dise(tracer: &Tracer, root: SpanId, streams: &[Vec<Exec>], values: &mut LayerValues) {
    let (mut expand_s, mut calls, mut expansions) = (0.0, 0u64, 0u64);
    for stream in streams {
        let mut engine = Engine::with_paper_config();
        engine
            .install(Production::new(
                "store watch",
                Pattern::opclass(OpClass::Store),
                vec![TemplateInst::Trigger, TemplateInst::Fixed(Instr::Nop)],
            ))
            .expect("one production fits the paper's engine");
        let fetched: Vec<&Exec> = stream.iter().filter(|e| e.fetched).collect();
        let (n, secs) = tracer.time("dise Engine::expand", root, fetched.len() as u64, || {
            fetched
                .iter()
                .filter_map(|e| engine.expand(e.pc, &e.instr))
                .map(|seq| seq.len())
                .sum::<usize>()
        });
        std::hint::black_box(n);
        expand_s += secs;
        calls += fetched.len() as u64;
        expansions += engine.stats().0;
    }
    values.insert("dise.expand_ns", 1e9 * expand_s / calls.max(1) as f64);
    values.insert("dise.expansions", expansions as f64);
}
