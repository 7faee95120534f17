//! The benchmark's command line:
//!
//! ```text
//! perfbench --workload <paper_grid|session_service|trace_store> --seed <n>
//!           --seconds <n> --trace <0|1> --scratch <dir> [--rev <revision>]
//! ```
//!
//! It prints its settings, notes and (traced) the per-layer summary,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Run it through `run.py`, which builds it and
//! clears every `DISE_*` variable from its environment.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::measure::number;
use perfbench::spans::render;
use perfbench::{run, stats, RunConfig, WORKERS, WORKLOADS};

fn parse() -> Result<(RunConfig, String), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) => args.get(i + 1).cloned().map(Some).ok_or(format!("{key} needs a value")),
        }
    };
    let need = |v: Option<String>, key: &str| v.ok_or(format!("missing {key}"));
    let workload = need(get("--workload")?, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let seed = need(get("--seed")?, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 =
        need(get("--seconds")?, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    // run.py's child timeout covers a traced run of at most this long.
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    let trace = match need(get("--trace")?, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let scratch = PathBuf::from(need(get("--scratch")?, "--scratch")?);
    let rev = get("--rev")?.unwrap_or_else(|| "unknown".to_string());
    Ok((RunConfig { workload, seed, seconds, trace, scratch }, rev))
}

fn main() -> ExitCode {
    let (cfg, rev) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dise_vars: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("DISE_")).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} revision={rev} nproc={nproc} workers={WORKERS} DISE_* set: {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if dise_vars.is_empty() { "none".to_string() } else { dise_vars.join(",") }
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: create {}: {e}", cfg.scratch.display());
        return ExitCode::FAILURE;
    }

    let (out, tracer) = run(&cfg);
    for note in &out.notes {
        println!("note: {note}");
    }
    if cfg.trace {
        let rows = tracer.summary();
        print!("{}", render(&rows));
        let spans = cfg.scratch.join(format!("spans-{}.jsonl", cfg.workload));
        match std::fs::write(&spans, tracer.dump()) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => eprintln!("perfbench: write {}: {e}", spans.display()),
        }
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        let rows: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"layer\": \"{}\", \"pct_self\": {}, \"seconds\": {}, \"usecs_per_call\": {}, \"calls\": {}, \"errors\": {}}}",
                    r.name,
                    number(if total > 0.0 { 100.0 * r.self_s / total } else { 0.0 }),
                    number(r.self_s),
                    number(1e6 * r.self_s / r.calls.max(1) as f64),
                    r.calls,
                    r.errors
                )
            })
            .collect();
        println!("{{\"summary\": [{}]}}", rows.join(", "));
    }
    for m in &out.metrics {
        println!("{:<38} {:>16} {}", m.name, number(m.value), m.unit);
    }
    let error_rate = stats::error_rate(out.attempted.max(1), out.failures.count);
    println!(
        "error_rate {error_rate} ({} of {} operations failed)",
        out.failures.count,
        out.attempted.max(1)
    );
    for reason in &out.failures.reasons {
        println!("failure: {reason}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
