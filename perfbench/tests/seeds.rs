//! Whole runs at the smallest size, on the default seed and on a seed
//! no tuning of the benchmark ever used: every check must pass and
//! every metric must be reported, traced and untraced.

use perfbench::{run, RunConfig, END_TO_END, PER_LAYER};

/// The seed the benchmark was tuned on, and one held out from tuning.
const SEEDS: [u64; 2] = [1, 7919];

fn config(workload: &str, seed: u64, trace: bool) -> RunConfig {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{workload}-{seed}", std::process::id()));
    RunConfig { workload: workload.to_string(), seed, seconds: 0.1, trace, scratch }
}

fn check(workload: &str, seed: u64, trace: bool) {
    let cfg = config(workload, seed, trace);
    std::fs::create_dir_all(&cfg.scratch).expect("create scratch");
    let (out, _) = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    assert_eq!(out.failures.count, 0, "{workload} seed {seed}: {:?}", out.failures.reasons);
    assert!(out.attempted > 0);
    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, expected, "{workload} seed {seed}");
    if !trace {
        for m in &out.metrics {
            assert!(m.value > 0.0, "{workload} seed {seed}: {} = {}", m.name, m.value);
        }
    }
}

/// One test, so the runs take turns: the program's counters are
/// process-global, and a run checks that they repeat round to round.
#[test]
fn workloads_on_default_and_held_out_seed() {
    for seed in SEEDS {
        check("session_service", seed, false);
        check("trace_store", seed, false);
    }
    check("trace_store", SEEDS[1], true);
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
    }
    for workload in perfbench::WORKLOADS {
        assert!(spec.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
    }
}
