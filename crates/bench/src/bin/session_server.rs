//! `session_server` — debug sessions as a service, on one scheduler.
//!
//! Reads a job list (grammar in [`dise_bench::server`]) from the path
//! given as the first argument, or from stdin when no argument is
//! given. Streams one line per session *as it completes*, then prints
//! the deterministic submission-order transcript under a
//! `=== session_server report ===` banner — CI extracts that tail with
//! `sed -n '/^=== /,$p'` and diffs it against a golden file, because it
//! is byte-identical for every `DISE_JOBS` (worker threads, default:
//! available parallelism) and `DISE_SLICE` (instructions per slice,
//! default 65536).
//!
//! ```text
//! $ session_server jobs.txt          # or:  session_server < jobs.txt
//! ```
//!
//! Exits with status 2 and a message on a malformed job list.

use std::io::Read;

use dise_bench::server::{parse_jobs, serve};
use dise_bench::{default_workers, DEFAULT_SLICE};

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    let jobs = parse_jobs(&text).unwrap_or_else(|e| fail(&e));
    let workers = dise_env::env_number("DISE_JOBS", default_workers());
    let slice = dise_env::env_number("DISE_SLICE", DEFAULT_SLICE);
    println!("session_server: {} session(s), {workers} worker(s), slice {slice}", jobs.len());

    let outcome = serve(&jobs, workers, slice, |line| println!("{line}"));
    let s = outcome.stats;
    println!(
        "scheduler: slices_granted={} preemptions={} max_wait_slices={} max_in_flight={}",
        s.slices_granted, s.preemptions, s.max_wait_slices, s.max_in_flight
    );
    print!("{}", outcome.transcript);
}

fn fail(msg: &str) -> ! {
    eprintln!("session_server: {msg}");
    std::process::exit(2);
}
