//! `session_server`'s job-list parser never panics on data:
//! `server::parse_jobs` on token soup returns specs or a message.
//!
//! The soup is lines of a first token and a few `key=value` tokens:
//! every key, valid and unknown values, integers past `u32`/`u64`,
//! forward and backward `after=` references, duplicates, comments and
//! odd bytes. Tier-1 runs a small case count; the `#[ignore]`d sweep
//! runs many more:
//!
//! ```text
//! cargo test --release -p dise-bench --test parse_jobs_robustness -- --include-ignored
//! ```

use dise_bench::server::parse_jobs;
use dise_cpu::CpuConfig;
use proptest::prelude::*;

#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "a", "b", "c", "a=1", "=", "==", "#", "# comment", "kernel=bzip2", "kernel=mcf",
    "kernel=gcc", "kernel=", "kernel=nope", "watch=hot", "watch=cold", "watch=indirect",
    "watch=range", "watch=lukewarm", "backend=dise", "backend=vm", "backend=hw", "backend=step",
    "backend=rewrite", "backend=cmp", "backend=gdb", "iters=0", "iters=1", "iters=7",
    "iters=4294967295", "iters=4294967296", "iters=-1", "iters=", "cost=0", "cost=100000",
    "cost=18446744073709551615", "cost=18446744073709551616", "cost=x", "after=a", "after=b",
    "after=c", "after=", "after=zz", "unknown=1", "kernel=bzip2=x", "é", "\t", "\r", "\0",
];

/// Lines of `(first token, more tokens)`; the first token is usually a
/// name so that many lines get as far as their keys.
type Soup = Vec<(usize, Vec<usize>)>;

fn soup_strategy(max_lines: usize) -> impl Strategy<Value = Soup> {
    prop::collection::vec(
        (0..TOKENS.len(), prop::collection::vec(0..TOKENS.len(), 0..6)),
        0..max_lines,
    )
}

fn render(soup: &Soup) -> String {
    let mut text = String::new();
    for (first, rest) in soup {
        // Names a, b and c a third of the time each, else any token.
        text.push_str(TOKENS[if *first % 2 == 0 { *first % 3 } else { *first }]);
        for &t in rest {
            text.push(' ');
            text.push_str(TOKENS[t]);
        }
        text.push('\n');
    }
    text
}

/// Parse the soup and each line alone; a result either way is fine, a
/// panic fails the case.
fn parses_or_errs(soup: &Soup) {
    let text = render(soup);
    let _ = parse_jobs(&text);
    for line in text.lines() {
        let _ = parse_jobs(line);
    }
}

/// A `cost=` above [`CpuConfig::MAX_TRANSITION_COST`] would wrap the
/// session's cycle count, so the parser rejects it at its line; the
/// bound itself is accepted.
#[test]
fn cost_past_the_largest_transition_cost_is_rejected() {
    let job = |cost: &str| format!("a kernel=mcf watch=hot backend=vm iters=5 cost={cost}");
    let err = parse_jobs(&job("18446744073709551615")).expect_err("u64::MAX is rejected");
    assert!(err.starts_with("line 1: "), "{err}");
    let jobs = parse_jobs(&job("4294967296")).expect("the bound is accepted");
    assert_eq!(jobs[0].cost, Some(CpuConfig::MAX_TRANSITION_COST));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn job_soup_never_panics(soup in soup_strategy(8)) {
        parses_or_errs(&soup);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn job_soup_never_panics_sweep(soup in soup_strategy(12)) {
        parses_or_errs(&soup);
    }
}
