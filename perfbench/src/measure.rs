//! What every workload measures the same way: process CPU time and
//! resident memory, the program's process-global counters, simulated totals,
//! and the result a run reports.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dise_debug::SessionReport;

/// User plus system CPU seconds of this process so far, all threads
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("numeric CPU ticks");
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// Wall and CPU time of one timed region.
pub struct Stopwatch {
    start: Instant,
    cpu: f64,
}

/// A timed region: its interval and the process CPU it used.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    pub start: Instant,
    pub end: Instant,
    pub cpu_s: f64,
}

impl Lap {
    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now(), cpu: cpu_seconds() }
    }

    /// The region from the start until now.
    pub fn stop(&self) -> Lap {
        let cpu_s = cpu_seconds() - self.cpu;
        Lap { start: self.start, end: Instant::now(), cpu_s }
    }
}

/// Samples this process's resident memory every few milliseconds on a
/// thread of its own, keeping the peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<f64>,
}

impl RssSampler {
    /// Start sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_mb());
            }
            peak
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling; the peak resident memory seen, in MB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the memory sampler does not panic").max(rss_mb())
    }
}

/// Resident memory of this process now, in MB (`/proc/self/statm`,
/// 4 KiB pages).
fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("resident pages in /proc/self/statm");
    pages * 4096.0 / (1024.0 * 1024.0)
}

/// The program's eleven process-global counters. One process runs one
/// workload, so their deltas over a round belong to that round alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub functional_passes: u64,
    pub image_loads: u64,
    pub checkpoint_forks: u64,
    pub fanout_chunks: u64,
    pub fanout_skipped: u64,
    pub fanout_scanned: u64,
    pub trace_records: u64,
    pub trace_replays: u64,
    pub slices_granted: u64,
    pub preemptions: u64,
    /// A high-water mark, not a count: the worst wait any session saw.
    /// It depends on how worker threads interleave, so it is reported
    /// but never required to repeat.
    pub max_wait_slices: u64,
}

impl Counters {
    /// The counters now.
    pub fn read() -> Counters {
        Counters {
            functional_passes: dise_debug::functional_passes(),
            image_loads: dise_debug::image_loads(),
            checkpoint_forks: dise_debug::checkpoint_forks(),
            fanout_chunks: dise_debug::fanout_chunks(),
            fanout_skipped: dise_debug::fanout_chunks_skipped(),
            fanout_scanned: dise_debug::fanout_chunks_scanned(),
            trace_records: dise_debug::trace_records(),
            trace_replays: dise_debug::trace_replays(),
            slices_granted: dise_debug::slices_granted(),
            preemptions: dise_debug::preemptions(),
            max_wait_slices: dise_debug::max_wait_slices(),
        }
    }

    /// Counts since `before`; the high-water mark is taken as is.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            functional_passes: self.functional_passes - before.functional_passes,
            image_loads: self.image_loads - before.image_loads,
            checkpoint_forks: self.checkpoint_forks - before.checkpoint_forks,
            fanout_chunks: self.fanout_chunks - before.fanout_chunks,
            fanout_skipped: self.fanout_skipped - before.fanout_skipped,
            fanout_scanned: self.fanout_scanned - before.fanout_scanned,
            trace_records: self.trace_records - before.trace_records,
            trace_replays: self.trace_replays - before.trace_replays,
            slices_granted: self.slices_granted - before.slices_granted,
            preemptions: self.preemptions - before.preemptions,
            max_wait_slices: self.max_wait_slices,
        }
    }

    /// The counts that must repeat exactly from round to round.
    pub fn exact(&self) -> [u64; 10] {
        [
            self.functional_passes,
            self.image_loads,
            self.checkpoint_forks,
            self.fanout_chunks,
            self.fanout_skipped,
            self.fanout_scanned,
            self.trace_records,
            self.trace_replays,
            self.slices_granted,
            self.preemptions,
        ]
    }

    /// Chunk skips over all per-member chunk decisions.
    pub fn skip_ratio(&self) -> f64 {
        let decisions = self.fanout_skipped + self.fanout_scanned;
        if decisions == 0 {
            0.0
        } else {
            self.fanout_skipped as f64 / decisions as f64
        }
    }
}

/// Simulated totals over a set of session reports. A deterministic
/// simulator must reproduce them exactly for the same inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTotals {
    pub reports: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub user_transitions: u64,
    pub spurious_transitions: u64,
}

impl SimTotals {
    /// Add one report.
    pub fn add(&mut self, r: &SessionReport) {
        self.reports += 1;
        self.instructions += r.run.instructions;
        self.cycles += r.run.cycles;
        self.user_transitions += r.transitions.user;
        self.spurious_transitions += r.transitions.spurious_total();
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Failed checks and operations, with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub reasons: Vec<String>,
}

impl Failures {
    /// Count one failure.
    pub fn fail(&mut self, reason: String) {
        self.count += 1;
        if self.reasons.len() < 12 {
            self.reasons.push(reason);
        }
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), unit, value });
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.count == 0,
            self.attempted.max(1),
            self.failures.count
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// FNV-1a over `bytes`: the digest rendered tables are pinned by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 4, ..Outcome::default() };
        o.metric("wall_s", "s", 1.25);
        o.failures.fail("x".into());
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn process_probes_read_sane_values() {
        assert!(cpu_seconds() >= 0.0);
        let sampler = RssSampler::start();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        std::thread::sleep(Duration::from_millis(20));
        let peak = sampler.stop();
        assert!(peak >= 64.0, "a 64 MB block is resident: {peak}");
        drop(std::hint::black_box(block));
    }
}
