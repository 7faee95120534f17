//! Seeded input generation. The program only ever sees what these
//! functions produce: job lines in the `session_server` grammar and
//! observer member sets for trace replays.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream`, so independent inputs drawn
    /// from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The six kernels, by `session_server` name.
pub const KERNELS: [&str; 6] = ["bzip2", "crafty", "gcc", "mcf", "twolf", "vortex"];

/// Each `session_server` backend with the watch kinds it can implement:
/// page protection and debug registers cannot follow a pointer, debug
/// registers cannot cover an array, and static rewriting instruments
/// single scalars only. Every generated session therefore succeeds.
pub const BACKENDS: [(&str, &[&str]); 6] = [
    ("dise", &["hot", "warm1", "warm2", "cold", "indirect", "range"]),
    ("cmp", &["hot", "warm1", "warm2", "cold", "indirect", "range"]),
    ("vm", &["hot", "warm1", "warm2", "cold", "range"]),
    ("hw", &["hot", "warm1", "warm2", "cold"]),
    ("rewrite", &["hot", "warm1", "warm2", "cold"]),
    ("step", &["hot", "warm1", "warm2", "cold", "indirect", "range"]),
];

/// Smallest and largest `iters=` of a generated session.
pub const ITERS_RANGE: (u32, u32) = (3, 120);

/// `n` job lines for `seed`.
///
/// Every kernel gets the same share of jobs, and so does every backend
/// but `step`, which gets one job in twenty. Within each kernel ×
/// backend cell, `iters=` takes the midpoint of each of the cell's
/// equally likely bands of a log-uniform distribution over
/// [`ITERS_RANGE`], so most sessions are short and a few are forty
/// times longer, and the watch kinds the backend supports take turns.
/// That job mix is fixed, so every seed asks for the same work down to
/// its longest sessions, which set the latency tail. The seed decides
/// what a scheduler sees of it: the order the jobs arrive in and which
/// one in ten overrides the debugger-transition cost.
pub fn session_jobs(seed: u64, n: usize) -> String {
    let mut rng = Rng::new(seed, 1);
    let (lo, hi) = ITERS_RANGE;
    let span = f64::from(hi) / f64::from(lo);
    // Cell sizes: `step` cells share n/20 jobs, the other cells the rest,
    // the first cells taking one more where it does not divide evenly.
    let step = n / 20;
    let cells = KERNELS.len() * (BACKENDS.len() - 1);
    let share =
        |total: usize, parts: usize, i: usize| total / parts + usize::from(i < total % parts);
    let mut jobs = Vec::with_capacity(n);
    for (k, kernel) in KERNELS.into_iter().enumerate() {
        for (b, (backend, watches)) in BACKENDS.iter().enumerate() {
            let m = if b == BACKENDS.len() - 1 {
                share(step, KERNELS.len(), k)
            } else {
                share(n - step, cells, k * (BACKENDS.len() - 1) + b)
            };
            for i in 0..m {
                let u = (i as f64 + 0.5) / m as f64;
                let iters = ((f64::from(lo) * span.powf(u)) as u32).clamp(lo, hi);
                let watch = watches[i % watches.len()];
                let cost = (rng.below(10) == 0).then(|| [290_000, 513_000][rng.below(2)]);
                jobs.push((kernel, *backend, watch, iters, cost));
            }
        }
    }
    rng.shuffle(&mut jobs);
    let mut text = String::new();
    for (i, (kernel, backend, watch, iters, cost)) in jobs.into_iter().enumerate() {
        let _ = write!(text, "s{i} kernel={kernel} watch={watch} backend={backend} iters={iters}");
        if let Some(cost) = cost {
            let _ = write!(text, " cost={cost}");
        }
        text.push('\n');
    }
    text
}

/// One replay's member set as indices into the observing backends, the
/// `watchpoint_set_sweep` sets and the `transition_cost_sweep` configs:
/// every chosen backend × every chosen set is one member, accounted
/// under every chosen config.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberChoice {
    /// Indices of observing backends.
    pub backends: Vec<usize>,
    /// Indices of watchpoint sets.
    pub sets: Vec<usize>,
    /// Indices of timing configurations.
    pub configs: Vec<usize>,
}

/// How many of the three observing backends, three watchpoint sets and
/// three timing configurations each replay uses, in fixed shares.
const MEMBER_SIZES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 2, 2),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
    (3, 3, 3),
    (1, 1, 3),
    (2, 3, 2),
    (3, 2, 2),
];

/// `count` member sets for kernel `kernel`, drawn from `seed`.
///
/// Which backends and watchpoint sets a replay observes sets its cost,
/// so those are fixed: the `i`-th set takes the `i`-th shares of
/// [`MEMBER_SIZES`], filled from windows of the backends and sets that
/// rotate with `i`. That makes every seed replay the same work. The
/// seed decides what the store sees of it: the order the replays run in
/// and which transition costs each one accounts under, which changes
/// the reports but not the work, since the configurations differ in
/// that cost alone.
pub fn member_choices(seed: u64, kernel: usize, count: usize) -> Vec<MemberChoice> {
    let mut rng = Rng::new(seed, 2 + kernel as u64);
    let window = |start: usize, k: usize| {
        let mut chosen: Vec<usize> = (start..start + k).map(|i| i % 3).collect();
        chosen.sort_unstable();
        chosen
    };
    let mut choices: Vec<MemberChoice> = (0..count)
        .map(|i| {
            let (b, s, c) = MEMBER_SIZES[i % MEMBER_SIZES.len()];
            let mut all = [0, 1, 2];
            rng.shuffle(&mut all);
            let mut configs = all[..c].to_vec();
            configs.sort_unstable();
            MemberChoice { backends: window(i % 3, b), sets: window(i / 3 % 3, s), configs }
        })
        .collect();
    rng.shuffle(&mut choices);
    choices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        assert_eq!(session_jobs(1, 200), session_jobs(1, 200));
        assert_ne!(session_jobs(1, 200), session_jobs(2, 200));
        assert_eq!(member_choices(5, 0, 12), member_choices(5, 0, 12));
        assert_ne!(member_choices(5, 0, 12), member_choices(6, 0, 12));
    }

    #[test]
    fn jobs_parse_and_cover_the_grammar() {
        let text = session_jobs(1, 1000);
        let jobs = dise_bench::server::parse_jobs(&text).expect("generated lines parse");
        assert_eq!(jobs.len(), 1000, "exactly the jobs asked for");
        for kernel in KERNELS {
            assert!(jobs.iter().any(|j| j.kernel == kernel), "{kernel} generated");
        }
        for (backend, _) in BACKENDS {
            assert!(text.contains(&format!("backend={backend} ")), "{backend} generated");
        }
        let iters: Vec<u32> = jobs.iter().map(|j| j.iters).collect();
        assert!(iters.iter().all(|i| (ITERS_RANGE.0..=ITERS_RANGE.1).contains(i)));
        let short = iters.iter().filter(|&&i| i < 20).count();
        let long = iters.iter().filter(|&&i| i > 80).count();
        assert!(short > 4 * long && long > 0, "heavy tail: {short} short, {long} long");
        let other = parse_jobs_of(2);
        let total = |jobs: &[dise_bench::server::JobSpec]| {
            jobs.iter().map(|j| u64::from(j.iters)).sum::<u64>()
        };
        let (a, b) = (total(&jobs), total(&other));
        assert_eq!(a, b, "every seed asks for the same work");
    }

    fn parse_jobs_of(seed: u64) -> Vec<dise_bench::server::JobSpec> {
        dise_bench::server::parse_jobs(&session_jobs(seed, 1000)).expect("generated lines parse")
    }

    #[test]
    fn every_seed_replays_the_same_members() {
        let work = |seed| {
            let mut w: Vec<_> = member_choices(seed, 3, 16)
                .into_iter()
                .map(|c| (c.backends, c.sets, c.configs.len()))
                .collect();
            w.sort();
            w
        };
        assert_eq!(work(1), work(2));
    }

    #[test]
    fn member_sets_are_nonempty_and_in_range() {
        for choice in member_choices(9, 3, 12) {
            for set in [&choice.backends, &choice.sets, &choice.configs] {
                assert!(!set.is_empty() && set.len() <= 3 && set.iter().all(|&i| i < 3));
            }
        }
    }
}
