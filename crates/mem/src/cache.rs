//! Parameterised set-associative cache model with LRU replacement.

/// Geometry of one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: u64,
}

impl CacheConfig {
    /// 32 KB, 2-way, 64-byte lines — the paper's L1 configuration.
    pub const L1: CacheConfig = CacheConfig { size: 32 * 1024, assoc: 2, line: 64 };
    /// 1 MB, 4-way, 64-byte lines — the paper's L2 configuration.
    pub const L2: CacheConfig = CacheConfig { size: 1024 * 1024, assoc: 4, line: 64 };

    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> u64 {
        self.size / (self.line * self.assoc as u64)
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (fills).
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Marks a way holding a line: a way stores its tag with this bit set,
/// and an empty way is 0. A tag is an address shifted right by the line
/// and set bits, so its top bit is always clear: [`Cache::new`] rejects
/// the one geometry (single set, 1-byte lines) where that shift is
/// zero. Empty ways being zero lets the tag array come from zeroed
/// memory, so a large cache costs nothing until its sets are touched.
const VALID: u64 = 1 << 63;

/// A set-associative cache with true-LRU replacement.
///
/// Only tags are modeled (data lives in [`crate::Memory`]); the cache
/// answers hit/miss and maintains its own state, which is all the timing
/// model needs. The tags live in one flat `sets × assoc` array, each
/// set's ways in MRU order with empty ways (0) filling the unused tail,
/// so an access is a shift, a mask and a scan of `assoc` adjacent
/// words.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `ways[s * assoc..][..assoc]` holds set `s`'s tags, each with
    /// [`VALID`] set, front = MRU.
    ways: Box<[u64]>,
    assoc: usize,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_bits: u32,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, the geometry does
    /// not divide evenly into a power-of-two number of sets, or the
    /// cache is a single set of 1-byte lines (which leaves no address
    /// bit to tell an empty way from a full one).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line.is_power_of_two(), "line size must be a power of two");
        assert!(config.assoc >= 1, "associativity must be at least 1");
        let sets = config.sets();
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two (size/line/assoc mismatch)"
        );
        assert!(sets > 1 || config.line > 1, "a single-set cache needs lines of at least 2 bytes");
        Cache {
            config,
            ways: vec![0; sets as usize * config.assoc].into_boxed_slice(),
            assoc: config.assoc,
            line_shift: config.line.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Index of the first way of `addr`'s set, and `addr`'s tag as a
    /// way stores it (with [`VALID`] set).
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        (set * self.assoc, (line >> self.set_bits) | VALID)
    }

    /// Access the line containing `addr`; returns `true` on hit.
    /// Misses allocate (write-allocate policy for stores too).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (base, tag) = self.locate(addr);
        let ways = &mut self.ways[base..base + self.assoc];
        // A hit moves its way to the front; a miss evicts the last way
        // (the LRU line, or an empty way) and fills the front.
        let (pos, hit) = match ways.iter().position(|&t| t == tag) {
            Some(pos) => (pos, true),
            None => {
                self.stats.misses += 1;
                (ways.len() - 1, false)
            }
        };
        for i in (1..=pos).rev() {
            ways[i] = ways[i - 1];
        }
        ways[0] = tag;
        hit
    }

    /// Count an access the caller knows hits the MRU way of its set,
    /// which leaves the LRU order unchanged.
    #[inline]
    pub(crate) fn count_mru_hit(&mut self) {
        self.stats.accesses += 1;
    }

    /// Probe without updating LRU state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.ways[base..base + self.assoc].contains(&tag)
    }

    /// Drop every line (e.g. between experiment runs).
    pub fn flush(&mut self) {
        self.ways.fill(0);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte lines = 128 bytes
        Cache::new(CacheConfig { size: 128, assoc: 2, line: 16 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10f), "same line");
        assert!(!c.access(0x110), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 64).
        c.access(0x000);
        c.access(0x040);
        c.access(0x000); // refresh 0x000; LRU is now 0x040
        c.access(0x080); // evicts 0x040
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0x00);
        c.access(0x10);
        c.access(0x20);
        c.access(0x30);
        assert!(c.contains(0x00) && c.contains(0x10) && c.contains(0x20) && c.contains(0x30));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0x0);
        c.flush();
        assert!(!c.contains(0x0));
        assert!(!c.access(0x0), "miss after flush");
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::L1.sets(), 256);
        assert_eq!(CacheConfig::L2.sets(), 4096);
        let _ = Cache::new(CacheConfig::L1);
        let _ = Cache::new(CacheConfig::L2);
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_set_byte_lines_are_rejected() {
        let one_set =
            std::panic::catch_unwind(|| Cache::new(CacheConfig { size: 4, assoc: 4, line: 1 }));
        assert!(one_set.is_err(), "no address bit left to mark an empty way");
        // Two sets of byte lines leave the set bit out of the tag.
        let mut c = Cache::new(CacheConfig { size: 8, assoc: 4, line: 1 });
        assert!(!c.access(u64::MAX), "an empty way never matches the top address");
        assert!(c.access(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig { size: 120, assoc: 2, line: 15 });
    }
}
