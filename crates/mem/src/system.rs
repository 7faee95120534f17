//! The composed memory hierarchy and its latency model.

use crate::{Cache, CacheConfig, CacheStats, Tlb, PAGE_SIZE};

/// Latency and geometry parameters for the whole hierarchy.
///
/// Defaults reproduce the paper's simulated machine: 32 KB 2-way L1
/// instruction and data caches, a 1 MB 4-way unified L2, 64-entry 4-way
/// I/D TLBs and 100-cycle main memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// TLB entries (each of I and D).
    pub tlb_entries: u64,
    /// TLB associativity.
    pub tlb_assoc: usize,
    /// L1 hit latency in cycles (load-to-use).
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Penalty of a TLB miss (hardware walk) in cycles.
    pub tlb_miss_penalty: u64,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1i: CacheConfig::L1,
            l1d: CacheConfig::L1,
            l2: CacheConfig::L2,
            tlb_entries: 64,
            tlb_assoc: 4,
            l1_latency: 3,
            l2_latency: 12,
            mem_latency: 100,
            tlb_miss_penalty: 30,
        }
    }
}

/// The instruction-side and data-side cache/TLB hierarchy.
///
/// [`MemSystem::inst_fetch`] and [`MemSystem::data_access`] return the
/// access latency in cycles and update all structures.
///
/// Each side remembers the last block it resolved, where a block is
/// the smaller of an L1 line and a page. After an access that block's
/// line is MRU in its L1 set and its page is MRU in its TLB set, and
/// only the same side's next access can touch that L1 or TLB (the
/// sides share nothing but the L2, which an L1 hit never reaches). A
/// repeat access to the block is therefore an L1 and TLB hit that
/// leaves every LRU order as it is, so it only counts the two accesses.
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    /// log2 of the instruction side's block size.
    inst_shift: u32,
    /// log2 of the data side's block size.
    data_shift: u32,
    /// Block number of the last instruction fetch.
    last_inst: Option<u64>,
    /// Block number of the last data access.
    last_data: Option<u64>,
}

impl MemSystem {
    /// Build an empty hierarchy.
    pub fn new(config: MemConfig) -> MemSystem {
        MemSystem {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.tlb_entries, config.tlb_assoc),
            dtlb: Tlb::new(config.tlb_entries, config.tlb_assoc),
            inst_shift: config.l1i.line.min(PAGE_SIZE).trailing_zeros(),
            data_shift: config.l1d.line.min(PAGE_SIZE).trailing_zeros(),
            last_inst: None,
            last_data: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Fetch the instruction line containing `addr`; returns the latency
    /// in cycles (1 on an L1I + ITLB hit).
    #[inline]
    pub fn inst_fetch(&mut self, addr: u64) -> u64 {
        let block = addr >> self.inst_shift;
        if self.last_inst == Some(block) {
            self.itlb.count_mru_hit();
            self.l1i.count_mru_hit();
            return 1;
        }
        self.last_inst = Some(block);
        let mut lat = 1; // L1I hit is pipelined into fetch
        if !self.itlb.access(addr) {
            lat += self.config.tlb_miss_penalty;
        }
        if !self.l1i.access(addr) {
            lat +=
                if self.l2.access(addr) { self.config.l2_latency } else { self.config.mem_latency };
        }
        lat
    }

    /// Access data at `addr`; returns the latency in cycles
    /// (`l1_latency` on an L1D + DTLB hit). `write` selects store
    /// accesses, which allocate like loads (write-allocate).
    #[inline]
    pub fn data_access(&mut self, addr: u64, write: bool) -> u64 {
        let _ = write; // policy is identical; kept for interface clarity
        let block = addr >> self.data_shift;
        if self.last_data == Some(block) {
            self.dtlb.count_mru_hit();
            self.l1d.count_mru_hit();
            return self.config.l1_latency;
        }
        self.last_data = Some(block);
        let mut lat = self.config.l1_latency;
        if !self.dtlb.access(addr) {
            lat += self.config.tlb_miss_penalty;
        }
        if !self.l1d.access(addr) {
            lat +=
                if self.l2.access(addr) { self.config.l2_latency } else { self.config.mem_latency };
        }
        lat
    }

    /// Statistics: `(l1i, l1d, l2, itlb, dtlb)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats(), self.itlb.stats(), self.dtlb.stats())
    }

    /// Empty every cache and TLB (between experiments).
    pub fn flush_all(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.itlb.flush();
        self.dtlb.flush();
        self.last_inst = None;
        self.last_data = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_latency_ladder() {
        let mut s = MemSystem::new(MemConfig::default());
        let cold = s.inst_fetch(0x1_0000);
        let warm = s.inst_fetch(0x1_0000);
        assert_eq!(warm, 1);
        // cold: 1 + tlb miss + memory
        assert_eq!(cold, 1 + 30 + 100);
    }

    #[test]
    fn l2_hit_cheaper_than_memory() {
        let cfg = MemConfig::default();
        let mut s = MemSystem::new(cfg);
        s.data_access(0x40_0000, false); // fills L2 + L1D + DTLB
                                         // Evict from tiny L1D set by touching conflicting lines, keeping L2.
        let sets = cfg.l1d.sets();
        let stride = sets * cfg.l1d.line;
        for i in 1..=2 {
            s.data_access(0x40_0000 + i * stride, false);
        }
        let lat = s.data_access(0x40_0000, false);
        assert_eq!(lat, cfg.l1_latency + cfg.l2_latency, "L1 miss, L2 hit");
    }

    #[test]
    fn data_hit_latency() {
        let cfg = MemConfig::default();
        let mut s = MemSystem::new(cfg);
        s.data_access(0x9000, true);
        assert_eq!(s.data_access(0x9000, false), cfg.l1_latency);
    }

    #[test]
    fn flush_all_restores_cold_state() {
        let mut s = MemSystem::new(MemConfig::default());
        s.inst_fetch(0x1000);
        s.data_access(0x2000, false);
        s.flush_all();
        assert_eq!(s.inst_fetch(0x1000), 1 + 30 + 100);
    }

    /// A repeat access to the last block skips the lookups but must
    /// leave exactly the state and counters a full lookup would.
    #[test]
    fn repeat_block_matches_full_lookup() {
        let cfg = MemConfig::default();
        let mut s = MemSystem::new(cfg);
        let lats: Vec<u64> = [0x4000, 0x4008, 0x4038, 0x8000, 0x4010, 0x4010]
            .iter()
            .map(|&a| s.data_access(a, a == 0x4008))
            .collect();
        assert_eq!(lats, [3 + 30 + 100, 3, 3, 3 + 30 + 100, 3, 3]);
        let (_, l1d, l2, _, dtlb) = s.stats();
        assert_eq!((l1d.accesses, l1d.misses), (6, 2));
        assert_eq!((dtlb.accesses, dtlb.misses), (6, 2));
        assert_eq!((l2.accesses, l2.misses), (2, 2));
        // Fetches keep their own block: data traffic in between leaves
        // the fetched line resident and MRU.
        assert_eq!(s.inst_fetch(0x4000), 1 + 30 + 12, "L2 holds the data line");
        s.data_access(0x9000, false);
        assert_eq!(s.inst_fetch(0x4004), 1);
        let (l1i, ..) = s.stats();
        assert_eq!((l1i.accesses, l1i.misses), (2, 1));
        s.flush_all();
        assert_eq!(s.inst_fetch(0x4004), 1 + 30 + 100, "flush forgets the block");
        assert_eq!(s.data_access(0x9000, false), 3 + 30 + 100);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = MemSystem::new(MemConfig::default());
        s.inst_fetch(0x0);
        s.inst_fetch(0x0);
        let (l1i, ..) = s.stats();
        assert_eq!(l1i.accesses, 2);
        assert_eq!(l1i.misses, 1);
    }
}
