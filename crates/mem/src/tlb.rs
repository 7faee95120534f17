//! Translation lookaside buffer model.
//!
//! Translation itself is identity (the simulator runs a single flat
//! address space, and the paper's experiments never page), so the TLB is
//! purely a timing structure: it answers hit/miss over virtual page
//! numbers with set-associative LRU state, like the paper's 64-entry
//! 4-way I/D TLBs.

use crate::{Cache, CacheConfig, CacheStats, PAGE_SIZE};

/// A TLB: a set-associative tag store over virtual page numbers.
#[derive(Clone, Debug)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// A TLB with `entries` total entries and the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of `assoc`.
    pub fn new(entries: u64, assoc: usize) -> Tlb {
        // Reuse the cache structure with one line per page.
        Tlb { inner: Cache::new(CacheConfig { size: entries * PAGE_SIZE, assoc, line: PAGE_SIZE }) }
    }

    /// The paper's configuration: 64 entries, 4-way.
    pub fn paper_default() -> Tlb {
        Tlb::new(64, 4)
    }

    /// Look up the page containing byte address `addr`; returns `true` on
    /// hit and fills on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Count a lookup the caller knows hits the MRU entry of its set.
    #[inline]
    pub(crate) fn count_mru_hit(&mut self) {
        self.inner.count_mru_hit();
    }

    /// Probe without side effects.
    pub fn contains(&self, addr: u64) -> bool {
        self.inner.contains(addr)
    }

    /// Invalidate all entries.
    pub fn flush(&mut self) {
        self.inner.flush();
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::paper_default();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000), "next page");
    }

    #[test]
    fn capacity_eviction() {
        let mut t = Tlb::new(4, 4); // fully associative, 4 entries
        for p in 0..4u64 {
            t.access(p * PAGE_SIZE);
        }
        assert!(t.contains(0));
        t.access(4 * PAGE_SIZE); // evicts page 0 (LRU)
        assert!(!t.contains(0));
        assert!(t.contains(4 * PAGE_SIZE));
    }

    #[test]
    fn flush_invalidates() {
        let mut t = Tlb::paper_default();
        t.access(0x5000);
        t.flush();
        assert!(!t.contains(0x5000));
    }
}
