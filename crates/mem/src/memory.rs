//! Sparse paged memory with copy-on-write forking.
//!
//! Pages are reference-counted (`Arc`) so cloning a [`Memory`] — or
//! taking a [`Checkpoint`] — is O(page-table), not O(resident bytes):
//! both sides share every page until one of them writes, at which point
//! [`Arc::make_mut`] unshares just the written page.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiply-fold hasher for `u64` address-like keys (page numbers
/// here, store-dependence quads in `dise-cpu`). Every simulated memory
/// access resolves at least one page, and the default SipHash dominates
/// the functional simulator's profile; simulator addresses need spread,
/// not DoS resistance.
#[derive(Clone, Copy, Default, Debug)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type Page = [u8; PAGE_SIZE as usize];
type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<AddrHasher>>;

/// Page size in bytes (4 KB, "on the small end for real systems" per the
/// paper's virtual-memory discussion).
pub const PAGE_SIZE: u64 = 4096;

/// Copy-on-write bookkeeping for one [`Memory`].
///
/// `pages_shared` is the number of resident pages at the most recent
/// sharing event (fork, or restore from a checkpoint); `pages_copied`
/// counts every page this memory had to unshare before writing, over
/// its whole lifetime; `forks` counts how many children were forked
/// *from* this memory. For a fresh fork child whose parent has not been
/// written since the fork, `pages_copied + shared_pages() ==
/// pages_shared` holds at every point of the child's run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CowStats {
    /// Resident pages at the most recent fork/restore (all shared then).
    pub pages_shared: u64,
    /// Lifetime count of pages unshared (physically copied) by writes.
    pub pages_copied: u64,
    /// Number of children forked from this memory.
    pub forks: u64,
}

/// An O(page-table) snapshot of a [`Memory`].
///
/// Holds reference-counted pages; restoring never copies page bytes —
/// pages become shared again and unshare lazily on the next write to
/// either side.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pages: PageMap,
}

impl Checkpoint {
    /// Number of pages captured by this checkpoint.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled. Accesses never
/// fault, and addresses wrap at `u64::MAX`.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: PageMap,
    cow: CowStats,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// Read one byte (zero if the page was never written).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&Self::page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Resolve page number `pn` for writing: allocate a zero page on
    /// first touch, unshare (physically copy) a page still shared with
    /// a fork or checkpoint.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        let page = self.pages.entry(pn).or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
        if Arc::strong_count(page) > 1 {
            self.cow.pages_copied += 1;
        }
        Arc::make_mut(page)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self.page_mut(Self::page_of(addr));
        page[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Read `width` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_u(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            return match self.pages.get(&Self::page_of(addr)) {
                Some(p) => {
                    let mut v = 0u64;
                    for i in 0..width as usize {
                        v |= (p[off + i] as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..width {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `width` bytes of `val` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_u(&mut self, addr: u64, width: u64, val: u64) {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access lies within one page, resolved once.
        if off + width as usize <= PAGE_SIZE as usize {
            let page = self.page_mut(Self::page_of(addr));
            for i in 0..width as usize {
                page[off + i] = (val >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..width {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Copy a byte slice into memory (loader use).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Per-page chunks: one lookup (and at most one unshare) per
        // page instead of one per byte.
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            let page = self.page_mut(Self::page_of(a));
            page[off..off + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
        }
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        // Per-page chunks: one lookup per page instead of one per byte.
        // Counting bytes rather than comparing against an end address
        // lets a read end exactly at the top of the address space (and
        // wrap past it, as `read_u` does).
        while out.len() < len {
            let off = (a % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(len - out.len());
            match self.pages.get(&Self::page_of(a)) {
                Some(p) => out.extend_from_slice(&p[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            a = a.wrapping_add(take as u64);
        }
        out
    }

    /// Number of distinct pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes backed by resident pages (`resident_pages * PAGE_SIZE`).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Pages currently shared with at least one fork or checkpoint.
    ///
    /// O(page-table); intended for tests and ablation reporting, not
    /// hot paths.
    pub fn shared_pages(&self) -> usize {
        self.pages.values().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// Copy-on-write counters for this memory (see [`CowStats`]).
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Fork a copy-on-write child in O(page-table) time.
    ///
    /// The child shares every resident page with `self`; either side
    /// copies a page only when it first writes it. The child starts
    /// with fresh [`CowStats`] (`pages_shared` = resident pages now);
    /// the parent's `forks` counter is bumped and its `pages_shared`
    /// re-anchored to the same value.
    pub fn fork(&mut self) -> Memory {
        let n = self.pages.len() as u64;
        self.cow.forks += 1;
        self.cow.pages_shared = n;
        Memory {
            pages: self.pages.clone(),
            cow: CowStats { pages_shared: n, pages_copied: 0, forks: 0 },
        }
    }

    /// Snapshot the current contents in O(page-table) time without
    /// copying page bytes.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint { pages: self.pages.clone() }
    }

    /// Restore contents from a checkpoint.
    ///
    /// O(page-table): pages become shared with the checkpoint again
    /// and unshare lazily on the next write. `pages_shared` is
    /// re-anchored to the restored page count; `pages_copied` and
    /// `forks` remain lifetime counters.
    pub fn restore(&mut self, ck: &Checkpoint) {
        self.pages = ck.pages.clone();
        self.cow.pages_shared = self.pages.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_on_first_read() {
        let m = Memory::new();
        assert_eq!(m.read_u(0x4000, 8), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
    }

    #[test]
    fn widths_round_trip() {
        let mut m = Memory::new();
        for (w, v) in [(1u64, 0xab), (2, 0xabcd), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)] {
            m.write_u(0x100, w, v);
            assert_eq!(m.read_u(0x100, w), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u(0x10, 4, 0x0403_0201);
        assert_eq!(m.read_u8(0x10), 1);
        assert_eq!(m.read_u8(0x13), 4);
        assert_eq!(m.read_u(0x10, 2), 0x0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write_u(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bytes_helpers() {
        let mut m = Memory::new();
        m.write_bytes(0x500, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x500, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x4fe, 3), vec![0, 0, 1]);
    }

    #[test]
    fn fork_shares_pages_and_unshares_on_write() {
        let mut parent = Memory::new();
        parent.write_u(0x1000, 8, 0x1111);
        parent.write_u(0x5000, 8, 0x5555);
        let mut child = parent.fork();

        assert_eq!(parent.cow_stats().forks, 1);
        assert_eq!(child.cow_stats(), CowStats { pages_shared: 2, pages_copied: 0, forks: 0 });
        assert_eq!(child.shared_pages(), 2);
        assert_eq!(child.resident_bytes(), 2 * PAGE_SIZE);

        // Child write unshares exactly one page; the parent's copy is
        // untouched.
        child.write_u(0x1000, 8, 0x2222);
        assert_eq!(child.cow_stats().pages_copied, 1);
        assert_eq!(child.shared_pages(), 1);
        assert_eq!(parent.read_u(0x1000, 8), 0x1111);
        assert_eq!(child.read_u(0x1000, 8), 0x2222);

        // Coherence across the fork's lifetime (parent unwritten):
        // copied + still-shared == shared-at-fork.
        let cs = child.cow_stats();
        assert_eq!(cs.pages_copied + child.shared_pages() as u64, cs.pages_shared);

        // A second write to the now-private page copies nothing more;
        // a write to a fresh page allocates without copying.
        child.write_u(0x1008, 8, 7);
        child.write_u(0x9000, 8, 9);
        assert_eq!(child.cow_stats().pages_copied, 1);
        assert_eq!(parent.read_u(0x9000, 8), 0);
    }

    #[test]
    fn parent_writes_do_not_leak_into_child() {
        let mut parent = Memory::new();
        parent.write_u(0x2000, 8, 1);
        let child = parent.fork();
        parent.write_u(0x2000, 8, 2);
        assert_eq!(parent.cow_stats().pages_copied, 1);
        assert_eq!(child.read_u(0x2000, 8), 1);
    }

    #[test]
    fn checkpoint_restore_round_trips_contents() {
        let mut m = Memory::new();
        m.write_u(0x1000, 8, 0xaa);
        let ck = m.checkpoint();
        assert_eq!(ck.resident_pages(), 1);

        m.write_u(0x1000, 8, 0xbb);
        m.write_u(0x4000, 8, 0xcc);
        m.restore(&ck);

        assert_eq!(m.read_u(0x1000, 8), 0xaa);
        assert_eq!(m.read_u(0x4000, 8), 0, "post-checkpoint page dropped");
        assert_eq!(m.cow_stats().pages_shared, 1);

        // Restored pages are shared with the checkpoint; writing after
        // restore unshares without disturbing the checkpoint.
        m.write_u(0x1000, 8, 0xdd);
        let mut again = Memory::new();
        again.restore(&ck);
        assert_eq!(again.read_u(0x1000, 8), 0xaa);
    }
}
