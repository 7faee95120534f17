//! Sparse paged memory with copy-on-write forking.
//!
//! Pages are reference-counted (`Arc`) so cloning a [`Memory`] — or
//! taking a [`Checkpoint`] — is O(page-table), not O(resident bytes):
//! both sides share every page until one of them writes, at which point
//! [`Arc::make_mut`] unshares just the written page.

use std::cell::Cell;
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
type PageIndex = HashMap<u64, u32, BuildHasherDefault<AddrHasher>>;

/// Page size in bytes (4 KB, "on the small end for real systems" per the
/// paper's virtual-memory discussion).
pub const PAGE_SIZE: u64 = 4096;

/// The page-number half of an empty last-page memo. Page numbers are
/// addresses divided by [`PAGE_SIZE`], so none reaches `u64::MAX`.
const NO_PAGE: u64 = u64::MAX;

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

/// The resident pages of a [`Memory`] or [`Checkpoint`]: page bytes in
/// a slot vector (first-touch order) and a page-number → slot index.
/// Pages are only ever added, so a slot keeps naming the same page
/// until the whole table is replaced by [`Memory::restore`].
#[derive(Clone, Debug, Default)]
struct PageTable {
    pages: Vec<Arc<Page>>,
    slots: PageIndex,
}

/// An O(page-table) snapshot of a [`Memory`].
///
/// Holds reference-counted pages; restoring never copies page bytes —
/// pages become shared again and unshare lazily on the next write to
/// either side.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    table: PageTable,
}

impl Checkpoint {
    /// Number of pages captured by this checkpoint.
    pub fn resident_pages(&self) -> usize {
        self.table.pages.len()
    }
}

/// Sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled. Accesses never
/// fault, and addresses wrap at `u64::MAX`.
///
/// A one-entry memo remembers the last page resolved, so runs of
/// accesses to one page — the common case — skip the index probe. The
/// memo maps a page number to its slot, and slots are stable until
/// [`Memory::restore`] swaps the table (which empties the memo); a
/// fork or checkpoint shares the same slots, so both keep it.
#[derive(Clone, Debug)]
pub struct Memory {
    table: PageTable,
    /// `(page number, slot)` of the last resident page resolved, or
    /// `(NO_PAGE, 0)`. A `Cell` so that reads through `&self` refresh
    /// it too; it is why `Memory` is `Send` but not `Sync`.
    memo: Cell<(u64, u32)>,
    cow: CowStats,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            table: PageTable::default(),
            memo: Cell::new((NO_PAGE, 0)),
            cow: CowStats::default(),
        }
    }
}

/// Little-endian load of `width` (1, 2, 4 or 8) bytes at `off`.
#[inline]
fn get_le(p: &Page, off: usize, width: u64) -> u64 {
    match width {
        1 => u64::from(p[off]),
        2 => u64::from(u16::from_le_bytes([p[off], p[off + 1]])),
        4 => u64::from(u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes"))),
        _ => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
    }
}

/// Little-endian store of the low `width` (1, 2, 4 or 8) bytes of `val`.
#[inline]
fn put_le(p: &mut Page, off: usize, width: u64, val: u64) {
    let w = width as usize;
    p[off..off + w].copy_from_slice(&val.to_le_bytes()[..w]);
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

    /// True when a `width`-byte access at `addr` stays inside one page.
    #[inline]
    fn within_page(addr: u64, width: u64) -> bool {
        addr % PAGE_SIZE + width <= PAGE_SIZE
    }

    /// The slot of resident page `pn`, through the last-page memo.
    #[inline]
    fn slot(&self, pn: u64) -> Option<usize> {
        let (memo_pn, slot) = self.memo.get();
        if memo_pn == pn {
            return Some(slot as usize);
        }
        let slot = *self.table.slots.get(&pn)?;
        self.memo.set((pn, slot));
        Some(slot as usize)
    }

    /// Resident page `pn`, if it was ever written.
    #[inline]
    fn page(&self, pn: u64) -> Option<&Page> {
        self.slot(pn).map(|s| &*self.table.pages[s])
    }

    /// Resolve page number `pn` for writing: allocate a zero page on
    /// first touch, unshare (physically copy) a page still shared with
    /// a fork or checkpoint.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Page {
        let slot = match self.slot(pn) {
            Some(s) => s,
            None => self.insert_page(pn),
        };
        let page = &mut self.table.pages[slot];
        if Arc::strong_count(page) > 1 {
            self.cow.pages_copied += 1;
        }
        Arc::make_mut(page)
    }

    /// Make `pn` resident as a zero page; returns its slot.
    #[cold]
    fn insert_page(&mut self, pn: u64) -> usize {
        let slot = self.table.pages.len();
        let id = u32::try_from(slot).expect("fewer than 2^32 resident pages");
        self.table.pages.push(Arc::new([0; PAGE_SIZE as usize]));
        self.table.slots.insert(pn, id);
        self.memo.set((pn, id));
        slot
    }

    /// Read one byte (zero if the page was never written).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(Self::page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
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
    #[inline]
    pub fn read_u(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        // Fast path: the access lies within one page, resolved once.
        if Self::within_page(addr, width) {
            return match self.page(Self::page_of(addr)) {
                Some(p) => get_le(p, (addr % PAGE_SIZE) as usize, width),
                None => 0,
            };
        }
        self.read_straddling(addr, width)
    }

    /// [`Memory::read_u`] of an access that crosses a page boundary
    /// (or wraps past `u64::MAX`): byte by byte.
    #[cold]
    fn read_straddling(&self, addr: u64, width: u64) -> u64 {
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
    #[inline]
    pub fn write_u(&mut self, addr: u64, width: u64, val: u64) {
        self.swap_u(addr, width, val);
    }

    /// Write the low `width` bytes of `val` little-endian and return
    /// the `width` bytes that were there before, zero-extended — a
    /// store and its old value (for silent-store detection) resolved
    /// through one page lookup.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline]
    pub fn swap_u(&mut self, addr: u64, width: u64, val: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        if Self::within_page(addr, width) {
            let off = (addr % PAGE_SIZE) as usize;
            let page = self.page_mut(Self::page_of(addr));
            let old = get_le(page, off, width);
            put_le(page, off, width, val);
            return old;
        }
        self.swap_straddling(addr, width, val)
    }

    /// [`Memory::swap_u`] of an access that crosses a page boundary
    /// (or wraps past `u64::MAX`): byte by byte.
    #[cold]
    fn swap_straddling(&mut self, addr: u64, width: u64, val: u64) -> u64 {
        let old = self.read_straddling(addr, width);
        for i in 0..width {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
        old
    }

    /// Copy a byte slice into memory (loader use). Like every access, a
    /// slice running past `u64::MAX` wraps to address 0.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Per-page chunks: one lookup (and at most one unshare) per
        // page instead of one per byte.
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u64);
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
            match self.page(Self::page_of(a)) {
                Some(p) => out.extend_from_slice(&p[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            a = a.wrapping_add(take as u64);
        }
        out
    }

    /// Number of distinct pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.table.pages.len()
    }

    /// Bytes backed by resident pages (`resident_pages * PAGE_SIZE`).
    pub fn resident_bytes(&self) -> u64 {
        self.table.pages.len() as u64 * PAGE_SIZE
    }

    /// Pages currently shared with at least one fork or checkpoint.
    ///
    /// O(page-table); intended for tests and ablation reporting, not
    /// hot paths.
    pub fn shared_pages(&self) -> usize {
        self.table.pages.iter().filter(|p| Arc::strong_count(p) > 1).count()
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
        let n = self.table.pages.len() as u64;
        self.cow.forks += 1;
        self.cow.pages_shared = n;
        Memory {
            table: self.table.clone(),
            // Same slots on both sides, so the memo carries over.
            memo: self.memo.clone(),
            cow: CowStats { pages_shared: n, pages_copied: 0, forks: 0 },
        }
    }

    /// Snapshot the current contents in O(page-table) time without
    /// copying page bytes.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint { table: self.table.clone() }
    }

    /// Restore contents from a checkpoint.
    ///
    /// O(page-table): pages become shared with the checkpoint again
    /// and unshare lazily on the next write. `pages_shared` is
    /// re-anchored to the restored page count; `pages_copied` and
    /// `forks` remain lifetime counters.
    pub fn restore(&mut self, ck: &Checkpoint) {
        self.table = ck.table.clone();
        // The restored slots may name other pages: forget the memo.
        self.memo.set((NO_PAGE, 0));
        self.cow.pages_shared = self.table.pages.len() as u64;
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

    /// A write across the top of the address space wraps to page 0,
    /// like every other access, instead of overflowing.
    #[test]
    fn write_bytes_wraps_past_the_top() {
        let mut m = Memory::new();
        m.write_bytes(u64::MAX - 1, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(u64::MAX - 1, 2), vec![1, 2], "top page");
        assert_eq!(m.read_bytes(0, 2), vec![3, 4], "page 0");
        assert_eq!(m.read_u(u64::MAX - 1, 4), 0x0403_0201);
        assert_eq!(m.resident_pages(), 2);
    }

    /// `swap_u` returns what `read_u` would have, then writes like
    /// `write_u` — within a page, across pages and across the top.
    #[test]
    fn swap_returns_the_old_value() {
        let mut m = Memory::new();
        for addr in [0x100, PAGE_SIZE - 3, u64::MAX - 2] {
            m.write_u(addr, 8, 0x1122_3344_5566_7788);
            assert_eq!(m.swap_u(addr, 4, 0xdead_beef_0bad_f00d), 0x5566_7788, "{addr:#x}");
            assert_eq!(m.read_u(addr, 8), 0x1122_3344_0bad_f00d, "{addr:#x}");
        }
    }

    /// The last-page memo never outlives the table it indexes: after a
    /// restore to a checkpoint with fewer pages, reads of a page that
    /// only existed later see zero, and new pages land correctly.
    #[test]
    fn memo_is_forgotten_on_restore() {
        let mut m = Memory::new();
        m.write_u(0x1000, 8, 1);
        let ck = m.checkpoint();
        m.write_u(0x9000, 8, 9);
        assert_eq!(m.read_u(0x9000, 8), 9, "memo now names 0x9000's page");
        m.restore(&ck);
        assert_eq!(m.read_u(0x9000, 8), 0, "page dropped by the restore");
        m.write_u(0x5000, 8, 5);
        assert_eq!((m.read_u(0x1000, 8), m.read_u(0x5000, 8)), (1, 5));
        let mut child = m.fork();
        child.write_u(0x5000, 8, 6);
        assert_eq!((m.read_u(0x5000, 8), child.read_u(0x5000, 8)), (5, 6));
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
