//! Virtual-memory watchpoints (§2, [Appel & Li]): the debugger removes
//! write permission from every page holding watched data and classifies
//! the resulting faults.
//!
//! The simulated machine has no page protection. The detector computes
//! the same page-granularity trap from each store's footprint: a store
//! traps exactly when it touches a watched page, so the application
//! runs unmodified and one detector serves private sessions and shared
//! observer passes alike.

use dise_cpu::Exec;
use dise_mem::{Memory, PAGE_SIZE};

use crate::backend::{classify, ObserverImpl};
use crate::session::DebugError;
use crate::{Transition, WatchFilter, WatchState, Watchpoint};

/// The pages covering every statically addressable watched byte.
///
/// Pages run from the first watched byte's to the last one's with
/// wrapping arithmetic, as the machine's addresses wrap: a quad watched
/// at `u64::MAX - 3` covers the top page and page 0.
pub(crate) fn watched_pages(wps: &[Watchpoint]) -> Result<Vec<u64>, DebugError> {
    let mut pages = Vec::new();
    for w in wps {
        let (base, len) = match w.expr {
            crate::WatchExpr::Scalar { addr, width } => (addr, width.bytes()),
            crate::WatchExpr::Range { base, len } => (base, len),
            crate::WatchExpr::Indirect { .. } => {
                // "The debugger cannot statically determine what pages to
                // write-protect for a watchpoint expression containing
                // pointer dereferences" — real debuggers fall back to
                // single-stepping; we report the gap like the paper's
                // missing bars.
                return Err(DebugError::Unsupported {
                    backend: "virtual-memory",
                    reason: "indirect watchpoints are not statically addressable".to_string(),
                });
            }
        };
        let last = base.wrapping_add(len.max(1) - 1) & !(PAGE_SIZE - 1);
        let mut p = base & !(PAGE_SIZE - 1);
        loop {
            if !pages.contains(&p) {
                pages.push(p);
            }
            if p == last {
                break;
            }
            p = p.wrapping_add(PAGE_SIZE);
        }
    }
    Ok(pages)
}

/// Would a `width`-byte store at `addr` fault if `pages` (page base
/// addresses) were write-protected? An access of at most 8 bytes
/// touches at most two pages, and the fault fires when either is
/// protected. Shared by the virtual-memory detector and the
/// hardware-register detector's page fallback.
pub(crate) fn store_would_fault(pages: &[u64], addr: u64, width: u64) -> bool {
    let first = addr & !(PAGE_SIZE - 1);
    let last = addr.wrapping_add(width.max(1) - 1) & !(PAGE_SIZE - 1);
    pages.contains(&first) || (last != first && pages.contains(&last))
}

/// The virtual-memory detector: a store that would fault on a watched
/// page traps to the debugger, which classifies it.
pub(crate) struct VmObserver {
    /// Page base addresses covering every watched byte.
    pages: Vec<u64>,
}

impl VmObserver {
    pub fn new(wps: &[Watchpoint]) -> Result<VmObserver, DebugError> {
        Ok(VmObserver { pages: watched_pages(wps)? })
    }
}

impl ObserverImpl for VmObserver {
    fn observe(&mut self, e: &Exec, mem: &Memory, watch: &mut WatchState) -> Option<Transition> {
        let m = e.mem?;
        if !m.is_store || !store_would_fault(&self.pages, m.addr, m.width) {
            return None;
        }
        let wrote = watch.store_overlaps(mem, m.addr, m.width);
        let (changed, pred_ok) = watch.reevaluate(mem);
        Some(classify(changed, pred_ok, wrote))
    }

    /// Page protection traps on whole pages, so the filter is exactly
    /// the protected pages — static by construction (indirect
    /// watchpoints were rejected at [`VmObserver::new`]).
    fn filter(&self, _watch: &WatchState, _mem: &Memory) -> WatchFilter {
        WatchFilter::new(self.pages.iter().map(|&p| (p, PAGE_SIZE)).collect(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WatchExpr;
    use dise_isa::Width;

    /// `store_would_fault` against a brute-force check of every byte
    /// the store writes, at every width, around page boundaries and the
    /// wrap at `u64::MAX`.
    #[test]
    fn store_would_fault_matches_a_per_byte_check() {
        let brute = |pages: &[u64], addr: u64, width: u64| {
            (0..width).any(|i| pages.contains(&(addr.wrapping_add(i) & !(PAGE_SIZE - 1))))
        };
        let top = u64::MAX - (PAGE_SIZE - 1);
        let protected: [&[u64]; 4] = [&[PAGE_SIZE], &[2 * PAGE_SIZE], &[top], &[0]];
        // Stores straddling into the page from below and out of it from
        // above, its last byte, and stores wrapping from the top page to
        // page 0.
        let starts = (PAGE_SIZE - 8..PAGE_SIZE + 8)
            .chain(2 * PAGE_SIZE - 8..2 * PAGE_SIZE + 8)
            .chain(u64::MAX - 8..=u64::MAX)
            .chain(0..8);
        for addr in starts {
            for width in [1, 2, 4, 8] {
                for pages in protected {
                    assert_eq!(
                        store_would_fault(pages, addr, width),
                        brute(pages, addr, width),
                        "{width}-byte store at {addr:#x}, protected {pages:x?}"
                    );
                }
            }
        }
        assert!(store_would_fault(&[PAGE_SIZE], PAGE_SIZE - 4, 8), "straddles in from below");
        assert!(store_would_fault(&[PAGE_SIZE], 2 * PAGE_SIZE - 4, 8), "straddles out above");
        assert!(store_would_fault(&[PAGE_SIZE], 2 * PAGE_SIZE - 1, 1), "last byte");
        assert!(!store_would_fault(&[PAGE_SIZE], 2 * PAGE_SIZE, 1), "next page");
        assert!(store_would_fault(&[0], u64::MAX - 3, 8), "wraps into page 0");
    }

    #[test]
    fn watched_pages_wrap_at_the_top_of_memory() {
        let top = u64::MAX - (PAGE_SIZE - 1);
        let scalar = |addr, width| Watchpoint::new(WatchExpr::Scalar { addr, width });
        assert_eq!(watched_pages(&[scalar(u64::MAX - 7, Width::Q)]).unwrap(), vec![top]);
        assert_eq!(watched_pages(&[scalar(u64::MAX - 3, Width::Q)]).unwrap(), vec![top, 0]);
        let range = Watchpoint::new(WatchExpr::Range { base: PAGE_SIZE - 1, len: PAGE_SIZE + 2 });
        assert_eq!(watched_pages(&[range]).unwrap(), vec![0, PAGE_SIZE, 2 * PAGE_SIZE]);
    }
}
