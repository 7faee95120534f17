//! Hardware watchpoint registers (§2): a small number of
//! quad-granularity address comparators; "the virtual memory system is
//! harnessed" for watchpoints beyond the register count. The fallback's
//! page-granularity traps are computed from each store's footprint, as
//! the virtual-memory detector computes them.

use dise_cpu::{Exec, MemOp};
use dise_mem::Memory;

use crate::backend::{
    classify,
    virtual_mem::{store_would_fault, watched_pages},
    ObserverImpl,
};
use crate::session::DebugError;
use crate::{Transition, WatchExpr, WatchFilter, WatchState, Watchpoint};

/// How a register budget covers a watchpoint set: the quad-aligned
/// addresses loaded into the comparators, and the pages trapped for
/// the watchpoints that overflowed the registers (the Fig. 6 hybrid).
fn plan(registers: usize, wps: &[Watchpoint]) -> Result<(Vec<u64>, Vec<u64>), DebugError> {
    // Hardware registers watch scalars; indirect and non-scalar
    // expressions have no experiment in the paper ("real debuggers
    // resort to using virtual memory or single-stepping").
    let mut quads = Vec::new();
    let mut overflow = Vec::new();
    for w in wps {
        match w.expr {
            WatchExpr::Scalar { addr, width } => {
                let (lo, hi) = quad_span(addr, width.bytes());
                let span: &[u64] = if lo == hi { &[lo] } else { &[lo, hi] };
                if quads.len() + span.len() <= registers {
                    quads.extend(span);
                } else {
                    overflow.push(*w);
                }
            }
            WatchExpr::Indirect { .. } => {
                return Err(DebugError::Unsupported {
                    backend: "hardware-registers",
                    reason: "indirect watchpoints are not statically addressable".to_string(),
                })
            }
            WatchExpr::Range { .. } => {
                return Err(DebugError::Unsupported {
                    backend: "hardware-registers",
                    reason: "non-scalar watchpoints exceed register granularity".to_string(),
                })
            }
        }
    }
    Ok((quads, watched_pages(&overflow)?))
}

/// The first and last quad-aligned addresses an access of at most 8
/// bytes covers (equal unless it straddles). Addresses wrap as the
/// executor's do: an access at `u64::MAX - 3` covers the top quad and
/// quad 0.
fn quad_span(addr: u64, width: u64) -> (u64, u64) {
    (addr & !7, addr.wrapping_add(width.max(1) - 1) & !7)
}

/// Does a store's quad-aligned footprint cover a loaded comparator?
fn comparator_hit(quads: &[u64], m: &MemOp) -> bool {
    let (lo, hi) = quad_span(m.addr, m.width);
    quads.iter().any(|&q| q == lo || q == hi)
}

/// The hardware-register detector: a store traps when its quad-aligned
/// footprint covers a loaded comparator, or when it would fault on a
/// page of the virtual-memory fallback.
pub(crate) struct HwObserver {
    quads: Vec<u64>,
    fallback_pages: Vec<u64>,
}

impl HwObserver {
    pub fn new(registers: usize, wps: &[Watchpoint]) -> Result<HwObserver, DebugError> {
        let (quads, fallback_pages) = plan(registers, wps)?;
        Ok(HwObserver { quads, fallback_pages })
    }
}

impl ObserverImpl for HwObserver {
    fn observe(&mut self, e: &Exec, mem: &Memory, watch: &mut WatchState) -> Option<Transition> {
        let m = e.mem?;
        if !m.is_store {
            return None;
        }
        let hw_hit = comparator_hit(&self.quads, &m);
        let vm_hit = store_would_fault(&self.fallback_pages, m.addr, m.width);
        if hw_hit || vm_hit {
            let wrote = watch.store_overlaps(mem, m.addr, m.width);
            let (changed, pred_ok) = watch.reevaluate(mem);
            return Some(classify(changed, pred_ok, wrote));
        }
        None
    }

    /// Comparators match quad-aligned quads and the overflow fallback
    /// traps whole pages; the filter is the union of both — static by
    /// construction (only scalar watchpoints survive [`plan`]).
    fn filter(&self, _watch: &WatchState, _mem: &Memory) -> WatchFilter {
        let mut intervals: Vec<(u64, u64)> = self.quads.iter().map(|&q| (q, 8)).collect();
        intervals.extend(self.fallback_pages.iter().map(|&p| (p, dise_mem::PAGE_SIZE)));
        WatchFilter::new(intervals, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::Width;

    fn store(addr: u64, width: u64) -> MemOp {
        MemOp { addr, width, is_store: true, old_value: 0, new_value: 1 }
    }

    /// `lda r1,-4(zero); stq r2,0(r1)` stores at `u64::MAX - 3`: the
    /// last four bytes of memory and the first four.
    #[test]
    fn wrapping_store_hits_both_quads_it_covers() {
        let wrapping = store(u64::MAX - 3, 8);
        assert!(comparator_hit(&[u64::MAX - 7], &wrapping), "top quad");
        assert!(comparator_hit(&[0], &wrapping), "quad 0, past the wrap");
        assert!(!comparator_hit(&[8, u64::MAX - 15], &wrapping), "neighbours");
        assert!(comparator_hit(&[0x108], &store(0x104, 8)), "straddling store, second quad");
        assert!(!comparator_hit(&[0x108], &store(0x100, 8)));
    }

    #[test]
    fn scalar_at_the_top_of_memory_plans_its_quads() {
        let at = |addr, width| Watchpoint::new(WatchExpr::Scalar { addr, width });
        let (quads, pages) = plan(4, &[at(u64::MAX - 7, Width::Q)]).unwrap();
        assert_eq!((quads, pages), (vec![u64::MAX - 7], vec![]));
        let (quads, _) = plan(4, &[at(u64::MAX - 3, Width::Q)]).unwrap();
        assert_eq!(quads, vec![u64::MAX - 7, 0]);
        let (quads, _) = plan(4, &[at(0x1004, Width::L)]).unwrap();
        assert_eq!(quads, vec![0x1000]);
    }
}
