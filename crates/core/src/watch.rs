//! Watchpoint specifications and debugger-side expression evaluation.

use dise_cpu::{byte_span, footprints_overlap, ChunkSummary};
use dise_isa::Width;
use dise_mem::Memory;

/// What a watchpoint observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchExpr {
    /// A named scalar variable at a statically known address
    /// (`watch x`).
    Scalar {
        /// Variable address.
        addr: u64,
        /// Variable width.
        width: Width,
    },
    /// A pointer dereference (`watch *p`): the pointer cell lives at
    /// `ptr`; the watched storage is wherever it currently points.
    Indirect {
        /// Address of the pointer variable itself.
        ptr: u64,
        /// Width of the pointed-to datum.
        width: Width,
    },
    /// A non-scalar — a structure or array (`watch arr`): all bytes in
    /// `[base, base+len)`.
    Range {
        /// First watched byte.
        base: u64,
        /// Length in bytes.
        len: u64,
    },
}

impl WatchExpr {
    /// The current value of the expression: scalar/indirect values are
    /// the datum zero-extended; range values are a snapshot of the bytes.
    pub fn evaluate(&self, mem: &Memory) -> WatchValue {
        match *self {
            WatchExpr::Scalar { addr, width } => {
                WatchValue::Scalar(mem.read_u(addr, width.bytes()))
            }
            WatchExpr::Indirect { ptr, width } => {
                let target = mem.read_u(ptr, 8);
                WatchValue::Scalar(mem.read_u(target, width.bytes()))
            }
            WatchExpr::Range { base, len } => WatchValue::Bytes(mem.read_bytes(base, len as usize)),
        }
    }

    /// The byte intervals a store must overlap to possibly affect the
    /// expression *right now* (indirect expressions depend on the current
    /// pointer value).
    pub fn watched_intervals(&self, mem: &Memory) -> Vec<(u64, u64)> {
        match *self {
            WatchExpr::Scalar { addr, width } => vec![(addr, width.bytes())],
            WatchExpr::Indirect { ptr, width } => {
                let target = mem.read_u(ptr, 8);
                vec![(ptr, 8), (target, width.bytes())]
            }
            WatchExpr::Range { base, len } => vec![(base, len)],
        }
    }

    /// True when the debugger can compute every referenced address
    /// without running the program — the prerequisite for the
    /// virtual-memory and hardware-register implementations (§2:
    /// "Addresses generated by indirection … cannot be statically
    /// determined").
    pub fn statically_addressable(&self) -> bool {
        !matches!(self, WatchExpr::Indirect { .. })
    }
}

/// A snapshot of a watch expression's value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WatchValue {
    /// Scalar (and dereferenced-pointer) values.
    Scalar(u64),
    /// Range contents.
    Bytes(Vec<u8>),
}

impl WatchValue {
    /// The scalar payload, if this is a scalar.
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            WatchValue::Scalar(v) => Some(*v),
            WatchValue::Bytes(_) => None,
        }
    }
}

/// A conditional predicate attached to a watchpoint. The evaluation
/// experiments use [`Condition::equals`] with a constant the expression
/// never takes, so every transition is the predicate's fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Condition {
    /// The constant compared against.
    pub equals: u64,
}

impl Condition {
    /// `expression == k`.
    pub fn equals(k: u64) -> Condition {
        Condition { equals: k }
    }

    /// Evaluate against the current expression value. Range values
    /// cannot be compared to a scalar and evaluate to `false` — which
    /// is why session setup rejects conditional `Range` watchpoints
    /// outright (`DebugError::InvalidWatchpoint`) instead of letting
    /// `watch arr if arr == k` silently never fire.
    pub fn holds(&self, value: &WatchValue) -> bool {
        value.as_scalar() == Some(self.equals)
    }
}

/// A watchpoint: an expression plus an optional predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Watchpoint {
    /// What to watch.
    pub expr: WatchExpr,
    /// Only invoke the user when this predicate also holds.
    pub condition: Option<Condition>,
}

impl Watchpoint {
    /// An unconditional watchpoint.
    pub fn new(expr: WatchExpr) -> Watchpoint {
        Watchpoint { expr, condition: None }
    }

    /// A conditional watchpoint.
    pub fn conditional(expr: WatchExpr, condition: Condition) -> Watchpoint {
        Watchpoint { expr, condition: Some(condition) }
    }
}

/// The debugger's bookkeeping for a set of watchpoints: the last
/// values it reported to the user.
#[derive(Clone, Debug)]
pub struct WatchState {
    entries: Vec<(Watchpoint, WatchValue)>,
}

impl WatchState {
    /// Snapshot initial values.
    pub fn new(watchpoints: &[Watchpoint], mem: &Memory) -> WatchState {
        WatchState { entries: watchpoints.iter().map(|w| (*w, w.expr.evaluate(mem))).collect() }
    }

    /// The tracked watchpoints.
    pub fn watchpoints(&self) -> impl Iterator<Item = &Watchpoint> {
        self.entries.iter().map(|(w, _)| w)
    }

    /// Number of watchpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no watchpoints are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Does a store to `[addr, addr+width)` overlap any currently
    /// watched byte? Addresses wrap past `u64::MAX` as memory does.
    pub fn store_overlaps(&self, mem: &Memory, addr: u64, width: u64) -> bool {
        self.entries.iter().any(|(w, _)| {
            w.expr
                .watched_intervals(mem)
                .iter()
                .any(|&(base, len)| footprints_overlap(addr, width, base, len))
        })
    }

    /// The union of every watchpoint's currently watched byte
    /// intervals — for indirect expressions that includes both the
    /// pointer cell and wherever it points *right now*.
    pub fn watched_intervals(&self, mem: &Memory) -> Vec<(u64, u64)> {
        self.entries.iter().flat_map(|(w, _)| w.expr.watched_intervals(mem)).collect()
    }

    /// Re-evaluate every expression; returns `(changed, predicate_ok)`
    /// where `changed` is true if any expression's value differs from the
    /// last recorded one, and `predicate_ok` is true if some *changed*
    /// watchpoint's condition passes (unconditional watchpoints always
    /// pass). Recorded values are refreshed.
    pub fn reevaluate(&mut self, mem: &Memory) -> (bool, bool) {
        let mut changed = false;
        let mut pred_ok = false;
        for (w, prev) in &mut self.entries {
            let cur = w.expr.evaluate(mem);
            if cur != *prev {
                changed = true;
                let ok = match w.condition {
                    None => true,
                    Some(c) => c.holds(&cur),
                };
                pred_ok |= ok;
                *prev = cur;
            }
        }
        (changed, pred_ok)
    }
}

/// A precomputed store-footprint prefilter for one observer member:
/// the byte intervals whose mutation could possibly change what the
/// member's `observe` call reports. The fan-out tests each
/// [`ChunkSummary`] against the filter and skips the member's
/// record-by-record scan when no store in the chunk can have touched a
/// watched byte (and the chunk carries no event).
///
/// The filter is sound by the same argument for every backend:
///
/// - Virtual-memory protection traps on *pages*; the filter holds the
///   protected pages, so any store that could fault intersects.
/// - Hardware comparators match quad-aligned *quads* (plus fallback
///   pages); the filter holds them.
/// - DISE comparators check the watchpoints' current intervals — and
///   for an indirect watch the interval set *includes the pointer
///   cell*, so a store that retargets the pointer always intersects
///   the filter and forces the record-by-record path. The filter
///   therefore never needs speculative refresh: it can only go stale
///   after a pointer-cell store, and that store is never skipped.
///   After such a scan the fan-out rebuilds the (dynamic) filter from
///   the refreshed [`WatchState`].
#[derive(Clone, Debug)]
pub struct WatchFilter {
    /// Watched `(base, len)` byte intervals; empty means nothing can
    /// ever trigger, so every store-only chunk is skippable.
    intervals: Vec<(u64, u64)>,
    /// Cached bounding box over `intervals` for the cheap first reject.
    lo: u64,
    /// The last bounded byte, inclusive (0 when `intervals` is empty,
    /// so `lo > last` means nothing is bounded).
    last: u64,
    /// Union of the intervals' page-occupancy bits
    /// ([`ChunkSummary::page_bits`]).
    page_mask: u64,
    /// True when some interval follows run-time state (an indirect
    /// watch): the fan-out must rebuild the filter after every forced
    /// scan, because the scan may have moved the watched target.
    dynamic: bool,
}

impl WatchFilter {
    /// A filter over the given intervals. `dynamic` marks filters whose
    /// intervals follow run-time state (indirect watches) and must be
    /// rebuilt after each forced scan.
    pub fn new(intervals: Vec<(u64, u64)>, dynamic: bool) -> WatchFilter {
        let mut lo = u64::MAX;
        let mut last = 0u64;
        let mut page_mask = 0u64;
        for &(base, len) in &intervals {
            let (first, end) = byte_span(base, len);
            lo = lo.min(first);
            last = last.max(end);
            page_mask |= ChunkSummary::page_bits(base, len);
        }
        WatchFilter { intervals, lo, last, page_mask, dynamic }
    }

    /// True when the intervals follow run-time state and the filter
    /// must be rebuilt after every forced scan.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Does a store to `[addr, addr+width)` overlap a watched interval?
    /// Mirrors [`WatchState::store_overlaps`], against the precomputed
    /// intervals instead of live memory.
    pub fn hits_store(&self, addr: u64, width: u64) -> bool {
        let (first, last) = byte_span(addr, width);
        first <= self.last
            && self.lo <= last
            && self.intervals.iter().any(|&(base, len)| footprints_overlap(addr, width, base, len))
    }

    /// Could any store summarised in `chunk` overlap a watched
    /// interval? Conservative in the same direction as the summary:
    /// `false` proves no buffered store touched a watched byte.
    pub fn intersects(&self, chunk: &ChunkSummary) -> bool {
        let Some((lo, last)) = chunk.stores() else { return false };
        self.lo <= last
            && lo <= self.last
            && self.page_mask & chunk.page_mask() != 0
            && self.intervals.iter().any(|&(base, len)| {
                let (first, end) = byte_span(base, len);
                first <= last && lo <= end
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(addr: u64, v: u64) -> Memory {
        let mut m = Memory::new();
        m.write_u(addr, 8, v);
        m
    }

    #[test]
    fn scalar_evaluation() {
        let m = mem_with(0x100, 42);
        let e = WatchExpr::Scalar { addr: 0x100, width: Width::Q };
        assert_eq!(e.evaluate(&m), WatchValue::Scalar(42));
        assert!(e.statically_addressable());
    }

    #[test]
    fn indirect_follows_pointer() {
        let mut m = Memory::new();
        m.write_u(0x100, 8, 0x200); // p = 0x200
        m.write_u(0x200, 8, 7);
        let e = WatchExpr::Indirect { ptr: 0x100, width: Width::Q };
        assert_eq!(e.evaluate(&m), WatchValue::Scalar(7));
        assert!(!e.statically_addressable());
        // Repoint p: the watched intervals move.
        m.write_u(0x100, 8, 0x300);
        m.write_u(0x300, 8, 9);
        assert_eq!(e.evaluate(&m), WatchValue::Scalar(9));
        let iv = e.watched_intervals(&m);
        assert!(iv.contains(&(0x300, 8)));
    }

    #[test]
    fn range_snapshot() {
        let mut m = Memory::new();
        m.write_bytes(0x400, &[1, 2, 3, 4]);
        let e = WatchExpr::Range { base: 0x400, len: 4 };
        assert_eq!(e.evaluate(&m), WatchValue::Bytes(vec![1, 2, 3, 4]));
    }

    #[test]
    fn condition_on_scalar() {
        let c = Condition::equals(5);
        assert!(c.holds(&WatchValue::Scalar(5)));
        assert!(!c.holds(&WatchValue::Scalar(6)));
        assert!(!c.holds(&WatchValue::Bytes(vec![5])));
    }

    #[test]
    fn state_detects_changes_and_updates() {
        let mut m = mem_with(0x100, 1);
        let wp = Watchpoint::new(WatchExpr::Scalar { addr: 0x100, width: Width::Q });
        let mut st = WatchState::new(&[wp], &m);
        assert_eq!(st.reevaluate(&m), (false, false), "nothing changed");
        m.write_u(0x100, 8, 2);
        assert_eq!(st.reevaluate(&m), (true, true), "unconditional change");
        assert_eq!(st.reevaluate(&m), (false, false), "value recorded");
    }

    #[test]
    fn conditional_change_gates_predicate() {
        let mut m = mem_with(0x100, 1);
        let wp = Watchpoint::conditional(
            WatchExpr::Scalar { addr: 0x100, width: Width::Q },
            Condition::equals(99),
        );
        let mut st = WatchState::new(&[wp], &m);
        m.write_u(0x100, 8, 2);
        assert_eq!(st.reevaluate(&m), (true, false), "changed but predicate fails");
        m.write_u(0x100, 8, 99);
        assert_eq!(st.reevaluate(&m), (true, true), "changed and predicate holds");
    }

    #[test]
    fn overlap_detection() {
        let m = mem_with(0x100, 1);
        let wp = Watchpoint::new(WatchExpr::Scalar { addr: 0x100, width: Width::L });
        let st = WatchState::new(&[wp], &m);
        assert!(st.store_overlaps(&m, 0x100, 8));
        assert!(st.store_overlaps(&m, 0x102, 1), "inside the long");
        assert!(st.store_overlaps(&m, 0xfc, 8), "partial overlap from below");
        assert!(!st.store_overlaps(&m, 0x104, 4), "just past");
        assert!(!st.store_overlaps(&m, 0xf8, 8), "just before");
    }

    #[test]
    fn multiple_watchpoints_any_change() {
        let mut m = Memory::new();
        m.write_u(0x100, 8, 1);
        m.write_u(0x200, 8, 1);
        let wps = [
            Watchpoint::new(WatchExpr::Scalar { addr: 0x100, width: Width::Q }),
            Watchpoint::new(WatchExpr::Scalar { addr: 0x200, width: Width::Q }),
        ];
        let mut st = WatchState::new(&wps, &m);
        m.write_u(0x200, 8, 5);
        assert_eq!(st.reevaluate(&m), (true, true));
    }
}
