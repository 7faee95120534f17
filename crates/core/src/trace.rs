//! Persistent session traces: record one functional pass of the
//! unmodified application, replay it forever.
//!
//! The in-memory [`crate::ObserverBatch`] already shares one functional
//! pass across watchpoint sets × observing backends × timing
//! configurations *within* a process. This module extends the economy
//! *across* processes and runs:
//! [`SessionTask::observer_recorded`](crate::SessionTask::observer_recorded),
//! the one recording entry point, persists the shared `Exec` stream
//! (delta + run-length compressed, CRC-protected — see `dise-trace`) of
//! a pass with at least one admitted member, and
//! [`SessionTask::observer_replay`](crate::SessionTask::observer_replay)
//! runs a whole observer batch from the stored stream with **zero**
//! functional passes and zero image loads — pinned by the
//! [`trace_records`] / [`trace_replays`] counters next to the existing
//! [`functional_passes`](crate::functional_passes) economy counters.
//!
//! Replay soundness rests on two facts the conformance suite enforces:
//! observing backends read only the `Exec` record and the memory image
//! (never machine internals), and every memory mutation of the
//! unmodified application appears as a store `MemOp` in its own record
//! — so a shadow memory updated record-by-record shows each observer
//! exactly the bytes the live machine would have.

use std::sync::atomic::{AtomicU64, Ordering};

/// How many trace recordings this process has performed: one per
/// recording observer pass
/// ([`SessionTask::observer_recorded`](crate::SessionTask::observer_recorded))
/// that admitted a member.
pub(crate) static TRACE_RECORDS: AtomicU64 = AtomicU64::new(0);

/// How many stored-trace replays have substituted for a functional
/// pass in this process.
pub(crate) static TRACE_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of trace recordings — the "record once" half of
/// the persistent-trace economy.
pub fn trace_records() -> u64 {
    TRACE_RECORDS.load(Ordering::Relaxed)
}

/// Process-wide count of stored-trace replays, each of which replaced
/// one functional pass (and one image load) with a file read.
pub fn trace_replays() -> u64 {
    TRACE_REPLAYS.load(Ordering::Relaxed)
}
