//! Persistent session traces: record one functional pass of the
//! unmodified application, replay it forever.
//!
//! The in-memory [`crate::ObserverBatch`] already shares one functional
//! pass across watchpoint sets × observing backends × timing
//! configurations *within* a process. This module extends the economy
//! *across* processes and runs: [`record_session`] and
//! [`SessionTask::observer_recorded`](crate::SessionTask::observer_recorded)
//! persist the shared `Exec` stream (delta + run-length compressed,
//! CRC-protected — see `dise-trace`), and
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

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use dise_cpu::{CpuConfig, TraceStats, TraceWriter};

use crate::session::{DebugError, FUNCTIONAL_PASSES, IMAGE_LOADS};
use crate::Application;

/// How many standalone trace recordings this process has performed
/// ([`record_session`] and every recording observer pass).
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

/// Record `app`'s full functional stream to `trace` — one honest,
/// counted functional pass of the unmodified application, with no
/// debugger attached. The file appears atomically on success.
///
/// # Errors
///
/// [`DebugError::Asm`] when `app` fails to assemble;
/// [`DebugError::Trace`] when the trace cannot be persisted.
pub fn record_session(app: &Application, trace: &Path) -> Result<TraceStats, DebugError> {
    let prepared = app.prepared()?;
    let mut writer = TraceWriter::create(trace, prepared.fingerprint())?;
    let mut exec = prepared.executor(CpuConfig::default());
    IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
    FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
    TRACE_RECORDS.fetch_add(1, Ordering::Relaxed);
    while !exec.is_halted() {
        writer.record(&exec.step());
    }
    Ok(writer.finish()?)
}
