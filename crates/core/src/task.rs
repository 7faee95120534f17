//! Resumable session execution: every run-to-completion entry point in
//! [`crate::session`], refactored into a [`SessionTask`] state machine
//! that can be driven one bounded slice at a time.
//!
//! A task is a *continuation*: [`SessionTask::poll`] advances it by at
//! most `budget` dynamic instructions and reports [`Step::Yielded`]
//! (more to do) or [`Step::Done`] (the finished [`TaskOutput`]).
//! Because the simulator is deterministic and PR 7 proved budgeted
//! stepping slicing-invariant, a task polled under *any* sequence of
//! budgets produces the byte-identical `Exec` stream, reports, and
//! instrumentation counters as one `u64::MAX` run — which is what lets
//! [`crate::Scheduler`] multiplex thousands of sessions over a few
//! worker threads without perturbing a single result (the grid
//! determinism suites in `dise-bench` hold it to that).
//!
//! The run-to-completion entry points ([`crate::run_session`],
//! [`crate::Session`], [`crate::ObserverBatch::run`]) are thin layers
//! over the same admission and passes, so the scheduled and unscheduled
//! paths share one implementation and cannot drift apart.
//!
//! There are two continuations. Every *private* task — a
//! [`SessionTask::batch`] or [`SessionTask::session`], breakpoint and
//! monitor tasks, and [`crate::Session`] — is one machine: admission
//! validates the watchpoints, builds the backend's image and restores it
//! copy-on-write into one machine, and one pass drives it under every
//! timing configuration of the batch. Observer batches share one pass,
//! live or replayed, across many members.
//!
//! ## Lifecycle
//!
//! ```text
//! spawn ──▶ Pending ──(first poll: admission)──▶ Running ──▶ Done
//! ```
//!
//! Admission — watchpoint validation, backend instantiation,
//! `build_program`, instantiating the application's prepared image — is
//! *lazy*: it happens at the first granted slice, not at construction.
//! A spawned-but-unstarted task is just plain data (an [`Application`]
//! and some configurations), which is how a scheduler holds >1000
//! concurrently in-flight sessions cheaply on a single core.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dise_cpu::{
    CpuConfig, Event, Exec, ExecChunk, ExecError, Executor, TimingBatch, TraceReader, TraceWriter,
    MAX_BLOCK_STEPS,
};
use dise_mem::Memory;
use dise_trace::TraceError;

use crate::backend::{build_image, BackendImpl, ObserverImpl};
use crate::session::{
    drive, validate_configs, validate_watchpoints, DebugError, SessionReport, FUNCTIONAL_PASSES,
    IMAGE_LOADS,
};
use crate::trace::{TRACE_RECORDS, TRACE_REPLAYS};
use crate::{
    Application, BackendKind, Transition, TransitionStats, WatchFilter, WatchState, Watchpoint,
};

/// Chunks dispatched by the slice-based observer fan-out, live and
/// replayed alike (a dirty record dispatches as its own chunk of one).
pub(crate) static FANOUT_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Per-member skip decisions: the member's [`WatchFilter`] proved no
/// buffered store touched a watched byte (and the chunk carried no
/// event), so `observe` never ran and only the bulk timing slice was
/// charged.
pub(crate) static FANOUT_CHUNKS_SKIPPED: AtomicU64 = AtomicU64::new(0);
/// Per-member scan decisions: the chunk summary intersected the
/// member's filter (or carried an event), so the member scanned the
/// records one by one. `skipped + scanned == members × chunks`, always.
pub(crate) static FANOUT_CHUNKS_SCANNED: AtomicU64 = AtomicU64::new(0);

/// Records the observer fan-out's timing pipelines consumed, summed
/// over pipelines (see [`TimingBatch::pipeline_records`]).
pub(crate) static FANOUT_PIPELINE_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of chunks dispatched by the observer fan-out.
pub fn fanout_chunks() -> u64 {
    FANOUT_CHUNKS.load(Ordering::Relaxed)
}

/// Process-wide count of per-member whole-chunk skips (filter miss).
pub fn fanout_chunks_skipped() -> u64 {
    FANOUT_CHUNKS_SKIPPED.load(Ordering::Relaxed)
}

/// Process-wide count of per-member record-by-record chunk scans.
pub fn fanout_chunks_scanned() -> u64 {
    FANOUT_CHUNKS_SCANNED.load(Ordering::Relaxed)
}

/// Process-wide count of records the observer fan-out's timing
/// pipelines consumed, summed over pipelines: the cycle work of every
/// observer pass, against each member's configurations times the
/// records for one model per configuration.
pub fn fanout_pipeline_records() -> u64 {
    FANOUT_PIPELINE_RECORDS.load(Ordering::Relaxed)
}

/// What one [`SessionTask::poll`] call reports.
#[derive(Debug)]
pub enum Step {
    /// The budget ran out with work remaining; poll again to continue.
    Yielded(TaskProgress),
    /// The task finished; it must not be polled again.
    Done(TaskOutput),
}

/// Virtual progress of a yielded task, for callers that poll directly.
/// The scheduler does not read it: it serves yielded tasks in yield
/// order, with a bounded bypass for admissions (see
/// [`crate::Scheduler`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskProgress {
    /// Dynamic instructions this task has retired so far.
    pub instructions: u64,
}

/// The finished result of a [`SessionTask`]: one of two shapes.
#[derive(Debug)]
pub enum TaskOutput {
    /// From a batch, session, breakpoint or monitor task: one report
    /// per timing configuration, in `cpus` order.
    Batch(Result<Vec<SessionReport>, DebugError>),
    /// From an observer task: one result per member, from
    /// [`SessionTask::observer`] (what [`crate::ObserverBatch::run`]
    /// returns) and its recorded and replayed forms. The outer `Err` is
    /// task-wide.
    Observe(Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError>),
}

impl TaskOutput {
    /// Unwrap a [`TaskOutput::Batch`].
    ///
    /// # Panics
    ///
    /// Panics on an observer task's output ([`TaskOutput::Observe`]) —
    /// a shape mismatch is a caller bug, never data-dependent.
    pub fn into_batch(self) -> Result<Vec<SessionReport>, DebugError> {
        match self {
            TaskOutput::Batch(r) => r,
            TaskOutput::Observe(_) => panic!("expected a batch task output, got one per member"),
        }
    }

    /// Unwrap a [`TaskOutput::Observe`].
    ///
    /// # Panics
    ///
    /// Panics when the task is batch-shaped ([`TaskOutput::Batch`]).
    pub fn into_observe(self) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        match self {
            TaskOutput::Observe(r) => r,
            TaskOutput::Batch(_) => panic!("expected one result per member, got a batch"),
        }
    }
}

/// A resumable debugging-session continuation: a private batch (one
/// machine) or an observer batch (live, recorded or replayed), driven a
/// bounded number of instructions per [`SessionTask::poll`].
pub struct SessionTask {
    progress: u64,
    shape: Shape,
    state: State,
}

enum State {
    PendingBatch(BatchSpec),
    Batch(Box<Pass>),
    PendingObserve(ObserveSpec),
    Observe(Box<ObserveRun>),
    /// Stands in for a bug inside a pass: the first poll panics.
    #[cfg(test)]
    Panics,
    Finished,
}

struct BatchSpec {
    app: Application,
    watchpoints: Vec<Watchpoint>,
    backend: Box<dyn BackendImpl>,
    cpus: Vec<CpuConfig>,
}

/// Which [`TaskOutput`] a task that fails as a whole (at admission, or
/// by a panicking poll) settles as.
#[derive(Clone, Copy)]
enum Shape {
    Batch,
    Observe,
}

impl Shape {
    fn error(self, e: DebugError) -> TaskOutput {
        match self {
            Shape::Batch => TaskOutput::Batch(Err(e)),
            Shape::Observe => TaskOutput::Observe(Err(e)),
        }
    }
}

struct ObserveSpec {
    app: Application,
    members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
    trace: Trace,
}

/// What an observer batch does with the persistent trace store.
enum Trace {
    /// Run the shared functional pass ([`SessionTask::observer`]).
    Off,
    /// Run it and record it to this file as a side effect
    /// ([`SessionTask::observer_recorded`]).
    Record(PathBuf),
    /// Replay it from this file instead of running it
    /// ([`SessionTask::observer_replay`]).
    Replay(PathBuf),
}

/// One live functional pass: the machine, its fanned-out timing models,
/// the backend, and the debugger bookkeeping — everything
/// [`crate::session::drive`] needs, owned so it survives between polls
/// (and, inside [`crate::Session`], between calls).
pub(crate) struct Pass {
    pub(crate) exec: Executor,
    pub(crate) timings: TimingBatch,
    pub(crate) backend: Box<dyn BackendImpl>,
    pub(crate) watch: WatchState,
    pub(crate) stats: TransitionStats,
    pub(crate) error: Option<ExecError>,
    pub(crate) text_bytes: u64,
}

impl Pass {
    /// The pass over a machine freshly restored from an image: configure
    /// the backend on it, snapshot the watched values, and build one
    /// timing model per configuration.
    fn on(
        mut exec: Executor,
        mut backend: Box<dyn BackendImpl>,
        watchpoints: &[Watchpoint],
        cfgs: &[CpuConfig],
        text_bytes: u64,
    ) -> Result<Pass, DebugError> {
        backend.configure(&mut exec, watchpoints)?;
        let watch = WatchState::new(watchpoints, exec.mem());
        Ok(Pass {
            exec,
            timings: TimingBatch::new(cfgs),
            backend,
            watch,
            stats: TransitionStats::default(),
            error: None,
            text_bytes,
        })
    }

    /// Drive at most `budget` further instructions; returns how many
    /// actually retired (the caller's progress/budget accounting).
    pub(crate) fn drive_budget(&mut self, budget: u64) -> u64 {
        let before = self.exec.instructions();
        let error = drive(
            &mut self.exec,
            &mut self.timings,
            self.backend.as_mut(),
            &mut self.watch,
            &mut self.stats,
            budget,
        );
        if error.is_some() {
            // The machine halts on its first error, so at most one
            // slice ever reports one.
            self.error = error;
        }
        self.exec.instructions() - before
    }

    fn finish(self) -> Vec<SessionReport> {
        let (stats, error, text_bytes) = (self.stats, self.error, self.text_bytes);
        self.timings
            .finish()
            .into_iter()
            .map(|run| SessionReport { run, transitions: stats, error, text_bytes })
            .collect()
    }
}

/// One admitted member of an observer pass: its detector and private
/// accounting, fed the shared `Exec` stream, and its timing
/// configurations' slots in the pass's [`TimingBatch`]. `filter` is the
/// member's precomputed store-footprint prefilter; the fan-out rebuilds
/// it (for dynamic filters only) after every forced scan.
struct LiveObserver {
    member: usize,
    observer: Box<dyn ObserverImpl>,
    watch: WatchState,
    filter: WatchFilter,
    slots: Range<usize>,
    stats: TransitionStats,
}

/// Must `e` leave the clean bulk path? A record is dirty when it
/// carries an event (every member must classify it at exact memory) or
/// its store touches some member's filter (that member must observe it
/// at exact memory — and for an indirect watch the filter includes the
/// pointer cell, so a retargeting store is always dirty and the filters
/// never go stale inside a clean chunk).
fn record_is_dirty(live: &[LiveObserver], e: &Exec) -> bool {
    if e.event.is_some() {
        return true;
    }
    match e.mem {
        Some(m) if m.is_store => live.iter().any(|l| l.filter.hits_store(m.addr, m.width)),
        _ => false,
    }
}

/// The chunk-at-a-time fan-out of an observer pass, live or replayed.
/// One scratch chunk and scratch hit lists live for the whole run — no
/// per-record heap traffic.
///
/// The dispatch contract, per chunk and per member:
///
/// - the member's [`WatchFilter`] misses the chunk's
///   [`dise_cpu::ChunkSummary`] and the chunk carries no event → the
///   member's `observe` is skipped for every record;
/// - otherwise the member scans record by record, counting each
///   transition and reporting each spurious one's record.
///
/// Timing is a pure function of the record stream and each slot's
/// spurious stalls (non-spurious transitions touch statistics, never
/// cycles), so one [`TimingBatch`] times the pass for every member:
/// each member owns a range of its slots. The batch consumes each
/// chunk once, cut after every record on which some member stalled,
/// and stalls those members' slots there together — the scalar loop's
/// consume → observe → stall order. Slots that stall on one record
/// share their cycle pipeline from there on (see [`TimingBatch`]).
/// Every report is byte-identical to the member's private
/// [`SessionTask::session`].
///
/// Byte-identity for every chunk size rests on one invariant: `observe`
/// only ever runs against memory *exactly* as of its record. Clean
/// chunks guarantee it vacuously (no watched byte moved, so observation
/// is memory-independent for every skipped *and* scanned member);
/// dirty records are dispatched as chunks of one.
struct FanOut {
    chunk: ExecChunk,
    hits: Vec<(u32, Transition)>,
    /// The chunk's spurious hits: (record index, live member index).
    stalls: Vec<(u32, usize)>,
    /// The slots one record's stalls charge.
    stalled: Vec<usize>,
    timings: TimingBatch,
    /// Not yet published: chunks, member skips, member scans, and the
    /// batch's pipeline-records.
    chunks: u64,
    skipped: u64,
    scanned: u64,
    published_records: u64,
}

impl FanOut {
    fn new(timings: TimingBatch) -> FanOut {
        FanOut {
            chunk: ExecChunk::with_capacity(MAX_BLOCK_STEPS),
            hits: Vec::new(),
            stalls: Vec::new(),
            stalled: Vec::new(),
            timings,
            chunks: 0,
            skipped: 0,
            scanned: 0,
            published_records: 0,
        }
    }

    /// Add the tallies to the process-wide counters, once per drive.
    fn publish(&mut self) {
        FANOUT_CHUNKS.fetch_add(std::mem::take(&mut self.chunks), Ordering::Relaxed);
        FANOUT_CHUNKS_SKIPPED.fetch_add(std::mem::take(&mut self.skipped), Ordering::Relaxed);
        FANOUT_CHUNKS_SCANNED.fetch_add(std::mem::take(&mut self.scanned), Ordering::Relaxed);
        let records = self.timings.pipeline_records();
        FANOUT_PIPELINE_RECORDS.fetch_add(records - self.published_records, Ordering::Relaxed);
        self.published_records = records;
    }

    /// Dispatch the buffered records to every member, time them, and
    /// reset the chunk. No-op on an empty chunk.
    fn flush(&mut self, live: &mut [LiveObserver], mem: &Memory) {
        if self.chunk.is_empty() {
            return;
        }
        self.chunks += 1;
        let summary = *self.chunk.summary();
        let records = self.chunk.records();
        self.stalls.clear();
        for (k, l) in live.iter_mut().enumerate() {
            if summary.any_event() || l.filter.intersects(&summary) {
                self.scanned += 1;
                scan_member(l, records, &mut self.hits, mem);
                let spurious = self.hits.iter().filter(|(_, t)| t.is_spurious());
                self.stalls.extend(spurious.map(|&(i, _)| (i, k)));
            } else {
                self.skipped += 1;
            }
        }
        self.stalls.sort_unstable();
        let mut next = 0;
        for stalls in self.stalls.chunk_by(|a, b| a.0 == b.0) {
            let i = stalls[0].0 as usize;
            self.timings.consume_slice(&records[next..=i]);
            next = i + 1;
            self.stalled.clear();
            for &(_, k) in stalls {
                self.stalled.extend(live[k].slots.clone());
            }
            self.timings.stall(&self.stalled);
        }
        self.timings.consume_slice(&records[next..]);
        self.chunk.clear();
    }

    /// Dispatch one dirty record as its own chunk — after the clean
    /// prefix has been flushed, so `mem` is exactly as of `e`. Returns
    /// the execution error the record carries, if any.
    fn dispatch_dirty(
        &mut self,
        e: &Exec,
        live: &mut [LiveObserver],
        mem: &Memory,
    ) -> Option<ExecError> {
        debug_assert!(self.chunk.is_empty(), "flush the clean prefix before a dirty record");
        self.chunk.push(*e);
        self.flush(live, mem);
        match e.event {
            Some(Event::Error(err)) => Some(err),
            _ => None,
        }
    }
}

/// One member's record-by-record chunk scan: every transition is
/// counted, and `hits` is left holding each with its record's index in
/// the chunk. A dynamic filter is rebuilt afterwards — the scan may
/// have moved an indirect watch's target.
fn scan_member(
    l: &mut LiveObserver,
    records: &[Exec],
    hits: &mut Vec<(u32, Transition)>,
    mem: &Memory,
) {
    hits.clear();
    for (i, e) in records.iter().enumerate() {
        if let Some(t) = l.observer.observe(e, mem, &mut l.watch) {
            l.stats.count(t);
            hits.push((i as u32, t));
        }
    }
    if l.filter.is_dynamic() {
        l.filter = l.observer.filter(&l.watch, mem);
    }
}

/// The observer-batch continuation: one shared record stream and every
/// admitted member's detector — `ObserverBatch::run`'s loop with the
/// instruction cursor lifted out. The stream comes from a live machine
/// or from a stored trace; dispatch, admission and scatter are the same
/// code either way, so a replay cannot diverge from the live pass.
struct ObserveRun {
    source: Source,
    live: Vec<LiveObserver>,
    fan: FanOut,
    results: Vec<Result<Vec<SessionReport>, DebugError>>,
    error: Option<ExecError>,
    text_bytes: u64,
}

/// Where an observer pass's records come from.
enum Source {
    /// The shared functional pass. When recording, `writer` is fed
    /// every stepped record — the "record on miss" half of the trace
    /// economy.
    Live { exec: Box<Executor>, writer: Option<Box<TraceWriter>> },
    /// A stored trace, with a shadow [`Memory`] kept exact by applying
    /// each record's store effect — so `WatchState` re-evaluation reads
    /// the same bytes it would have read live. No functional pass, no
    /// image load; the counters prove it.
    Replay {
        reader: Box<TraceReader>,
        mem: Memory,
        exhausted: bool,
        /// A mid-stream decode failure, which ends the replay.
        failure: Option<TraceError>,
    },
}

impl Source {
    /// Memory exactly as of the last record read.
    fn mem(&self) -> &Memory {
        match self {
            Source::Live { exec, .. } => exec.mem(),
            Source::Replay { mem, .. } => mem,
        }
    }

    fn done(&self) -> bool {
        match self {
            Source::Live { exec, .. } => exec.is_halted(),
            Source::Replay { exhausted, .. } => *exhausted,
        }
    }
}

impl ObserveRun {
    fn drive_budget(&mut self, budget: u64) -> u64 {
        let ObserveRun { source, live, fan, error, .. } = self;
        let mut n = 0u64;
        while n < budget && !source.done() {
            let (read, dirty) = match source {
                Source::Live { exec, writer } => exec.step_chunk(&mut fan.chunk, budget - n, |e| {
                    if let Some(w) = writer.as_mut() {
                        w.record(e);
                    }
                    record_is_dirty(live, e)
                }),
                Source::Replay { reader, mem, exhausted, failure } => {
                    let step = reader.next_chunk(&mut fan.chunk, budget - n, |e| {
                        // Mirror the live order: the machine performs a
                        // store before observers see its record.
                        // Applying it before the dirty verdict is safe —
                        // a clean record's store missed every filter, so
                        // no member observation can read the bytes it
                        // moved.
                        if let Some(m) = e.mem {
                            if m.is_store {
                                mem.write_u(m.addr, m.width, m.new_value);
                            }
                        }
                        record_is_dirty(live, e)
                    });
                    match step {
                        Ok((read, dirty)) => {
                            *exhausted = read == 0;
                            (read, dirty)
                        }
                        // `TraceReader::open` validated every CRC
                        // eagerly, so a mid-stream decode failure means
                        // hand-damaged bytes that still satisfied their
                        // checksum — settle typed, never deliver a
                        // silently wrong replay.
                        Err(e) => {
                            *failure = Some(e);
                            *exhausted = true;
                            break;
                        }
                    }
                }
            };
            n += read;
            if let Some(e) = dirty {
                fan.flush(live, source.mem());
                if let Some(err) = fan.dispatch_dirty(&e, live, source.mem()) {
                    *error = Some(err);
                }
            } else if fan.chunk.is_full() {
                fan.flush(live, source.mem());
            }
        }
        // Nothing buffers across polls: a yielded task is exactly as
        // dispatched, and counted, as a run-to-completion one.
        fan.flush(live, source.mem());
        fan.publish();
        n
    }

    /// Seal the recording, if any, and scatter the members' reports:
    /// each member's are its slots' statistics.
    ///
    /// # Errors
    ///
    /// [`DebugError::Trace`] when the recording could not be persisted
    /// or the replayed stream failed to decode mid-way: a recording the
    /// caller asked for must either be sealed or fail typed — a
    /// silently missing trace would re-pay the functional pass forever
    /// without anyone noticing.
    fn finish(self) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        match self.source {
            Source::Live { writer: Some(writer), .. } => {
                writer.finish()?;
            }
            Source::Replay { failure: Some(e), .. } => return Err(e.into()),
            Source::Live { writer: None, .. } | Source::Replay { failure: None, .. } => {}
        }
        let ObserveRun { live, fan, mut results, error, text_bytes, .. } = self;
        let runs = fan.timings.finish();
        for l in live {
            results[l.member] = Ok(runs[l.slots]
                .iter()
                .map(|&run| SessionReport { run, transitions: l.stats, error, text_bytes })
                .collect());
        }
        Ok(results)
    }
}

impl SessionTask {
    /// A task for one session under one timing configuration — a batch
    /// of one, admitted exactly as [`crate::Session`] is. Driven by the
    /// plain per-record session loop, this is also the reference every
    /// shared pass is tested against.
    pub fn session(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpu: CpuConfig,
    ) -> SessionTask {
        SessionTask::batch(app, watchpoints, backend, &[cpu])
    }

    /// A task for one functional pass under `backend`, accounted against
    /// all of `cpus` at once: report `i` is byte-identical to
    /// [`SessionTask::session`] under `cpus[i]`.
    ///
    /// The functional stream depends only on the application, the
    /// watchpoints, the backend and the DISE engine capacities, so the
    /// configurations must agree on [`CpuConfig::engine`]; everything
    /// else (widths, windows, caches, transition costs) may vary. A
    /// batch that disagrees settles with
    /// [`DebugError::MismatchedEngines`]. Timing-only backend knobs fold
    /// into the configuration first with [`BackendKind::split_timing`].
    /// An empty batch settles as no reports, without loading a machine.
    pub fn batch(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpus: &[CpuConfig],
    ) -> SessionTask {
        SessionTask::private(app, watchpoints, backend.instantiate(), cpus)
    }

    /// A batch task under any backend implementation — watchpoints,
    /// breakpoints or a monitor.
    pub(crate) fn private(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: Box<dyn BackendImpl>,
        cpus: &[CpuConfig],
    ) -> SessionTask {
        let spec = BatchSpec { app: app.clone(), watchpoints, backend, cpus: cpus.to_vec() };
        SessionTask::pending(Shape::Batch, State::PendingBatch(spec))
    }

    /// A task that will perform [`crate::ObserverBatch::run`]: one
    /// shared functional pass fanned out to every `(backend,
    /// watchpoints, cpus)` member. A member whose backend is perturbing
    /// settles as [`DebugError::Unsupported`] in its own slot, as
    /// [`crate::ObserverBatch::member`] describes.
    pub fn observer(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
    ) -> SessionTask {
        SessionTask::observe(app, members, Trace::Off)
    }

    /// [`SessionTask::observer`], additionally persisting the shared
    /// functional pass to `trace` — the same single pass serves the
    /// members *and* every future replay. This is the one way to record
    /// a trace. A pass runs, and so records, only when at least one
    /// member is admitted; to record an undebugged run, pass the member
    /// `(BackendKind::VirtualMemory, vec![], cpus)`, which watches
    /// nothing (with `cpus` empty it is not timed either). The trace
    /// appears atomically when the pass completes; an abandoned task
    /// publishes nothing, and one whose trace cannot be persisted
    /// settles with [`DebugError::Trace`].
    pub fn observer_recorded(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        trace: &Path,
    ) -> SessionTask {
        SessionTask::observe(app, members, Trace::Record(trace.to_path_buf()))
    }

    /// An observer batch that runs entirely from the stored trace at
    /// `trace`: zero functional passes, zero image loads, results
    /// bit-identical to [`SessionTask::observer`] on the live machine.
    /// Admission fingerprints `app` and rejects a stale, corrupt, or
    /// truncated trace with [`DebugError::Trace`] — loudly, never a
    /// silently wrong replay. A CRC-clean trace that fails to decode
    /// mid-stream settles with the same error.
    pub fn observer_replay(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        trace: &Path,
    ) -> SessionTask {
        SessionTask::observe(app, members, Trace::Replay(trace.to_path_buf()))
    }

    fn observe(
        app: &Application,
        members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
        trace: Trace,
    ) -> SessionTask {
        SessionTask::pending(
            Shape::Observe,
            State::PendingObserve(ObserveSpec { app: app.clone(), members, trace }),
        )
    }

    fn pending(shape: Shape, state: State) -> SessionTask {
        SessionTask { progress: 0, shape, state }
    }

    /// A batch-shaped task whose first poll panics.
    #[cfg(test)]
    pub(crate) fn panicking() -> SessionTask {
        SessionTask::pending(Shape::Batch, State::Panics)
    }

    /// Dynamic instructions retired so far.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// What this task settles as when a poll panicked: the panic's
    /// message as [`DebugError::Panicked`], in the task's own output
    /// shape (the whole batch or observer batch fails).
    pub(crate) fn panicked(&self, message: String) -> TaskOutput {
        self.shape.error(DebugError::Panicked(message))
    }

    /// Advance by at most `budget` dynamic instructions.
    ///
    /// Admission (validation, backend build, image load) happens lazily
    /// at the first poll and is not charged against the
    /// budget; instrumentation counters tick at exactly the points the
    /// wrapped run-to-completion path would tick them. Any slicing of
    /// budgets yields byte-identical results and counters to a single
    /// `poll(u64::MAX)`.
    ///
    /// # Panics
    ///
    /// Panics when called again after [`Step::Done`] — a completed
    /// continuation has no state left to run.
    pub fn poll(&mut self, budget: u64) -> Step {
        match std::mem::replace(&mut self.state, State::Finished) {
            State::PendingBatch(spec) => {
                match admit_batch(&spec.app, spec.watchpoints, spec.backend, &spec.cpus) {
                    Ok(Some(pass)) => {
                        FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
                        self.state = State::Batch(Box::new(pass));
                    }
                    Ok(None) => return Step::Done(TaskOutput::Batch(Ok(Vec::new()))),
                    Err(e) => return Step::Done(self.shape.error(e)),
                }
            }
            State::PendingObserve(spec) => match admit_observe(spec) {
                Ok(Admitted::Live(run)) => self.state = State::Observe(run),
                Ok(Admitted::Settled(results)) => {
                    return Step::Done(TaskOutput::Observe(Ok(results)))
                }
                Err(e) => return Step::Done(self.shape.error(e)),
            },
            #[cfg(test)]
            State::Panics => panic!("a deliberately panicking task"),
            State::Finished => panic!("SessionTask polled after completion"),
            running => self.state = running,
        }
        match &mut self.state {
            State::Batch(pass) => {
                self.progress += pass.drive_budget(budget);
                if pass.exec.is_halted() {
                    let State::Batch(pass) = std::mem::replace(&mut self.state, State::Finished)
                    else {
                        unreachable!("state checked above");
                    };
                    return Step::Done(TaskOutput::Batch(Ok(pass.finish())));
                }
            }
            State::Observe(run) => {
                self.progress += run.drive_budget(budget);
                if run.source.done() {
                    let State::Observe(run) = std::mem::replace(&mut self.state, State::Finished)
                    else {
                        unreachable!("state checked above");
                    };
                    return Step::Done(TaskOutput::Observe(run.finish()));
                }
            }
            State::PendingBatch(_) | State::PendingObserve(_) | State::Finished => {
                unreachable!("pending states were admitted above")
            }
            #[cfg(test)]
            State::Panics => unreachable!("the first poll panicked"),
        }
        Step::Yielded(TaskProgress { instructions: self.progress })
    }

    /// Drive the task to completion in unbounded slices.
    pub fn run_to_completion(mut self) -> TaskOutput {
        loop {
            if let Step::Done(out) = self.poll(u64::MAX) {
                return out;
            }
        }
    }
}

/// The configuration a batch's one functional stream runs under: `None`
/// for an empty batch, and [`DebugError::MismatchedEngines`] when the
/// configurations disagree on the DISE engine capacities — such cells
/// execute different streams and can never share a pass.
fn shared_engine(cfgs: &[CpuConfig]) -> Result<Option<&CpuConfig>, DebugError> {
    let Some((first, rest)) = cfgs.split_first() else {
        return Ok(None);
    };
    if rest.iter().any(|c| c.engine != first.engine) {
        return Err(DebugError::MismatchedEngines);
    }
    Ok(Some(first))
}

/// Admission for every private pass — [`SessionTask::batch`],
/// breakpoint and monitor tasks and [`crate::Session`]: validate the
/// watchpoints, build the backend's image, restore it into one machine
/// (one image load) and configure the backend on it. `Ok(None)` for an
/// empty batch, which loads nothing. The caller ticks
/// `FUNCTIONAL_PASSES` — a task here, a `Session` on its first drive.
///
/// # Errors
///
/// Invalid or unsupported watchpoints, an invalid machine
/// ([`DebugError::InvalidConfig`]), an assembly failure,
/// [`DebugError::MismatchedEngines`] when the configurations disagree on
/// the engine, and whatever configuring the backend fails with
/// (productions too large for the engine).
pub(crate) fn admit_batch(
    app: &Application,
    watchpoints: Vec<Watchpoint>,
    mut backend: Box<dyn BackendImpl>,
    cpus: &[CpuConfig],
) -> Result<Option<Pass>, DebugError> {
    validate_watchpoints(&watchpoints)?;
    validate_configs(cpus)?;
    let image = build_image(backend.as_mut(), app, &watchpoints)?;
    let cfgs: Vec<CpuConfig> = cpus.iter().map(|&c| backend.cpu_config(c)).collect();
    let Some(first) = shared_engine(&cfgs)? else {
        return Ok(None);
    };
    let exec = image.executor(*first);
    IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
    Pass::on(exec, backend, &watchpoints, &cfgs, image.text_bytes).map(Some)
}

enum Admitted {
    Live(Box<ObserveRun>),
    /// Every member failed admission (or there were none): the results
    /// are already final and no pass runs (or is counted).
    Settled(Vec<Result<Vec<SessionReport>, DebugError>>),
}

/// Per-member admission: validate and instantiate each member against
/// the loaded memory image, settling failures into their result slots.
/// Returns the admitted members, the pass's timing batch (each admitted
/// member's configurations, in member order) and the results.
#[allow(clippy::type_complexity)]
fn admit_members(
    members: &[(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)],
    mem: &Memory,
) -> (Vec<LiveObserver>, TimingBatch, Vec<Result<Vec<SessionReport>, DebugError>>) {
    let mut results: Vec<Result<Vec<SessionReport>, DebugError>> =
        members.iter().map(|_| Ok(Vec::new())).collect();
    let mut live: Vec<LiveObserver> = Vec::new();
    let mut cfgs: Vec<CpuConfig> = Vec::new();
    for (i, (backend, watchpoints, cpus)) in members.iter().enumerate() {
        let admitted = validate_watchpoints(watchpoints)
            .and_then(|()| validate_configs(cpus))
            .and_then(|()| backend.instantiate_observer(watchpoints));
        match admitted {
            Ok(observer) => {
                let watch = WatchState::new(watchpoints, mem);
                let filter = observer.filter(&watch, mem);
                let slots = cfgs.len()..cfgs.len() + cpus.len();
                cfgs.extend_from_slice(cpus);
                live.push(LiveObserver {
                    member: i,
                    observer,
                    watch,
                    filter,
                    slots,
                    stats: TransitionStats::default(),
                });
            }
            Err(e) => results[i] = Err(e),
        }
    }
    (live, TimingBatch::new(&cfgs), results)
}

/// Admission for an observer batch, live or replayed. A live pass loads
/// the shared machine (counted even if every member then fails) and
/// ticks `FUNCTIONAL_PASSES` once some member is admitted, as does a
/// recording's `TRACE_RECORDS`. A replay opens and fully validates the
/// trace (magic, version, CRCs, fingerprint against the prepared
/// program — every corruption class surfaces here as
/// [`DebugError::Trace`]) and restores the shadow memory from the
/// prepared image; it ticks only `TRACE_REPLAYS`, because nothing
/// executes and no machine is loaded.
fn admit_observe(spec: ObserveSpec) -> Result<Admitted, DebugError> {
    let prepared = spec.app.prepared()?;
    let mut source = match &spec.trace {
        Trace::Replay(path) => {
            let reader = Box::new(TraceReader::open(path, Some(prepared.fingerprint()))?);
            let mem = prepared.memory();
            Source::Replay { reader, mem, exhausted: false, failure: None }
        }
        Trace::Off | Trace::Record(_) => {
            // The executor's configuration only matters functionally
            // through its DISE engine capacities, and no observer
            // installs productions; any member's configuration (or the
            // default) loads the same machine.
            let cfg = spec
                .members
                .iter()
                .find_map(|(.., cpus)| cpus.first())
                .copied()
                .unwrap_or_default();
            let exec = prepared.executor(cfg);
            IMAGE_LOADS.fetch_add(1, Ordering::Relaxed);
            Source::Live { exec: Box::new(exec), writer: None }
        }
    };
    let (live, timings, results) = admit_members(&spec.members, source.mem());
    if live.is_empty() {
        // No pass runs, so nothing is recorded either: a group that
        // settles at admission stays settled — and cold — forever.
        return Ok(Admitted::Settled(results));
    }
    match &mut source {
        Source::Live { writer, .. } => {
            if let Trace::Record(path) = &spec.trace {
                *writer = Some(Box::new(TraceWriter::create(path, prepared.fingerprint())?));
                TRACE_RECORDS.fetch_add(1, Ordering::Relaxed);
            }
            FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        Source::Replay { .. } => {
            TRACE_REPLAYS.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(Admitted::Live(Box::new(ObserveRun {
        source,
        live,
        fan: FanOut::new(timings),
        results,
        error: None,
        text_bytes: prepared.text_bytes(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WatchExpr;
    use dise_asm::{parse_asm, Layout};
    use dise_isa::Width;

    fn app(iters: u32) -> Application {
        let src = format!(
            "start:  la r1, watched
                     lda r4, {iters}(zero)
             loop:   .stmt
                     stq r4, 0(r1)
                     subq r4, 1, r4
                     bgt r4, loop
                     halt
             .data
             watched: .quad 0
            "
        );
        Application::new(parse_asm(&src).unwrap(), Layout::default())
    }

    fn wp(app: &Application) -> Watchpoint {
        let addr = app.program().unwrap().symbol("watched").unwrap();
        Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
    }

    /// Scheduler workers hand tasks across threads between slices.
    #[test]
    fn session_tasks_are_send() {
        fn is_send<T: Send>() {}
        is_send::<SessionTask>();
        is_send::<TaskOutput>();
        is_send::<Step>();
    }

    /// The tentpole invariant: any budget slicing yields byte-identical
    /// reports to the run-to-completion path, for a batch and an
    /// observer batch.
    #[test]
    fn sliced_polls_match_run_to_completion_for_every_shape() {
        let a = app(20);
        let cpus = [CpuConfig::default(), CpuConfig { commit_width: 2, ..CpuConfig::default() }];
        let budgets = [1u64, 7, 23, 97, 512];

        let reference_batch =
            SessionTask::batch(&a, vec![wp(&a)], BackendKind::dise_default(), &cpus)
                .run_to_completion()
                .into_batch()
                .unwrap();
        let members = vec![(BackendKind::VirtualMemory, vec![wp(&a)], cpus.to_vec())];
        let reference_obs =
            SessionTask::observer(&a, members.clone()).run_to_completion().into_observe().unwrap();

        for budget in budgets {
            let mut task = SessionTask::batch(&a, vec![wp(&a)], BackendKind::dise_default(), &cpus);
            let out = poll_until_done(&mut task, budget);
            assert_eq!(out.into_batch().unwrap(), reference_batch, "batch, budget {budget}");

            let mut task = SessionTask::observer(&a, members.clone());
            let out = poll_until_done(&mut task, budget);
            assert_eq!(out.into_observe().unwrap(), reference_obs, "observe, budget {budget}");
        }
    }

    fn poll_until_done(task: &mut SessionTask, budget: u64) -> TaskOutput {
        let mut yields = 0u64;
        loop {
            match task.poll(budget) {
                Step::Done(out) => {
                    assert!(yields > 0 || budget >= task.progress(), "small budgets must yield");
                    return out;
                }
                Step::Yielded(p) => {
                    yields += 1;
                    assert_eq!(p.instructions, task.progress());
                }
            }
        }
    }

    /// Progress is monotone and counts real retired instructions.
    #[test]
    fn progress_tracks_retired_instructions() {
        let a = app(10);
        let mut task = SessionTask::session(
            &a,
            vec![wp(&a)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        );
        let mut last = 0;
        loop {
            match task.poll(16) {
                Step::Yielded(p) => {
                    assert!(p.instructions > last, "each slice makes progress");
                    assert!(p.instructions <= last + 16, "never exceeds the budget");
                    last = p.instructions;
                }
                Step::Done(out) => {
                    let reports = out.into_batch().unwrap();
                    assert_eq!(reports[0].run.instructions, task.progress());
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "polled after completion")]
    fn polling_a_finished_task_panics() {
        let a = app(2);
        let mut task = SessionTask::session(
            &a,
            vec![wp(&a)],
            BackendKind::VirtualMemory,
            CpuConfig::default(),
        );
        while !matches!(task.poll(u64::MAX), Step::Done(_)) {}
        let _ = task.poll(1);
    }

    /// Every admission outcome of a batch, under an observing and a
    /// perturbing backend: reports, an empty batch, mismatched engines,
    /// invalid watchpoints and watchpoints the backend cannot implement.
    #[test]
    fn batch_settles_each_admission_outcome() {
        let a = app(12);
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let scalar = wp(&a);
        let empty_range = Watchpoint::new(WatchExpr::Range { base: addr, len: 0 });
        let range = Watchpoint::new(WatchExpr::Range { base: addr, len: 16 });
        let indirect = Watchpoint::new(WatchExpr::Indirect { ptr: addr, width: Width::Q });
        let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 64;
        let inline = BackendKind::Dise(crate::DiseStrategy::evaluate_inline(true));
        let cases = [
            (BackendKind::VirtualMemory, scalar, vec![CpuConfig::default(), cheap], "reports"),
            (inline, scalar, vec![CpuConfig::default(), cheap], "reports"),
            (BackendKind::VirtualMemory, scalar, vec![], "empty"),
            (inline, scalar, vec![], "empty"),
            (BackendKind::VirtualMemory, scalar, vec![CpuConfig::default(), small], "mismatch"),
            (inline, scalar, vec![CpuConfig::default(), small], "mismatch"),
            (BackendKind::VirtualMemory, empty_range, vec![CpuConfig::default()], "invalid"),
            (inline, empty_range, vec![CpuConfig::default()], "invalid"),
            (BackendKind::VirtualMemory, indirect, vec![CpuConfig::default()], "unsupported"),
            (inline, range, vec![CpuConfig::default()], "unsupported"),
        ];
        for (backend, w, cpus, what) in cases {
            let batch =
                SessionTask::batch(&a, vec![w], backend, &cpus).run_to_completion().into_batch();
            match what {
                "reports" => assert_eq!(batch.unwrap().len(), cpus.len(), "{backend:?}"),
                "empty" => assert_eq!(batch, Ok(Vec::new()), "{backend:?}"),
                "mismatch" => assert_eq!(batch, Err(DebugError::MismatchedEngines)),
                "invalid" => assert!(matches!(batch, Err(DebugError::InvalidWatchpoint { .. }))),
                _ => assert!(matches!(batch, Err(DebugError::Unsupported { .. })), "{batch:?}"),
            }
        }
    }

    /// A machine the timing model cannot honour settles at admission as
    /// [`DebugError::InvalidConfig`], naming `field`: the whole batch of
    /// a private task, and only its own member in an observer pass,
    /// whose other member still runs.
    fn assert_refused(field: &str, bad: CpuConfig) {
        let a = app(12);
        let d = CpuConfig::default();
        let refused = |r: Result<Vec<SessionReport>, DebugError>| match r {
            Err(DebugError::InvalidConfig(e)) => e.field == field,
            _ => false,
        };
        for backend in [BackendKind::VirtualMemory, BackendKind::dise_default()] {
            let batch = SessionTask::batch(&a, vec![wp(&a)], backend, &[d, bad])
                .run_to_completion()
                .into_batch();
            assert!(refused(batch), "{field}: batch under {backend:?}");
        }
        let members = vec![
            (BackendKind::VirtualMemory, vec![wp(&a)], vec![bad]),
            (BackendKind::VirtualMemory, vec![wp(&a)], vec![d]),
        ];
        let out = SessionTask::observer(&a, members).run_to_completion().into_observe();
        let [first, second] = <[_; 2]>::try_from(out.unwrap()).unwrap();
        assert!(refused(first), "{field}: its observer member");
        assert_eq!(second.unwrap().len(), 1, "{field}: the other member runs");
    }

    #[test]
    fn zero_width_is_refused() {
        assert_refused("width", CpuConfig { width: 0, ..CpuConfig::default() });
    }

    #[test]
    fn zero_commit_width_is_refused() {
        assert_refused("commit_width", CpuConfig { commit_width: 0, ..CpuConfig::default() });
    }

    #[test]
    fn empty_rob_is_refused() {
        assert_refused("rob_entries", CpuConfig { rob_entries: 0, ..CpuConfig::default() });
    }

    #[test]
    fn empty_rs_is_refused() {
        assert_refused("rs_entries", CpuConfig { rs_entries: 0, ..CpuConfig::default() });
    }

    #[test]
    fn zero_mem_ports_is_refused() {
        assert_refused("mem_ports", CpuConfig { mem_ports: 0, ..CpuConfig::default() });
    }

    #[test]
    fn transition_cost_past_the_bound_is_refused() {
        let cost = CpuConfig::MAX_TRANSITION_COST + 1;
        assert_refused(
            "debugger_transition_cost",
            CpuConfig { debugger_transition_cost: cost, ..CpuConfig::default() },
        );
    }

    /// An invalid watchpoint settles a task at admission, identically
    /// to the eager path.
    #[test]
    fn admission_errors_settle_the_task() {
        let a = app(3);
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let bad = Watchpoint::new(WatchExpr::Range { base: addr, len: 0 });
        let mut task =
            SessionTask::session(&a, vec![bad], BackendKind::VirtualMemory, CpuConfig::default());
        match task.poll(u64::MAX) {
            Step::Done(out) => {
                assert!(matches!(out.into_batch(), Err(DebugError::InvalidWatchpoint { .. })));
            }
            _ => panic!("invalid watchpoints settle at the first poll"),
        }
    }
}
