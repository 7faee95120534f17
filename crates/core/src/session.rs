//! Debugging sessions: drive the machine under a backend, classify and
//! charge debugger transitions.
//!
//! Watchpoint, breakpoint and monitor sessions alike are backends of
//! one private pass, stepped by [`drive`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use dise_asm::AsmError;
use dise_cpu::{
    CpuConfig, Event, Exec, ExecError, Executor, Machine, RunStats, Timing, TimingBatch,
};
use dise_engine::EngineError;
use dise_trace::TraceError;

use crate::backend::BackendImpl;
use crate::task::{admit_group, Pass, SessionTask};
use crate::{Application, BackendKind, TransitionStats, WatchExpr, WatchState, Watchpoint};

/// Functional session passes driven since process start (one per
/// driven `Executor` run: lone sessions, timing batches, perturbing
/// sub-batches and shared observer passes each count once). See
/// [`functional_passes`].
pub(crate) static FUNCTIONAL_PASSES: AtomicU64 = AtomicU64::new(0);

/// Total functional session passes executed by this process — one per
/// [`Session`] (counted on its first drive, so a session that is built
/// and never run counts none), one per [`SessionTask::batch`] (however
/// many timing configurations it accounts), one per perturbing
/// sub-batch, and one per [`ObserverBatch`] run (however many
/// watchpoint sets × backends × timing configurations share it).
/// Undebugged baselines are not counted.
///
/// This is instrumentation for the execution-count assertions that
/// prove grids share functional passes instead of re-executing per
/// cell; compare *deltas*, as the counter is process-global.
pub fn functional_passes() -> u64 {
    FUNCTIONAL_PASSES.load(Ordering::Relaxed)
}

/// Program images instantiated into a machine since process start (one
/// per session machine made through any entry point). See
/// [`image_loads`].
pub(crate) static IMAGE_LOADS: AtomicU64 = AtomicU64::new(0);

/// Total program images instantiated into a fresh machine by this
/// process — one per machine: per [`Session`], per
/// [`SessionTask::batch`], per sub-batch of a
/// [`SessionTask::perturbing_group`] (a K-sub-batch group counts K) and
/// per live [`ObserverBatch`] pass. Instantiation restores the
/// application's prepared image, or the backend's image built once per
/// group, copy-on-write; preparing it (assembling and loading, once per
/// application — see [`Application::prepared`]) is not counted, and
/// neither are undebugged baselines. Like [`functional_passes`], this
/// is instrumentation for execution-count pins; compare deltas.
pub fn image_loads() -> u64 {
    IMAGE_LOADS.load(Ordering::Relaxed)
}

/// Always 0. Session machines are made one way only — by restoring an
/// image copy-on-write, counted by [`image_loads`] — so no machine is
/// forked off a template any more. Kept because the benchmark harness
/// reports this counter.
pub fn checkpoint_forks() -> u64 {
    0
}

/// Errors establishing or running a debugging session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DebugError {
    /// Assembly of the (possibly transformed) application failed.
    Asm(AsmError),
    /// DISE production installation failed.
    Engine(EngineError),
    /// The chosen backend cannot implement the requested watchpoints —
    /// the paper's "no experiment" bars (e.g. INDIRECT under virtual
    /// memory).
    Unsupported {
        /// Which backend.
        backend: &'static str,
        /// Why.
        reason: String,
    },
    /// The watchpoint specification itself is ill-formed under *every*
    /// backend — e.g. a conditional `Range` watchpoint, whose non-scalar
    /// value has no defined comparison against the predicate constant.
    /// Rejected up front so the session cannot silently never fire.
    InvalidWatchpoint {
        /// Why.
        reason: String,
    },
    /// The configurations of one batch (or perturbing sub-batch)
    /// disagree on the DISE engine capacities, so they would execute
    /// different functional streams and cannot share one pass. Settles
    /// the batch at admission rather than running any of it.
    MismatchedEngines,
    /// A persistent `Exec` trace was rejected: stale (fingerprint
    /// mismatch), corrupt (CRC/framing), truncated, unreadable, or the
    /// wrong format version. Replays fail loudly here rather than ever
    /// replaying silently wrong — see [`dise_trace::TraceError`] for
    /// the per-class breakdown.
    Trace(TraceError),
    /// The task's pass panicked — a simulator bug, never a property of
    /// the session's data. The scheduler catches the panic on its
    /// worker and settles the task with its message, so the rest of
    /// the drain carries on.
    Panicked(String),
}

impl fmt::Display for DebugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebugError::Asm(e) => write!(f, "assembly failed: {e}"),
            DebugError::Engine(e) => write!(f, "production installation failed: {e}"),
            DebugError::Unsupported { backend, reason } => {
                write!(f, "{backend} cannot implement the watchpoints: {reason}")
            }
            DebugError::InvalidWatchpoint { reason } => {
                write!(f, "invalid watchpoint: {reason}")
            }
            DebugError::MismatchedEngines => write!(
                f,
                "batched configurations disagree on the DISE engine capacities and cannot \
                 share one functional pass"
            ),
            DebugError::Trace(e) => write!(f, "trace store rejected: {e}"),
            DebugError::Panicked(msg) => write!(f, "session panicked: {msg}"),
        }
    }
}

impl std::error::Error for DebugError {}

impl From<AsmError> for DebugError {
    fn from(e: AsmError) -> DebugError {
        DebugError::Asm(e)
    }
}

impl From<TraceError> for DebugError {
    fn from(e: TraceError) -> DebugError {
        DebugError::Trace(e)
    }
}

/// Results of a debugging session.
#[derive(Clone, PartialEq, Debug)]
pub struct SessionReport {
    /// Machine-level statistics (cycles include debugger stalls).
    pub run: RunStats,
    /// Transition taxonomy counts.
    pub transitions: TransitionStats,
    /// Terminal execution error, if the application misbehaved.
    pub error: Option<ExecError>,
    /// Static code size of the image that ran (bytes) — grows under
    /// binary rewriting.
    pub text_bytes: u64,
}

impl SessionReport {
    /// Execution time normalised to an undebugged baseline — the y-axis
    /// of Figs. 3–9.
    pub fn overhead_vs(&self, baseline: &RunStats) -> f64 {
        self.run.cycles as f64 / baseline.cycles.max(1) as f64
    }
}

/// Run the application undebugged: the baseline denominator for every
/// experiment.
///
/// # Errors
///
/// Propagates assembly failures.
pub fn run_baseline(app: &Application, cpu: CpuConfig) -> Result<RunStats, DebugError> {
    let exec = app.prepared()?.executor(cpu);
    Ok(Machine { exec, timing: Timing::new(cpu) }.run())
}

/// Run one complete debugging session and return its report — the
/// `Send`-able entry point job-grid runners hand to worker threads
/// (every argument and the result are plain data): exactly
/// [`SessionTask::session`] run to completion.
///
/// # Errors
///
/// As [`Session::with_config`].
pub fn run_session(
    app: &Application,
    watchpoints: Vec<Watchpoint>,
    backend: BackendKind,
    cpu: CpuConfig,
) -> Result<SessionReport, DebugError> {
    SessionTask::session(app, watchpoints, backend, cpu)
        .run_to_completion()
        .into_batch()
        .map(|mut reports| reports.pop().expect("a session task is a batch of one"))
}

/// Reject watchpoint specifications that no backend can give meaning
/// to, so they fail loudly at session setup instead of silently never
/// firing (`Condition` compares scalars; a `Range` value is a byte
/// snapshot) or overflowing an address computation (a `Range` whose
/// end lies past `u64::MAX`).
pub(crate) fn validate_watchpoints(wps: &[Watchpoint]) -> Result<(), DebugError> {
    for w in wps {
        if w.condition.is_some() && matches!(w.expr, WatchExpr::Range { .. }) {
            return Err(DebugError::InvalidWatchpoint {
                reason: "a conditional watchpoint needs a scalar expression; a range's value \
                         is a byte snapshot with no defined comparison against the predicate \
                         constant (watch a scalar element instead)"
                    .to_string(),
            });
        }
        if matches!(w.expr, WatchExpr::Range { len: 0, .. }) {
            return Err(DebugError::InvalidWatchpoint {
                reason: "a range watchpoint watches no bytes (len == 0) and could never fire"
                    .to_string(),
            });
        }
        // `len > 0` here, so `base + len - 1` is the last watched byte: a
        // range may end exactly at the top of the address space.
        if matches!(w.expr, WatchExpr::Range { base, len } if base.checked_add(len - 1).is_none()) {
            return Err(DebugError::InvalidWatchpoint {
                reason: "a range watchpoint runs past the top of the address space".to_string(),
            });
        }
    }
    Ok(())
}

/// A session batch sharing **one functional pass per workload**: the
/// generalisation of [`SessionTask::batch`] (one backend, N timing
/// configurations) to W watchpoint sets × N *observing* backends × M
/// timing configurations each. The scenario key is the application
/// alone — each member carries its **own** watchpoint set, value
/// bookkeeping ([`WatchState`]) and replayable detector, so one `Exec`
/// stream of the unmodified application serves every combination.
///
/// An observing backend (see [`BackendKind::observation_only`]) reads
/// architectural state but never changes what the application fetches
/// or executes — and its watchpoints influence only what the *debugger*
/// traps on, never what the application runs — so the functional stream
/// is exactly the unmodified application's for every (backend,
/// watchpoint set) member, and therefore shareable across all of them.
/// `ObserverBatch` runs the application once and fans every `Exec`
/// record out to each member's detector and timing models; member `i`'s
/// entry `j` is bit-identical to
/// `run_session(app, watchpoints[i], backend[i], cpus[i][j])` run on
/// its own (enforced by the cross-backend conformance suite and the
/// grid determinism tests).
///
/// Perturbing backends (single-stepping, binary rewriting, DISE
/// production injection) never join the pass: their members settle as
/// [`DebugError::Unsupported`] at [`ObserverBatch::run`], and they keep
/// their private replay through [`SessionTask::batch`]. To record
/// the shared pass to a trace, or replay it from one, use
/// [`SessionTask::observer_recorded`] / [`SessionTask::observer_replay`].
///
/// ```
/// use dise_asm::{parse_asm, Layout};
/// use dise_cpu::CpuConfig;
/// use dise_debug::{Application, BackendKind, ObserverBatch, WatchExpr, Watchpoint};
/// use dise_isa::Width;
///
/// let app = Application::new(parse_asm("
///     start:  la r1, x
///             la r3, y
///             lda r2, 7(zero)
///             stq r2, 0(r1)
///             stq r2, 0(r3)
///             halt
///     .data
///     x: .quad 0
///     y: .quad 7
/// ").unwrap(), Layout::default());
/// let x = app.prepared()?.symbol("x").unwrap();
/// let y = app.prepared()?.symbol("y").unwrap();
/// let wx = Watchpoint::new(WatchExpr::Scalar { addr: x, width: Width::Q });
/// let wy = Watchpoint::new(WatchExpr::Scalar { addr: y, width: Width::Q });
///
/// let mut batch = ObserverBatch::new(&app);
/// batch.member(BackendKind::VirtualMemory, vec![wx], vec![CpuConfig::default()]);
/// batch.member(BackendKind::hw4(), vec![wy], vec![CpuConfig::default()]);
/// let results = batch.run()?; // one execution, two backends, two watchpoint sets
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].as_ref().unwrap()[0].transitions.user, 1, "x changed");
/// assert_eq!(results[1].as_ref().unwrap()[0].transitions.user, 0, "y stayed 7");
/// # Ok::<(), dise_debug::DebugError>(())
/// ```
pub struct ObserverBatch<'a> {
    app: &'a Application,
    /// Each member's observing backend, its own watchpoint set, and the
    /// timing configurations to account it under.
    members: Vec<(BackendKind, Vec<Watchpoint>, Vec<CpuConfig>)>,
}

impl<'a> ObserverBatch<'a> {
    /// An empty batch over one application (the per-workload scenario).
    pub fn new(app: &'a Application) -> ObserverBatch<'a> {
        ObserverBatch { app, members: Vec::new() }
    }

    /// Add an observing backend with its own watchpoint set, to be
    /// accounted under each of `cpus`.
    ///
    /// The DISE engine capacities in `cpus` are irrelevant here — no
    /// member installs productions, so unlike [`SessionTask::batch`] the
    /// configurations need not agree on [`CpuConfig::engine`].
    /// Watchpoint validation and backend admission are per-member and
    /// happen at [`ObserverBatch::run`], so one member's ill-formed or
    /// unsupported set never blocks the others. A perturbing `backend`
    /// (see [`BackendKind::observation_only`]) would change the stream
    /// every member reads, so it never joins the pass: its member
    /// settles as [`DebugError::Unsupported`].
    pub fn member(
        &mut self,
        backend: BackendKind,
        watchpoints: Vec<Watchpoint>,
        cpus: Vec<CpuConfig>,
    ) -> &mut ObserverBatch<'a> {
        self.members.push((backend, watchpoints, cpus));
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members have been added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Run the single shared functional pass and scatter it: one result
    /// per member, in [`ObserverBatch::member`] order; a member's
    /// reports are in its `cpus` order.
    ///
    /// # Errors
    ///
    /// The outer `Err` is scenario-wide — the application failed to
    /// assemble, so no member could run. Everything watchpoint-shaped is
    /// per-member: an ill-formed set ([`DebugError::InvalidWatchpoint`])
    /// or an unimplementable one ([`DebugError::Unsupported`], e.g.
    /// INDIRECT under virtual memory, or any set under a perturbing
    /// backend) fails that member alone, exactly
    /// as if each had been run on its own, and the rest still share the
    /// pass.
    pub fn run(self) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        SessionTask::observer(self.app, self.members).run_to_completion().into_observe()
    }
}

/// The per-record session loop behind every private pass ([`Session`],
/// [`SessionTask::batch`], perturbing sub-batches, breakpoint and
/// monitor sessions): one functional pass through `exec` and `backend`,
/// fanned out to every timing model in `timings`, one record at a time.
/// Returns the terminal execution error, if any. Because it dispatches
/// each record as it retires, it is also the plain reference the
/// chunked observer fan-out is tested against.
///
/// Callers count one functional pass per admitted run themselves
/// ([`FUNCTIONAL_PASSES`]) — `drive` may legally be called many times
/// on one session (budgeted stepping) without the session
/// executing more than one pass.
pub(crate) fn drive(
    exec: &mut Executor,
    timings: &mut TimingBatch,
    backend: &mut dyn BackendImpl,
    watch: &mut WatchState,
    stats: &mut TransitionStats,
    max_instructions: u64,
) -> Option<ExecError> {
    let mut error = None;
    let mut n = 0u64;
    let mut e = Exec::default();
    while !exec.is_halted() && n < max_instructions {
        exec.step_into(&mut e);
        n += 1;
        timings.consume(&e);
        if let Some(t) = backend.observe(&e, exec, watch, stats) {
            stats.count(t);
            if t.is_spurious() {
                // A spurious transition is a full application→debugger→
                // application round trip perceived as latency; user
                // transitions are masked (zero cost). Each model charges
                // its own configured cost.
                timings.debugger_stall();
            }
        }
        if let Some(Event::Error(err)) = e.event {
            error = Some(err);
        }
    }
    error
}

/// An interactive debugging session: an application, a set of
/// watchpoints, and a backend implementing them — or breakpoints
/// ([`Session::breakpoints`]) or a monitor ([`Session::monitor`]).
///
/// Internally this is exactly a [`SessionTask::session`]: the same
/// admission builds the same pass — the functional machine and a
/// [`TimingBatch`] holding a single model — and the same loop drives
/// it, so interactive and scheduled runs cannot drift apart.
pub struct Session {
    pass: Pass,
    /// One functional pass is counted per session, on its first drive,
    /// however many times it is driven.
    counted: bool,
}

impl Session {
    /// Create a session with the paper's default machine configuration.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot implement the watchpoints, when
    /// static transformation fails, or when productions exceed the DISE
    /// engine's capacity.
    pub fn new(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
    ) -> Result<Session, DebugError> {
        Session::with_config(app, watchpoints, backend, CpuConfig::default())
    }

    /// Create a session with an explicit machine configuration.
    ///
    /// # Errors
    ///
    /// As [`Session::new`].
    pub fn with_config(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpu: CpuConfig,
    ) -> Result<Session, DebugError> {
        Session::admit(app, watchpoints, backend.instantiate(), cpu)
    }

    pub(crate) fn admit(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: Box<dyn BackendImpl>,
        cpu: CpuConfig,
    ) -> Result<Session, DebugError> {
        // The session is its group's only pass, started here.
        let pass = admit_group(app, watchpoints, backend, Vec::new())?
            .start(&[cpu])?
            .expect("a one-configuration batch always admits a pass");
        Ok(Session { pass, counted: false })
    }

    /// Direct access to the machine (for examples that poke at state).
    pub fn executor(&self) -> &Executor {
        &self.pass.exec
    }

    /// True once the machine has halted (or faulted).
    pub fn is_halted(&self) -> bool {
        self.pass.exec.is_halted() || self.pass.error.is_some()
    }

    /// Drive the session by at most `budget` further dynamic
    /// instructions, returning `true` while there is more to run.
    /// Repeated calls are byte-identical to one big call — all state
    /// persists across calls — and the whole session still counts as
    /// *one* functional pass.
    pub fn run_budget(&mut self, budget: u64) -> bool {
        if !self.counted {
            self.counted = true;
            FUNCTIONAL_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        self.pass.drive_budget(budget);
        !self.is_halted()
    }

    /// The session's report so far, without consuming the session —
    /// cycle accounting is cloned and finalised at the current point.
    /// After the machine halts this equals what [`Session::run`] would
    /// have returned.
    pub fn report(&self) -> SessionReport {
        let p = &self.pass;
        let run = p.timings.clone().finish().pop().expect("session batch holds one model");
        SessionReport { run, transitions: p.stats, error: p.error, text_bytes: p.text_bytes }
    }

    /// Run to completion.
    pub fn run(self) -> SessionReport {
        self.run_with_state().0
    }

    /// Run to completion and also hand back the final machine, so
    /// callers can inspect architectural state (used to verify that
    /// debugging does not perturb the application).
    pub fn run_with_state(mut self) -> (SessionReport, Executor) {
        self.run_budget(u64::MAX);
        (self.report(), self.pass.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, Condition, DiseStrategy, WatchExpr, Watchpoint};
    use dise_asm::{parse_asm, Layout};
    use dise_isa::Width;

    /// A loop that stores a changing value to `watched`, a constant
    /// (silent after the first) to `silent`, and a changing value to
    /// `neighbor` (same page as `watched`, never watched).
    fn app(iters: u32) -> Application {
        let src = format!(
            "start:  la r1, watched
                     la r2, silent
                     la r3, neighbor
                     lda r4, {iters}(zero)
             loop:   .stmt
                     stq r4, 0(r3)      # unwatched neighbor (same page)
                     stq r31, 0(r2)     # silent store to watched quad
                     stq r4, 0(r1)      # changes watched value
                     subq r4, 1, r4
                     bgt r4, loop
                     halt
             .data
             watched:  .quad 0
             silent:   .quad 0
             neighbor: .quad 0
            "
        );
        Application::new(parse_asm(&src).unwrap(), Layout::default())
    }

    fn scalar_wp(app: &Application, sym: &str) -> Watchpoint {
        let addr = app.program().unwrap().symbol(sym).unwrap();
        Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
    }

    /// The grid runners in `dise-bench` ship sessions to worker
    /// threads: everything [`run_session`] consumes or produces must
    /// stay `Send + Sync`.
    #[test]
    fn session_grid_surface_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Application>();
        send_sync::<Watchpoint>();
        send_sync::<BackendKind>();
        send_sync::<CpuConfig>();
        send_sync::<SessionReport>();
        send_sync::<DebugError>();
    }

    #[test]
    fn baseline_runs_clean() {
        let a = app(10);
        let b = run_baseline(&a, CpuConfig::default()).unwrap();
        assert!(b.cycles > 0);
        assert!(b.instructions > 50);
    }

    #[test]
    fn dise_reports_every_change_with_no_spurious_transitions() {
        let a = app(10);
        let wp = scalar_wp(&a, "watched");
        let r = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(r.error, None);
        assert_eq!(r.transitions.user, 10, "one change per iteration");
        assert_eq!(r.transitions.spurious_total(), 0);
        assert_eq!(r.run.debugger_stalls, 0);
    }

    #[test]
    fn dise_prunes_silent_stores_in_application() {
        let a = app(10);
        let wp = scalar_wp(&a, "silent");
        let r = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        // The handler is called for each store to the watched quad, but
        // the value never changes after initialisation: no transitions.
        assert_eq!(r.transitions.user, 0);
        assert_eq!(r.transitions.spurious_total(), 0);
        assert!(r.transitions.handler_calls >= 10);
    }

    #[test]
    fn virtual_memory_pays_for_page_sharing() {
        let a = app(10);
        let wp = scalar_wp(&a, "watched");
        let r = Session::new(&a, vec![wp], BackendKind::VirtualMemory).unwrap().run();
        assert_eq!(r.transitions.user, 10);
        // The neighbor and silent-target stores share the page but do
        // not touch the watched variable: spurious address transitions.
        assert_eq!(r.transitions.spurious_address, 20, "same-page stores");
        assert_eq!(r.run.debugger_stalls, 20);
        assert!(r.run.cycles > 20 * 100_000);
    }

    #[test]
    fn hardware_registers_pay_only_for_silent_stores() {
        let a = app(10);
        let wp = scalar_wp(&a, "silent");
        let r = Session::new(&a, vec![wp], BackendKind::hw4()).unwrap().run();
        // Quad comparators: neighbor stores don't match; stores to the
        // watched quad never change the value → all spurious value.
        assert_eq!(r.transitions.user, 0);
        assert_eq!(r.transitions.spurious_address, 0);
        assert_eq!(r.transitions.spurious_value, 10);
    }

    #[test]
    fn single_stepping_transitions_every_statement() {
        let a = app(10);
        let wp = scalar_wp(&a, "watched");
        let r = Session::new(&a, vec![wp], BackendKind::SingleStep).unwrap().run();
        // One statement marker per iteration. The debugger sees each
        // iteration's change at the *next* statement boundary, so the
        // first boundary (nothing changed yet) is spurious and the last
        // change is never observed: 9 user + 1 spurious address.
        assert_eq!(r.transitions.total(), 10);
        assert_eq!(r.transitions.user, 9);
        assert_eq!(r.transitions.spurious_address, 1);
    }

    #[test]
    fn single_stepping_spurious_when_nothing_changes() {
        let a = app(10);
        let wp = scalar_wp(&a, "neighbor");
        // Watch the neighbor but make it the *silent* target: watch a
        // variable the loop never changes.
        let quiet = {
            let addr = a.program().unwrap().symbol("silent").unwrap();
            Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
        };
        let _ = wp;
        let r = Session::new(&a, vec![quiet], BackendKind::SingleStep).unwrap().run();
        assert_eq!(r.transitions.user, 0);
        assert_eq!(r.transitions.spurious_address, 10);
        assert!(r.run.cycles > 10 * 100_000);
    }

    #[test]
    fn conditional_watchpoints_spurious_predicates() {
        let a = app(10);
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let wp = Watchpoint::conditional(
            WatchExpr::Scalar { addr, width: Width::Q },
            Condition::equals(u64::MAX), // never true
        );
        // Hardware registers: every change transitions, predicate always
        // false → spurious predicate transitions.
        let r = Session::new(&a, vec![wp], BackendKind::hw4()).unwrap().run();
        assert_eq!(r.transitions.user, 0);
        assert_eq!(r.transitions.spurious_predicate, 10);

        // DISE evaluates the predicate in the generated function: no
        // transitions at all.
        let r = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(r.transitions.total(), 0);
        assert_eq!(r.run.debugger_stalls, 0);
    }

    #[test]
    fn binary_rewrite_matches_dise_semantics_with_bigger_text() {
        let a = app(10);
        let wp = scalar_wp(&a, "watched");
        let dise = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        let bw = Session::new(&a, vec![wp], BackendKind::BinaryRewrite).unwrap().run();
        assert_eq!(bw.error, None);
        assert_eq!(bw.transitions.user, dise.transitions.user);
        assert_eq!(bw.transitions.spurious_total(), 0);
        assert!(
            bw.text_bytes > dise.text_bytes,
            "rewriting bloats the static image: {} vs {}",
            bw.text_bytes,
            dise.text_bytes
        );
    }

    #[test]
    fn all_dise_strategies_agree_on_user_events() {
        let a = app(10);
        let wp = scalar_wp(&a, "watched");
        for strategy in [
            DiseStrategy::default(),
            DiseStrategy::match_address_call(false),
            DiseStrategy::evaluate_inline(true),
            DiseStrategy::evaluate_inline(false),
            DiseStrategy::match_address_value(true),
            DiseStrategy::match_address_value(false),
            DiseStrategy::bloom(false),
            DiseStrategy::bloom(true),
            DiseStrategy { multithreaded_calls: true, ..DiseStrategy::default() },
            DiseStrategy { protect_debugger: true, ..DiseStrategy::default() },
        ] {
            let r = Session::new(&a, vec![wp], BackendKind::Dise(strategy)).unwrap().run();
            assert_eq!(r.error, None, "{strategy:?}");
            assert_eq!(r.transitions.user, 10, "{strategy:?}");
            assert_eq!(r.transitions.spurious_total(), 0, "{strategy:?}");
        }
    }

    #[test]
    fn indirect_watchpoint_works_under_dise_only() {
        let src = "start:  la r1, p
                           ldq r2, 0(r1)      # r2 = &target
                           lda r3, 5(zero)
                           stq r3, 0(r2)      # writes *p
                           la r4, other
                           ldq r5, 0(r4)
                           stq r5, 0(r1)      # repoint p to other
                           lda r3, 9(zero)
                           ldq r2, 0(r1)
                           stq r3, 0(r2)      # writes new *p
                           halt
                   .data
                   target: .quad 1
                   other_t:.quad 2
                   p:      .quad 0x01000000   # &target
                   other:  .quad 0x01000008   # &other_t
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let p = a.program().unwrap().symbol("p").unwrap();
        let wp = Watchpoint::new(WatchExpr::Indirect { ptr: p, width: Width::Q });

        let r = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(r.error, None);
        // *p changes twice: 1→5 at target, then (after repointing,
        // which re-references) 2→9 at other_t.
        assert_eq!(r.transitions.user, 2);
        assert_eq!(r.transitions.spurious_total(), 0);

        // Virtual memory and hardware registers must decline.
        assert!(matches!(
            Session::new(&a, vec![wp], BackendKind::VirtualMemory),
            Err(DebugError::Unsupported { .. })
        ));
        assert!(matches!(
            Session::new(&a, vec![wp], BackendKind::hw4()),
            Err(DebugError::Unsupported { .. })
        ));

        // The comparator organisation supports indirection (the
        // debugger reprograms the target pair on pointer writes). Its
        // repoint semantics are gdb's, not DISE's: repointing p changes
        // the *expression's* value 5→2, which the comparators report as
        // a third user transition where DISE's generated function
        // re-references silently.
        let cmp = Session::new(&a, vec![wp], BackendKind::DiseComparators).unwrap().run();
        assert_eq!(cmp.error, None);
        assert_eq!(cmp.transitions.user, 3, "{:?}", cmp.transitions);
        assert_eq!(cmp.transitions.spurious_total(), 0);
    }

    #[test]
    fn range_watchpoint_under_dise() {
        let src = "start:  la r1, arr
                           lda r2, 3(zero)
                           stq r2, 8(r1)     # arr[1] = 3
                           stq r2, 8(r1)     # silent
                           stq r2, 64(r1)    # outside the range
                           halt
                   .data
                   arr:    .space 32
                   beyond: .space 64
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let base = a.program().unwrap().symbol("arr").unwrap();
        let wp = Watchpoint::new(WatchExpr::Range { base, len: 32 });
        let r = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(r.error, None);
        assert_eq!(r.transitions.user, 1, "one real change inside the range");
        assert_eq!(r.transitions.spurious_total(), 0);
    }

    /// Regression: an 8-byte store that starts on the *last byte* of a
    /// range watchpoint straddles the range end — its quad also holds
    /// unwatched tail bytes. Changing only those tail bytes must not
    /// surface as a user transition, and changing the last watched byte
    /// still must.
    #[test]
    fn range_end_straddling_store_is_not_a_false_transition() {
        // Range [arr, arr+28): the last quad (arr+24) holds 4 unwatched
        // tail bytes (arr+28..arr+32). Both stq's start at arr+27 — the
        // last watched byte — and spill 7 bytes past the end.
        let src = "start:  la r1, arr
                           la r2, tailpat
                           ldq r3, 0(r2)
                           stq r3, 27(r1)   # only unwatched tail bytes change
                           la r2, change
                           ldq r3, 0(r2)
                           stq r3, 27(r1)   # now the last watched byte changes
                           halt
                   .data
                   arr:     .space 32
                   spill:   .space 8
                   tailpat: .quad 0x2B2B2B2B2B2B2B00
                   change:  .quad 0x2B2B2B2B2B2B2B11
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let base = a.program().unwrap().symbol("arr").unwrap();
        assert_eq!(base % 8, 0, "test assumes a quad-aligned array base");
        let wp = Watchpoint::new(WatchExpr::Range { base, len: 28 });

        let dise = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(dise.error, None);
        assert_eq!(
            dise.transitions.user, 1,
            "only the second store changes a watched byte: {:?}",
            dise.transitions
        );
        assert_eq!(dise.transitions.spurious_total(), 0);

        // Virtual memory agrees on what the user sees; its extra
        // classification work confirms the first store was a same-page
        // write that left the watched bytes alone.
        let vm = Session::new(&a, vec![wp], BackendKind::VirtualMemory).unwrap().run();
        assert_eq!(vm.transitions.user, 1);
        assert_eq!(vm.transitions.spurious_value, 1, "{:?}", vm.transitions);
    }

    /// Regression: an unaligned 8-byte store can span *two* quads of a
    /// range; a change that lands only in the second quad must still be
    /// reported (the handler used to inspect only the quad holding the
    /// store's first byte).
    #[test]
    fn range_interior_straddling_store_is_detected() {
        // Quad-aligned range [arr, arr+16). The stq at arr+4 writes
        // zeros over arr+4..arr+8 (silent) and 0x11s over
        // arr+8..arr+12 — the change is entirely in the second quad.
        let src = "start:  la r1, arr
                           la r2, pat
                           ldq r3, 0(r2)
                           stq r3, 4(r1)
                           halt
                   .data
                   arr:     .space 32
                   pat:     .quad 0x1111111100000000
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let base = a.program().unwrap().symbol("arr").unwrap();
        assert_eq!(base % 8, 0, "test assumes a quad-aligned array base");
        let wp = Watchpoint::new(WatchExpr::Range { base, len: 16 });

        let dise = Session::new(&a, vec![wp], BackendKind::dise_default()).unwrap().run();
        assert_eq!(dise.error, None);
        assert_eq!(dise.transitions.user, 1, "{:?}", dise.transitions);
        assert_eq!(dise.transitions.spurious_total(), 0);

        let vm = Session::new(&a, vec![wp], BackendKind::VirtualMemory).unwrap().run();
        assert_eq!(vm.transitions.user, 1, "VM agrees: {:?}", vm.transitions);
    }

    #[test]
    fn multiple_watchpoints_serial_and_bloom() {
        let a = app(6);
        let p = a.program().unwrap();
        let wps: Vec<Watchpoint> = ["watched", "silent", "neighbor"]
            .iter()
            .map(|s| {
                Watchpoint::new(WatchExpr::Scalar { addr: p.symbol(s).unwrap(), width: Width::Q })
            })
            .collect();
        for kind in [
            BackendKind::dise_default(),
            BackendKind::Dise(DiseStrategy::bloom(false)),
            BackendKind::Dise(DiseStrategy::bloom(true)),
        ] {
            let r = Session::new(&a, wps.clone(), kind).unwrap().run();
            assert_eq!(r.error, None, "{kind:?}");
            // watched and neighbor each change 6 times; a store may
            // change both expressions' values but transitions are
            // per-store: 12 changing stores.
            assert_eq!(r.transitions.user, 12, "{kind:?}");
            assert_eq!(r.transitions.spurious_total(), 0, "{kind:?}");
        }
    }

    #[test]
    fn protection_catches_wild_store() {
        // The application computes an address inside the debugger's
        // region and stores to it.
        let src = "start:  la r1, watched
                           lda r2, 1(zero)
                           stq r2, 0(r1)     # legitimate watched store
                           ldq r3, 0(r4)     # r4=0: read a zero
                           halt
                   .data
                   watched: .quad 0
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let wp = Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q });
        let strategy = DiseStrategy { protect_debugger: true, ..DiseStrategy::default() };
        let r = Session::new(&a, vec![wp], BackendKind::Dise(strategy)).unwrap().run();
        assert_eq!(r.error, None);
        assert_eq!(r.transitions.user, 1);
        assert_eq!(r.transitions.protection_violations, 0, "no wild stores here");
    }

    #[test]
    fn conditional_range_watchpoints_are_rejected_up_front() {
        // `Condition::holds` is false for every byte-snapshot value, so
        // `watch arr if arr == k` could never fire under any backend —
        // reject it loudly at setup instead (on every backend, batched
        // or not).
        let a = app(5);
        let base = a.program().unwrap().symbol("watched").unwrap();
        let wp = Watchpoint::conditional(WatchExpr::Range { base, len: 16 }, Condition::equals(3));
        for kind in [
            BackendKind::dise_default(),
            BackendKind::VirtualMemory,
            BackendKind::hw4(),
            BackendKind::SingleStep,
            BackendKind::BinaryRewrite,
        ] {
            assert!(
                matches!(
                    Session::new(&a, vec![wp], kind),
                    Err(DebugError::InvalidWatchpoint { .. })
                ),
                "{kind:?} must reject a conditional range watchpoint"
            );
        }
        assert!(matches!(
            run_batch(&a, vec![wp], BackendKind::dise_default(), &[CpuConfig::default()]),
            Err(DebugError::InvalidWatchpoint { .. })
        ));
        // An unconditional range is still fine.
        let plain = Watchpoint::new(WatchExpr::Range { base, len: 16 });
        assert!(Session::new(&a, vec![plain], BackendKind::dise_default()).is_ok());
    }

    #[test]
    fn zero_length_range_watchpoints_are_rejected_up_front() {
        // A `len == 0` range watches no bytes; before validation it
        // reached the DISE backend's boundary-mask arithmetic (a shift
        // by 64) instead of failing cleanly.
        let a = app(5);
        let base = a.program().unwrap().symbol("watched").unwrap();
        let wp = Watchpoint::new(WatchExpr::Range { base, len: 0 });
        for kind in [BackendKind::dise_default(), BackendKind::VirtualMemory] {
            assert!(
                matches!(
                    Session::new(&a, vec![wp], kind),
                    Err(DebugError::InvalidWatchpoint { .. })
                ),
                "{kind:?} must reject a zero-length range watchpoint"
            );
        }
    }

    /// A batch of size one must be indistinguishable from the unbatched
    /// session, report for report, across backends with and without
    /// spurious transitions.
    #[test]
    fn batch_of_one_matches_unbatched_session() {
        let a = app(8);
        let cpu = CpuConfig::default();
        for (kind, backend) in [
            ("watched", BackendKind::dise_default()),
            ("watched", BackendKind::VirtualMemory),
            ("silent", BackendKind::hw4()),
            ("watched", BackendKind::SingleStep),
        ] {
            let wp = scalar_wp(&a, kind);
            let lone = run_session(&a, vec![wp], backend, cpu).unwrap();
            let batch = run_batch(&a, vec![wp], backend, &[cpu]).unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].run, lone.run, "{backend:?}");
            assert_eq!(batch[0].transitions, lone.transitions, "{backend:?}");
            assert_eq!(batch[0].error, lone.error, "{backend:?}");
            assert_eq!(batch[0].text_bytes, lone.text_bytes, "{backend:?}");
        }
    }

    /// Every batch entry must equal its own unbatched run: per-config
    /// predictor, cache and window state is fully isolated, and each
    /// entry pays its own transition cost.
    #[test]
    fn batch_entries_match_their_unbatched_runs_and_stay_isolated() {
        let a = app(8);
        let wp = scalar_wp(&a, "watched");
        let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
        let narrow = CpuConfig { width: 1, commit_width: 1, ..CpuConfig::default() };
        let cpus = [CpuConfig::default(), cheap, narrow, CpuConfig::default()];
        // Virtual memory: plenty of spurious transitions to charge.
        let batch = run_batch(&a, vec![wp], BackendKind::VirtualMemory, &cpus).unwrap();
        assert_eq!(batch.len(), cpus.len());
        for (cpu, got) in cpus.iter().zip(&batch) {
            let lone = run_session(&a, vec![wp], BackendKind::VirtualMemory, *cpu).unwrap();
            assert_eq!(got.run, lone.run, "batch entry diverged for {cpu:?}");
        }
        assert_eq!(batch[0].run, batch[3].run, "identical configs agree despite neighbours");
        assert!(batch[1].run.cycles < batch[0].run.cycles, "cheaper transitions are visible");
        assert!(batch[2].run.cycles > batch[0].run.cycles, "narrow machine is slower");
    }

    /// Fig. 8's two cells (multithreaded DISE calls on/off) differ only
    /// in timing: after `split_timing` they share one functional pass.
    #[test]
    fn split_timing_folds_multithreading_into_the_batch() {
        let a = app(8);
        let wp = scalar_wp(&a, "watched");
        let cpu = CpuConfig::default();
        let mt = BackendKind::Dise(DiseStrategy {
            multithreaded_calls: true,
            ..DiseStrategy::default()
        });
        let (plain_split, plain_cpu) = BackendKind::dise_default().split_timing(cpu);
        let (mt_split, mt_cpu) = mt.split_timing(cpu);
        assert_eq!(plain_split, mt_split, "only the timing knob differed");
        assert!(mt_cpu.multithreaded_dise_calls && !plain_cpu.multithreaded_dise_calls);

        let batch = run_batch(&a, vec![wp], plain_split, &[plain_cpu, mt_cpu]).unwrap();
        let plain = run_session(&a, vec![wp], BackendKind::dise_default(), cpu).unwrap();
        let with_mt = run_session(&a, vec![wp], mt, cpu).unwrap();
        assert_eq!(batch[0].run, plain.run);
        assert_eq!(batch[1].run, with_mt.run);
        assert!(with_mt.run.dise_flushes < plain.run.dise_flushes);
    }

    #[test]
    fn empty_batch_is_empty() {
        let a = app(5);
        let wp = scalar_wp(&a, "watched");
        let out = run_batch(&a, vec![wp], BackendKind::dise_default(), &[]).unwrap();
        assert!(out.is_empty());
    }

    /// The tentpole contract: an observer batch fanning one functional
    /// pass out to both observing backends × several timing
    /// configurations reproduces every per-backend, per-config replay
    /// bit for bit — while executing once instead of six times.
    #[test]
    fn observer_batch_matches_private_replays_bit_for_bit() {
        let a = app(8);
        let wp = scalar_wp(&a, "watched");
        let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
        let narrow = CpuConfig { width: 1, commit_width: 1, ..CpuConfig::default() };
        let cpus = vec![CpuConfig::default(), cheap, narrow];

        // (Exact functional-pass counts are asserted by the dedicated
        // execution-count test in `dise-bench`, where the process-global
        // counter is not racing other tests.)
        let mut batch = ObserverBatch::new(&a);
        batch.member(BackendKind::VirtualMemory, vec![wp], cpus.clone());
        batch.member(BackendKind::hw4(), vec![wp], cpus.clone());
        batch.member(BackendKind::DiseComparators, vec![wp], cpus.clone());
        assert_eq!(batch.len(), 3);
        let results = batch.run().unwrap();

        for (backend, member) in
            [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators]
                .into_iter()
                .zip(results)
        {
            let reports = member.unwrap();
            assert_eq!(reports.len(), cpus.len());
            for (cpu, got) in cpus.iter().zip(reports) {
                let lone = run_session(&a, vec![wp], backend, *cpu).unwrap();
                assert_eq!(got.run, lone.run, "{backend:?} diverged for {cpu:?}");
                assert_eq!(got.transitions, lone.transitions, "{backend:?}");
                assert_eq!(got.error, lone.error, "{backend:?}");
                assert_eq!(got.text_bytes, lone.text_bytes, "{backend:?}");
            }
        }
    }

    /// An unsupported member (INDIRECT under virtual memory) fails
    /// alone; the rest of the batch still runs and still matches its
    /// private replay.
    #[test]
    fn observer_batch_isolates_unsupported_members() {
        let src = "start:  la r1, p
                           ldq r2, 0(r1)
                           lda r3, 5(zero)
                           stq r3, 0(r2)
                           halt
                   .data
                   target: .quad 1
                   p:      .quad 0x01000000
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let p = a.program().unwrap().symbol("p").unwrap();
        let target = a.program().unwrap().symbol("target").unwrap();
        let indirect = Watchpoint::new(WatchExpr::Indirect { ptr: p, width: Width::Q });
        let scalar = Watchpoint::new(WatchExpr::Scalar { addr: target, width: Width::Q });

        // VM and HW decline indirect watchpoints — per member, while the
        // comparator member (which supports indirection via debugger-side
        // retargeting) still runs and matches its private replay.
        let mut batch = ObserverBatch::new(&a);
        batch.member(BackendKind::VirtualMemory, vec![indirect], vec![CpuConfig::default()]);
        batch.member(BackendKind::hw4(), vec![indirect], vec![CpuConfig::default()]);
        batch.member(BackendKind::DiseComparators, vec![indirect], vec![CpuConfig::default()]);
        let results = batch.run().unwrap();
        assert!(matches!(results[0], Err(DebugError::Unsupported { .. })));
        assert!(matches!(results[1], Err(DebugError::Unsupported { .. })));
        let cmp = results[2].as_ref().unwrap();
        let lone =
            run_session(&a, vec![indirect], BackendKind::DiseComparators, CpuConfig::default())
                .unwrap();
        assert_eq!(cmp[0].run, lone.run);
        assert_eq!(cmp[0].transitions, lone.transitions);

        // A watchable scalar keeps the supported members alive: a
        // four-register backend takes it, a zero-register backend's
        // overflow falls back to page traps and agrees with its own
        // private replay.
        let mut batch = ObserverBatch::new(&a);
        batch.member(
            BackendKind::HardwareRegisters { registers: 0 },
            vec![scalar],
            vec![CpuConfig::default()],
        );
        batch.member(BackendKind::hw4(), vec![scalar], vec![CpuConfig::default()]);
        let results = batch.run().unwrap();
        for (backend, member) in
            [BackendKind::HardwareRegisters { registers: 0 }, BackendKind::hw4()]
                .into_iter()
                .zip(results)
        {
            let lone = run_session(&a, vec![scalar], backend, CpuConfig::default()).unwrap();
            let got = &member.unwrap()[0];
            assert_eq!(got.run, lone.run, "{backend:?}");
            assert_eq!(got.transitions, lone.transitions, "{backend:?}");
        }
    }

    /// The tentpole's new axis: members with *different watchpoint
    /// sets* share the one pass, each with its own detector and
    /// `WatchState`, bit-identical to their private replays — including
    /// a set that drives spurious transitions next to one that stays
    /// silent, so per-member stall accounting cannot leak across sets.
    #[test]
    fn observer_batch_shares_one_pass_across_watchpoint_sets() {
        let a = app(8);
        let sets = [
            vec![scalar_wp(&a, "watched")],
            vec![scalar_wp(&a, "silent")],
            vec![scalar_wp(&a, "watched"), scalar_wp(&a, "neighbor")],
        ];
        let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
        let cpus = vec![CpuConfig::default(), cheap];
        let backends =
            [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators];

        let mut batch = ObserverBatch::new(&a);
        let mut expect = Vec::new();
        for set in &sets {
            for backend in backends {
                batch.member(backend, set.clone(), cpus.clone());
                expect.push((backend, set.clone()));
            }
        }
        assert_eq!(batch.len(), 9);
        let results = batch.run().unwrap();
        for ((backend, set), member) in expect.into_iter().zip(results) {
            let reports = member.unwrap();
            assert_eq!(reports.len(), cpus.len());
            for (cpu, got) in cpus.iter().zip(reports) {
                let lone = run_session(&a, set.clone(), backend, *cpu).unwrap();
                assert_eq!(got.run, lone.run, "{backend:?}/{set:?} diverged for {cpu:?}");
                assert_eq!(got.transitions, lone.transitions, "{backend:?}/{set:?}");
                assert_eq!(got.error, lone.error, "{backend:?}/{set:?}");
                assert_eq!(got.text_bytes, lone.text_bytes, "{backend:?}/{set:?}");
            }
        }
    }

    /// The comparator organisation traps exactly on watched-byte
    /// overlap: user transitions match DISE, silent stores cost a
    /// spurious *value* round trip, and spurious *address* transitions
    /// are structurally impossible (no page sharing, no partial quads).
    #[test]
    fn dise_comparators_are_byte_exact_observers() {
        let a = app(10);
        let watched =
            Session::new(&a, vec![scalar_wp(&a, "watched")], BackendKind::DiseComparators)
                .unwrap()
                .run();
        assert_eq!(watched.error, None);
        assert_eq!(watched.transitions.user, 10, "one change per iteration");
        assert_eq!(watched.transitions.spurious_address, 0, "byte-exact: no page sharing cost");
        assert_eq!(watched.transitions.spurious_total(), 0, "{:?}", watched.transitions);

        let silent = Session::new(&a, vec![scalar_wp(&a, "silent")], BackendKind::DiseComparators)
            .unwrap()
            .run();
        assert_eq!(silent.transitions.user, 0);
        assert_eq!(silent.transitions.spurious_value, 10, "silent stores still trap");
        assert_eq!(silent.transitions.spurious_address, 0);
    }

    /// A perturbing backend cannot share the pass: its member settles
    /// as `Unsupported` in its own slot, and the observing co-members
    /// still run and match their private runs exactly.
    #[test]
    fn observer_batch_settles_perturbing_members_as_unsupported() {
        let a = app(5);
        let wp = scalar_wp(&a, "watched");
        let cpus = vec![CpuConfig::default()];
        let mut batch = ObserverBatch::new(&a);
        batch.member(BackendKind::dise_default(), vec![wp], cpus.clone());
        batch.member(BackendKind::VirtualMemory, vec![wp], cpus.clone());
        batch.member(BackendKind::SingleStep, vec![wp], cpus.clone());
        batch.member(BackendKind::BinaryRewrite, vec![wp], cpus.clone());
        let results = batch.run().unwrap();
        for (i, backend) in [(0, "dise"), (2, "single-step"), (3, "binary-rewrite")] {
            assert!(
                matches!(&results[i], Err(DebugError::Unsupported { backend: b, .. }) if *b == backend),
                "member {i}: {:?}",
                results[i]
            );
        }
        let lone = run_session(&a, vec![wp], BackendKind::VirtualMemory, cpus[0]).unwrap();
        assert_eq!(results[1].as_ref().unwrap(), &vec![lone], "the observing co-member");

        // With no observing member, nothing runs and every slot settles.
        let mut batch = ObserverBatch::new(&a);
        batch.member(BackendKind::dise_default(), vec![wp], cpus);
        let results = batch.run().unwrap();
        assert!(matches!(results[..], [Err(DebugError::Unsupported { .. })]));
    }

    #[test]
    fn observer_batch_with_no_members_is_empty() {
        let a = app(5);
        let batch = ObserverBatch::new(&a);
        assert!(batch.is_empty());
        assert!(batch.run().unwrap().is_empty());
    }

    /// Unlike `SessionTask::batch`, observer members need not agree on
    /// DISE engine capacities: no member installs productions, so the
    /// engine is functionally inert and cells differing only in engine
    /// configuration may still share the pass.
    #[test]
    fn observer_batch_tolerates_mismatched_engine_configs() {
        let a = app(6);
        let wp = scalar_wp(&a, "watched");
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 64;
        let mut batch = ObserverBatch::new(&a);
        batch.member(BackendKind::VirtualMemory, vec![wp], vec![CpuConfig::default(), small]);
        let reports = batch.run().unwrap().pop().unwrap().unwrap();
        let lone = run_session(&a, vec![wp], BackendKind::VirtualMemory, small).unwrap();
        assert_eq!(reports[1].run, lone.run);
    }

    /// Every `DebugError::InvalidWatchpoint` rejection path, through
    /// every session construction surface: a conditional range (no
    /// defined scalar comparison) and a zero-length range (watches no
    /// bytes) must be rejected by `Session::with_config`, `run_session`,
    /// `SessionTask::batch` and `ObserverBatch::run` alike, before any
    /// backend work happens. In an observer batch the rejection is
    /// per-member: a valid co-member still runs and still matches its
    /// private replay.
    #[test]
    fn invalid_watchpoints_rejected_on_every_entry_point() {
        let a = app(5);
        let base = a.program().unwrap().symbol("watched").unwrap();
        let invalid = [
            ("conditional range", {
                Watchpoint::conditional(WatchExpr::Range { base, len: 16 }, Condition::equals(3))
            }),
            ("zero-length range", Watchpoint::new(WatchExpr::Range { base, len: 0 })),
        ];
        for (what, wp) in invalid {
            for kind in [
                BackendKind::dise_default(),
                BackendKind::VirtualMemory,
                BackendKind::hw4(),
                BackendKind::SingleStep,
                BackendKind::BinaryRewrite,
                BackendKind::DiseComparators,
            ] {
                assert!(
                    matches!(
                        Session::with_config(&a, vec![wp], kind, CpuConfig::default()),
                        Err(DebugError::InvalidWatchpoint { .. })
                    ),
                    "{what}: Session::with_config under {kind:?}"
                );
                assert!(
                    matches!(
                        run_session(&a, vec![wp], kind, CpuConfig::default()),
                        Err(DebugError::InvalidWatchpoint { .. })
                    ),
                    "{what}: run_session under {kind:?}"
                );
                assert!(
                    matches!(
                        run_batch(&a, vec![wp], kind, &[CpuConfig::default()]),
                        Err(DebugError::InvalidWatchpoint { .. })
                    ),
                    "{what}: SessionTask::batch under {kind:?}"
                );
            }
            let valid = scalar_wp(&a, "watched");
            let mut batch = ObserverBatch::new(&a);
            batch.member(BackendKind::VirtualMemory, vec![wp], vec![CpuConfig::default()]);
            batch.member(BackendKind::VirtualMemory, vec![valid], vec![CpuConfig::default()]);
            let results = batch.run().unwrap();
            assert!(
                matches!(results[0], Err(DebugError::InvalidWatchpoint { .. })),
                "{what}: ObserverBatch::run rejects the member"
            );
            let lone =
                run_session(&a, vec![valid], BackendKind::VirtualMemory, CpuConfig::default())
                    .unwrap();
            let got = &results[1].as_ref().unwrap()[0];
            assert_eq!(got.run, lone.run, "{what}: the valid co-member still runs");
            assert_eq!(got.transitions, lone.transitions, "{what}");
        }
    }

    /// Configurations that disagree on the engine cannot share a
    /// stream: the batch — or just the offending sub-batch of a
    /// perturbing group — settles with a typed error instead of running.
    #[test]
    fn batch_rejects_mismatched_engine_configs() {
        let a = app(5);
        let wp = scalar_wp(&a, "watched");
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 64;
        let mixed = vec![CpuConfig::default(), small];
        assert_eq!(
            run_batch(&a, vec![wp], BackendKind::dise_default(), &mixed),
            Err(DebugError::MismatchedEngines)
        );
        let batches = vec![vec![CpuConfig::default()], mixed];
        let grouped = run_group(&a, vec![wp], BackendKind::dise_default(), &batches).unwrap();
        assert!(grouped[0].is_ok(), "the healthy sub-batch still runs");
        assert_eq!(grouped[1], Err(DebugError::MismatchedEngines));
    }

    #[test]
    fn unsupported_combinations_are_reported() {
        let a = app(5);
        let p = a.program().unwrap();
        let range =
            Watchpoint::new(WatchExpr::Range { base: p.symbol("watched").unwrap(), len: 16 });
        assert!(matches!(
            Session::new(&a, vec![range], BackendKind::hw4()),
            Err(DebugError::Unsupported { .. })
        ));
        let two = vec![scalar_wp(&a, "watched"), scalar_wp(&a, "silent")];
        assert!(matches!(
            Session::new(&a, two, BackendKind::Dise(DiseStrategy::evaluate_inline(true))),
            Err(DebugError::Unsupported { .. })
        ));
    }

    /// The copy-on-write contract: a perturbing group restoring every
    /// sub-batch's machine from one built image is bit-identical to the
    /// sub-batches' private `SessionTask::batch` runs — across all three
    /// perturbing backends, including binary rewriting, whose *image*
    /// itself is the product of the shared `build_program`.
    #[test]
    fn perturbing_group_matches_private_batches_bit_for_bit() {
        let a = app(8);
        let wp = scalar_wp(&a, "watched");
        let cheap = CpuConfig { debugger_transition_cost: 5_000, ..CpuConfig::default() };
        let narrow = CpuConfig { width: 1, commit_width: 1, ..CpuConfig::default() };
        let mut small = CpuConfig::default();
        small.engine.replacement_entries = 64;
        let batches = vec![
            vec![CpuConfig::default(), cheap],
            vec![narrow],
            vec![small, CpuConfig { debugger_transition_cost: 5_000, ..small }],
        ];
        for backend in
            [BackendKind::SingleStep, BackendKind::BinaryRewrite, BackendKind::dise_default()]
        {
            let grouped = run_group(&a, vec![wp], backend, &batches).unwrap();
            assert_eq!(grouped.len(), batches.len());
            for (cpus, got) in batches.iter().zip(grouped) {
                let private = run_batch(&a, vec![wp], backend, cpus).unwrap();
                let got = got.unwrap();
                assert_eq!(got.len(), private.len(), "{backend:?}");
                for (g, p) in got.iter().zip(&private) {
                    assert_eq!(g.run, p.run, "{backend:?} grouped run diverged");
                    assert_eq!(g.transitions, p.transitions, "{backend:?}");
                    assert_eq!(g.error, p.error, "{backend:?}");
                    assert_eq!(g.text_bytes, p.text_bytes, "{backend:?}");
                }
            }
        }
    }

    /// Engine-capacity failures are per sub-batch: the sub-batch whose
    /// configuration cannot hold the productions errs in its own slot
    /// (exactly as its private batch would), while its siblings off the
    /// same image still run and still match.
    #[test]
    fn perturbing_group_isolates_sub_batch_errors() {
        let a = app(6);
        let wp = scalar_wp(&a, "watched");
        let mut tiny = CpuConfig::default();
        tiny.engine.pattern_entries = 0;
        let batches = vec![vec![CpuConfig::default()], vec![tiny], vec![]];
        let grouped = run_group(&a, vec![wp], BackendKind::dise_default(), &batches).unwrap();
        assert!(matches!(grouped[1], Err(DebugError::Engine(_))), "{:?}", grouped[1]);
        assert!(grouped[2].as_ref().unwrap().is_empty(), "empty sub-batch yields no reports");
        let lone =
            run_session(&a, vec![wp], BackendKind::dise_default(), CpuConfig::default()).unwrap();
        let got = &grouped[0].as_ref().unwrap()[0];
        assert_eq!(got.run, lone.run, "the healthy sibling still matches its private run");
        assert_eq!(got.transitions, lone.transitions);
    }

    fn run_batch(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        cpus: &[CpuConfig],
    ) -> Result<Vec<SessionReport>, DebugError> {
        SessionTask::batch(app, watchpoints, backend, cpus).run_to_completion().into_batch()
    }

    fn run_group(
        app: &Application,
        watchpoints: Vec<Watchpoint>,
        backend: BackendKind,
        batches: &[Vec<CpuConfig>],
    ) -> Result<Vec<Result<Vec<SessionReport>, DebugError>>, DebugError> {
        SessionTask::perturbing_group(app, watchpoints, backend, batches)
            .run_to_completion()
            .into_group()
    }
}
