//! The watchpoint implementations: the paper's five, plus the
//! pure-observation DISE comparator organisation.

mod dise;
mod dise_cmp;
mod hw_regs;
mod rewrite;
mod single_step;
mod virtual_mem;

use std::sync::Arc;

use dise_asm::Program;
use dise_cpu::{CpuConfig, Exec, Executor};
use dise_mem::Memory;

use crate::app::{Edits, Image};
use crate::session::DebugError;
use crate::{
    Application, DiseStrategy, Transition, TransitionStats, WatchFilter, WatchState, Watchpoint,
};

/// Selects and configures a watchpoint implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// Source-statement single-stepping: a debugger transition at every
    /// statement boundary (`.stmt` markers).
    SingleStep,
    /// Virtual-memory (`mprotect`) watchpoints: a store traps when it
    /// touches a page holding watched data. The page-granularity trap
    /// is computed from each store's footprint; the machine runs the
    /// unmodified application.
    VirtualMemory,
    /// Hardware watchpoint registers, quad granularity; watchpoints
    /// beyond `registers` fall back to page-granularity traps (the
    /// Fig. 6 hybrid).
    HardwareRegisters {
        /// Number of registers (4 on IA-32/IA-64 per §2).
        registers: usize,
    },
    /// Static binary rewriting: the check of Fig. 2c inlined at every
    /// store, no static optimization (Fig. 5).
    BinaryRewrite,
    /// DISE dynamic instrumentation with the given strategy.
    Dise(DiseStrategy),
    /// A pure-observation DISE organisation: byte-granularity hardware
    /// range comparators (bound-register pairs) trap stores that touch
    /// watched bytes, with no production injection — the only DISE
    /// organisation that observes instead of perturbing, so it can join
    /// observer batches. See `backend::dise_cmp`.
    DiseComparators,
}

impl BackendKind {
    /// The paper's default DISE organisation (Fig. 2d).
    pub fn dise_default() -> BackendKind {
        BackendKind::Dise(DiseStrategy::default())
    }

    /// Four hardware registers, as on IA-32/IA-64.
    pub fn hw4() -> BackendKind {
        BackendKind::HardwareRegisters { registers: 4 }
    }

    /// Split this backend into its *functional* core and the timing
    /// knobs folded into `cpu`, for single-pass multi-config replay
    /// ([`crate::SessionTask::batch`]): two cells whose split backends
    /// are equal produce identical functional instruction streams and
    /// may share one functional pass.
    ///
    /// The only timing-only backend knob today is the DISE strategy's
    /// `multithreaded_calls` flag (Fig. 8), which the timing model
    /// already consumes via
    /// [`CpuConfig::multithreaded_dise_calls`]; everything else a
    /// backend does (productions, handlers, rewriting) changes the
    /// executed stream or what the debugger reports.
    pub fn split_timing(self, mut cpu: CpuConfig) -> (BackendKind, CpuConfig) {
        match self {
            BackendKind::Dise(mut strategy) => {
                cpu.multithreaded_dise_calls |= strategy.multithreaded_calls;
                strategy.multithreaded_calls = false;
                (BackendKind::Dise(strategy), cpu)
            }
            other => (other, cpu),
        }
    }

    /// The observing/perturbing taxonomy behind
    /// [`crate::ObserverBatch`]: an *observing* backend's watch logic
    /// reads architectural state but never changes what the application
    /// fetches or executes — page-granularity traps and hardware
    /// address comparators hand control to the debugger without
    /// altering the instruction stream, so any number of observing
    /// backends can share one functional pass of the unmodified
    /// application.
    ///
    /// *Perturbing* backends keep a private replay: statement
    /// single-stepping (the debugger seizes control at every
    /// statement), static binary rewriting (a different program runs),
    /// and every Fig. 2 DISE strategy (productions inject replacement
    /// instructions into the executed stream).
    /// [`BackendKind::DiseComparators`] is the DISE organisation that
    /// *does* only observe — pure range-comparator address matching
    /// with no injected sequence — so it classifies as observing and
    /// shares passes alongside virtual memory and hardware registers.
    pub fn observation_only(self) -> bool {
        match self {
            BackendKind::VirtualMemory
            | BackendKind::HardwareRegisters { .. }
            | BackendKind::DiseComparators => true,
            BackendKind::SingleStep | BackendKind::BinaryRewrite | BackendKind::Dise(_) => false,
        }
    }

    /// Build the transition detector of an observing backend — its one
    /// implementation, fed a private machine's stream through
    /// [`Observing`] or a shared one by the observer fan-out.
    ///
    /// # Panics
    ///
    /// Panics when `self` is a perturbing backend (see
    /// [`BackendKind::observation_only`]).
    pub(crate) fn instantiate_observer(
        self,
        wps: &[Watchpoint],
    ) -> Result<Box<dyn ObserverImpl>, DebugError> {
        match self {
            BackendKind::VirtualMemory => Ok(Box::new(virtual_mem::VmObserver::new(wps)?)),
            BackendKind::HardwareRegisters { registers } => {
                Ok(Box::new(hw_regs::HwObserver::new(registers, wps)?))
            }
            BackendKind::DiseComparators => Ok(Box::new(dise_cmp::CmpObserver::new(wps)?)),
            other => panic!("{other:?} perturbs execution and cannot join an observer batch"),
        }
    }

    /// The whole program this backend runs for `app` under
    /// `watchpoints`, built on `prog` — `app` as
    /// [`Application::program`] assembles it: binary rewriting's
    /// rewritten text and `__bw_prev` cell, DISE's data region and
    /// handler; the observing backends and single-stepping run `prog`
    /// unchanged. Sessions never build it: they write the same bytes
    /// over the application's prepared image, copy-on-write. It is here
    /// to inspect that image, and to check it against a fresh load.
    /// Its symbols stay the application's.
    ///
    /// # Errors
    ///
    /// As session admission under this backend.
    pub fn instrument(
        self,
        app: &Application,
        watchpoints: &[Watchpoint],
        mut prog: Program,
    ) -> Result<Program, DebugError> {
        if let Some(edits) = self.instantiate().build_program(app, watchpoints)? {
            edits.apply(&mut prog);
        }
        Ok(prog)
    }

    pub(crate) fn instantiate(self) -> Box<dyn BackendImpl> {
        match self {
            BackendKind::SingleStep => Box::new(single_step::SingleStep::default()),
            BackendKind::BinaryRewrite => Box::new(rewrite::Rewrite),
            BackendKind::Dise(strategy) => Box::new(dise::DiseBackend::new(strategy)),
            BackendKind::VirtualMemory
            | BackendKind::HardwareRegisters { .. }
            | BackendKind::DiseComparators => Box::new(Observing { kind: self, detector: None }),
        }
    }
}

/// A private session under an observing backend: the machine runs the
/// unmodified application, and the backend's one detector
/// ([`ObserverImpl`]) classifies its stream against the machine's
/// memory — the same detector an observer batch fans a shared stream
/// out to, so the two paths cannot drift apart.
struct Observing {
    kind: BackendKind,
    /// Built at admission; `None` only before it.
    detector: Option<Box<dyn ObserverImpl>>,
}

impl BackendImpl for Observing {
    fn build_program(
        &mut self,
        app: &Application,
        wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError> {
        // The comparator file's budget is checked before the image
        // loads; page and register plans are made in `configure`.
        if self.kind == BackendKind::DiseComparators {
            self.detector = Some(self.kind.instantiate_observer(wps)?);
        }
        app.prepared()?;
        Ok(None)
    }

    fn configure(&mut self, _exec: &mut Executor, wps: &[Watchpoint]) -> Result<(), DebugError> {
        if self.detector.is_none() {
            self.detector = Some(self.kind.instantiate_observer(wps)?);
        }
        Ok(())
    }

    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        watch: &mut WatchState,
        stats: &mut TransitionStats,
    ) -> Option<Transition> {
        let detector = self.detector.as_mut().expect("configured at admission");
        detector.observe(e, exec.mem(), watch, stats)
    }

    fn boxed_clone(&self) -> Box<dyn BackendImpl> {
        Box::new(Observing {
            kind: self.kind,
            detector: self.detector.as_ref().map(|d| d.boxed_clone()),
        })
    }
}

/// Build `backend`'s program for `app`: the image every machine of the
/// session is instantiated from.
pub(crate) fn build_image(
    backend: &mut dyn BackendImpl,
    app: &Application,
    wps: &[Watchpoint],
) -> Result<Arc<Image>, DebugError> {
    let edits = backend.build_program(app, wps)?;
    Ok(app.prepared()?.image(edits.as_ref()))
}

/// Classify a transition after the debugger inspects memory: `changed` /
/// `pred_ok` come from [`WatchState::reevaluate`], `wrote_watched` from
/// overlap analysis.
pub(crate) fn classify(changed: bool, pred_ok: bool, wrote_watched: bool) -> Transition {
    if changed {
        if pred_ok {
            Transition::User
        } else {
            Transition::SpuriousPredicate
        }
    } else if wrote_watched {
        Transition::SpuriousValue
    } else {
        Transition::SpuriousAddress
    }
}

/// Internal interface every backend implements. `Send` because a
/// [`crate::SessionTask`] (which owns one mid-run) migrates between
/// scheduler worker threads across slices.
pub(crate) trait BackendImpl: Send {
    /// The static work before the machine exists: check the
    /// watchpoints against this backend and say how the program it runs
    /// differs from the application's prepared one — `None` when it runs
    /// it unchanged — reading (never loading) the prepared image.
    fn build_program(
        &mut self,
        app: &Application,
        wps: &[Watchpoint],
    ) -> Result<Option<Edits>, DebugError>;

    /// Configure the loaded machine: install productions, load DISE
    /// registers, build the detector.
    fn configure(&mut self, exec: &mut Executor, wps: &[Watchpoint]) -> Result<(), DebugError>;

    /// Inspect one executed instruction; return the debugger transition
    /// it caused, if any. `watch` is the debugger's value bookkeeping;
    /// `stats` may be updated for non-transition counters (handler
    /// calls).
    fn observe(
        &mut self,
        e: &Exec,
        exec: &mut Executor,
        watch: &mut WatchState,
        stats: &mut TransitionStats,
    ) -> Option<Transition>;

    /// Adjust the CPU configuration (e.g. multithreaded DISE calls).
    fn cpu_config(&self, base: CpuConfig) -> CpuConfig {
        base
    }

    /// Clone the backend behind the trait object, state and all — how
    /// each sub-batch of a private group gets its own copy of the
    /// backend the group built once (a backend carries state from
    /// `build_program` into `configure` and `observe`, so a fresh
    /// instantiation would not do).
    fn boxed_clone(&self) -> Box<dyn BackendImpl>;
}

/// The transition detector of an *observing* backend, fed either a
/// private machine's stream ([`Observing`]) or a shared functional
/// stream, live or replayed. Unlike [`BackendImpl::observe`] it sees
/// memory read-only and no `Executor`, so it cannot perturb the pass it
/// shares with other observers — the compiler enforces what
/// [`BackendKind::observation_only`] promises.
///
/// The chunked fan-out must report transitions bit-identically to the
/// per-record private loop (the cross-backend conformance suite and
/// the grid determinism tests hold it to that).
pub(crate) trait ObserverImpl: Send {
    /// Inspect one executed instruction of the shared stream; return
    /// the debugger transition it caused, if any.
    fn observe(
        &mut self,
        e: &Exec,
        mem: &Memory,
        watch: &mut WatchState,
        stats: &mut TransitionStats,
    ) -> Option<Transition>;

    /// The store-footprint prefilter the chunked fan-out tests each
    /// [`dise_cpu::ChunkSummary`] against before scanning this
    /// observer: every byte whose mutation could change what
    /// [`ObserverImpl::observe`] reports must be covered. `watch` and
    /// `mem` carry the *current* watch state — a dynamic filter
    /// (indirect watches) is rebuilt from them after every forced scan.
    fn filter(&self, watch: &WatchState, mem: &Memory) -> WatchFilter;

    /// Inspect a slice of consecutive records with one virtual
    /// dispatch, pushing `(record index, transition)` pairs in stream
    /// order. The default is the per-record fallback over
    /// [`ObserverImpl::observe`].
    ///
    /// `mem` is the state *after* the last record of the slice. The
    /// caller must guarantee that is indistinguishable from per-record
    /// memory for this observer — the fan-out does, by scanning only
    /// single-record slices or slices whose stores all miss the
    /// member's filter.
    fn observe_slice(
        &mut self,
        records: &[Exec],
        mem: &Memory,
        watch: &mut WatchState,
        stats: &mut TransitionStats,
        out: &mut Vec<(u32, Transition)>,
    ) {
        for (i, e) in records.iter().enumerate() {
            if let Some(t) = self.observe(e, mem, watch, stats) {
                out.push((i as u32, t));
            }
        }
    }

    /// Clone the detector behind the trait object, so cloning the
    /// private-session adapter that owns it ([`BackendImpl::boxed_clone`])
    /// clones it too.
    fn boxed_clone(&self) -> Box<dyn ObserverImpl>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matrix() {
        assert_eq!(classify(true, true, true), Transition::User);
        assert_eq!(classify(true, false, true), Transition::SpuriousPredicate);
        assert_eq!(classify(false, false, true), Transition::SpuriousValue);
        assert_eq!(classify(false, false, false), Transition::SpuriousAddress);
    }

    fn every_kind() -> Vec<BackendKind> {
        vec![
            BackendKind::SingleStep,
            BackendKind::VirtualMemory,
            BackendKind::hw4(),
            BackendKind::HardwareRegisters { registers: 0 },
            BackendKind::BinaryRewrite,
            BackendKind::dise_default(),
            BackendKind::Dise(DiseStrategy {
                multithreaded_calls: true,
                ..DiseStrategy::default()
            }),
            BackendKind::Dise(DiseStrategy::bloom(true)),
            BackendKind::DiseComparators,
        ]
    }

    /// The taxonomy is exactly the paper's: page traps and address
    /// comparators (including the pure-observation DISE comparator
    /// file) observe; statement stepping, rewriting and DISE production
    /// injection perturb.
    #[test]
    fn observation_taxonomy() {
        assert!(BackendKind::VirtualMemory.observation_only());
        assert!(BackendKind::hw4().observation_only());
        assert!(BackendKind::DiseComparators.observation_only());
        assert!(!BackendKind::SingleStep.observation_only());
        assert!(!BackendKind::BinaryRewrite.observation_only());
        for s in [
            DiseStrategy::default(),
            DiseStrategy::bloom(true),
            DiseStrategy::evaluate_inline(false),
            DiseStrategy { multithreaded_calls: true, ..DiseStrategy::default() },
        ] {
            assert!(!BackendKind::Dise(s).observation_only(), "{s:?} injects instructions");
        }
    }

    /// `split_timing` round trip, structurally: the split backend is a
    /// fixed point (splitting again changes nothing), the folded flag
    /// lands in the configuration exactly when the strategy carried it,
    /// and nothing else about the configuration moves.
    #[test]
    fn split_timing_is_idempotent_and_moves_only_the_mt_flag() {
        let cpu = CpuConfig::default();
        for kind in every_kind() {
            let (split, folded) = kind.split_timing(cpu);
            assert_eq!(split.split_timing(folded), (split, folded), "{kind:?} not a fixed point");
            let mt = matches!(kind, BackendKind::Dise(s) if s.multithreaded_calls);
            assert_eq!(folded.multithreaded_dise_calls, mt, "{kind:?}");
            if let BackendKind::Dise(s) = split {
                assert!(!s.multithreaded_calls, "{kind:?} kept the timing knob");
            }
            // Everything but the folded flag is untouched.
            let mut check = folded;
            check.multithreaded_dise_calls = cpu.multithreaded_dise_calls;
            assert_eq!(check, cpu, "{kind:?} perturbed unrelated configuration");
            // Splitting never changes the functional taxonomy.
            assert_eq!(split.observation_only(), kind.observation_only(), "{kind:?}");
        }
    }

    /// `split_timing` round trip, semantically: for every backend kind,
    /// running the *split* backend under the *folded* configuration
    /// reproduces the original (backend, config) session bit for bit —
    /// the folding loses nothing.
    #[test]
    fn split_timing_preserves_session_semantics() {
        use dise_asm::{parse_asm, Layout};
        use dise_isa::Width;

        let src = "start:  la r1, watched
                           lda r4, 6(zero)
                   loop:   .stmt
                           stq r4, 0(r1)
                           subq r4, 1, r4
                           bgt r4, loop
                           halt
                   .data
                   watched: .quad 0
                  ";
        let a = Application::new(parse_asm(src).unwrap(), Layout::default());
        let addr = a.program().unwrap().symbol("watched").unwrap();
        let wp = crate::Watchpoint::new(crate::WatchExpr::Scalar { addr, width: Width::Q });
        let cpu = CpuConfig::default();
        for kind in every_kind() {
            let (split, folded) = kind.split_timing(cpu);
            let original = crate::run_session(&a, vec![wp], kind, cpu).unwrap();
            let refolded = crate::run_session(&a, vec![wp], split, folded).unwrap();
            assert_eq!(original.run, refolded.run, "{kind:?}");
            assert_eq!(original.transitions, refolded.transitions, "{kind:?}");
            assert_eq!(original.text_bytes, refolded.text_bytes, "{kind:?}");
        }
    }
}
