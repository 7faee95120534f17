//! The workload wrapper: an application plus its six watch targets.

use dise_asm::Asm;
use dise_debug::{Application, Condition, WatchExpr, Watchpoint};
use dise_isa::Width;

/// The paper's six watchpoints per benchmark (§5 "Benchmarks and
/// watchpoints").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WatchKind {
    /// A frequently written scalar.
    Hot,
    /// An occasionally written scalar.
    Warm1,
    /// A less occasionally written scalar.
    Warm2,
    /// A rarely written scalar.
    Cold,
    /// A pointer dereference aliasing the same storage as [`Hot`].
    ///
    /// [`Hot`]: WatchKind::Hot
    Indirect,
    /// A non-scalar (array/structure).
    Range,
}

impl WatchKind {
    /// All six kinds, in the paper's order.
    pub const ALL: [WatchKind; 6] = [
        WatchKind::Hot,
        WatchKind::Warm1,
        WatchKind::Warm2,
        WatchKind::Cold,
        WatchKind::Indirect,
        WatchKind::Range,
    ];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            WatchKind::Hot => "HOT",
            WatchKind::Warm1 => "WARM1",
            WatchKind::Warm2 => "WARM2",
            WatchKind::Cold => "COLD",
            WatchKind::Indirect => "INDIRECT",
            WatchKind::Range => "RANGE",
        }
    }
}

/// One benchmark kernel, ready to debug.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Workload {
    pub(crate) name: &'static str,
    pub(crate) function: &'static str,
    pub(crate) app: Application,
    pub(crate) range_len: u64,
    /// Address of the kernel's `n_iters` quad.
    pub(crate) n_iters: u64,
    /// Loop trips per kernel iteration: `n_iters = iters × iters_scale`.
    pub(crate) iters_scale: u64,
}

impl Workload {
    pub(crate) fn from_asm(
        name: &'static str,
        function: &'static str,
        asm: Asm,
        range_len: u64,
        iters_scale: u64,
    ) -> Workload {
        let layout = dise_asm::Layout::default();
        let data = asm.data_layout(layout.data_base).expect("kernel data lays out");
        let n_iters = data.symbols["n_iters"];
        let app = Application::new(asm, layout);
        Workload { name, function, app, range_len, n_iters, iters_scale }
    }

    /// This kernel at `iters` iterations. The count enters a kernel only
    /// as its `n_iters` data quad, so the result is this workload's
    /// application with that one quad patched
    /// ([`Application::with_quad`]): it shares the preparation, and
    /// nothing is built, assembled or loaded again.
    #[must_use]
    pub fn with_iters(&self, iters: u32) -> Workload {
        let app = self.app.with_quad(self.n_iters, u64::from(iters) * self.iters_scale);
        Workload { app, ..self.clone() }
    }

    /// Benchmark name (`bzip2`, `crafty`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The SPEC function the kernel models.
    pub fn function(&self) -> &'static str {
        self.function
    }

    /// The application to hand to [`dise_debug::Session`].
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// Address of a symbol in the prepared image.
    fn sym(&self, name: &str) -> u64 {
        self.app
            .prepared()
            .expect("kernel assembles")
            .symbol(name)
            .unwrap_or_else(|| panic!("kernel {} lacks symbol {name}", self.name))
    }

    /// Build the watch expression for one of the paper's watchpoints.
    pub fn watch_expr(&self, kind: WatchKind) -> WatchExpr {
        match kind {
            WatchKind::Hot => WatchExpr::Scalar { addr: self.sym("hot"), width: Width::Q },
            WatchKind::Warm1 => WatchExpr::Scalar { addr: self.sym("warm1"), width: Width::Q },
            WatchKind::Warm2 => WatchExpr::Scalar { addr: self.sym("warm2"), width: Width::Q },
            WatchKind::Cold => WatchExpr::Scalar { addr: self.sym("cold"), width: Width::Q },
            WatchKind::Indirect => WatchExpr::Indirect { ptr: self.sym("ind_p"), width: Width::Q },
            WatchKind::Range => {
                WatchExpr::Range { base: self.sym("range_arr"), len: self.range_len }
            }
        }
    }

    /// An unconditional watchpoint.
    pub fn watchpoint(&self, kind: WatchKind) -> Watchpoint {
        Watchpoint::new(self.watch_expr(kind))
    }

    /// A conditional watchpoint whose predicate never holds — the
    /// paper's Fig. 4 methodology ("compares the value of the watched
    /// expression to a constant it never matches").
    pub fn conditional_watchpoint(&self, kind: WatchKind) -> Watchpoint {
        Watchpoint::conditional(self.watch_expr(kind), Condition::equals(u64::MAX))
    }

    /// The Fig. 6 sweep: the first `n` of up to 20 scalar watchpoints,
    /// ordered WARM1, WARM2, COLD, HOT, then the sixteen `extras`
    /// variables. HOT arrives fourth (vortex's silent stores already
    /// bite a 4-register hardware implementation), and everything past
    /// the fourth forces the hardware backend onto page protection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 20`.
    pub fn sweep_watchpoints(&self, n: usize) -> Vec<Watchpoint> {
        assert!((1..=20).contains(&n), "sweep supports 1..=20 watchpoints");
        let mut wps = vec![
            self.watchpoint(WatchKind::Warm1),
            self.watchpoint(WatchKind::Warm2),
            self.watchpoint(WatchKind::Cold),
            self.watchpoint(WatchKind::Hot),
        ];
        let extras = self.sym("extras");
        for i in 0..16u64 {
            wps.push(Watchpoint::new(WatchExpr::Scalar { addr: extras + 8 * i, width: Width::Q }));
        }
        wps.truncate(n);
        wps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_cpu::Machine;

    #[test]
    fn all_kernels_assemble_run_and_halt() {
        for w in crate::all(120) {
            let prog = w.app().program().unwrap();
            let mut m = Machine::from_program(&prog);
            let stats = m.run_limit(4_000_000);
            assert!(m.exec.is_halted(), "{} did not halt", w.name());
            assert!(stats.instructions > 2_000, "{} too small", w.name());
            assert!(stats.ipc() > 0.05, "{} ipc {}", w.name(), stats.ipc());
        }
    }

    #[test]
    fn all_watch_symbols_resolve() {
        for w in crate::all(50) {
            for kind in WatchKind::ALL {
                let _ = w.watchpoint(kind);
            }
        }
    }

    #[test]
    fn indirect_aliases_hot_storage() {
        for w in crate::all(50) {
            let prog = w.app().program().unwrap();
            let mut mem = dise_mem::Memory::new();
            prog.load(&mut mem);
            let p = prog.symbol("ind_p").unwrap();
            assert_eq!(
                mem.read_u(p, 8),
                prog.symbol("hot").unwrap(),
                "{}: ind_p must point at hot",
                w.name()
            );
        }
    }

    #[test]
    fn kernels_store_with_realistic_density() {
        // Store density should be in the paper's 5–25% band (Table 1).
        for w in crate::all(200) {
            let prog = w.app().program().unwrap();
            let mut exec = dise_cpu::Executor::from_program(&prog, Default::default());
            let mut stores = 0u64;
            let mut total = 0u64;
            while !exec.is_halted() && total < 2_000_000 {
                let e = exec.step();
                total += 1;
                if e.mem.is_some_and(|m| m.is_store) {
                    stores += 1;
                }
            }
            let density = stores as f64 / total as f64;
            assert!((0.04..0.30).contains(&density), "{}: store density {density:.3}", w.name());
        }
    }

    #[test]
    fn hot_is_hotter_than_cold() {
        for w in crate::all(300) {
            let prog = w.app().program().unwrap();
            let hot = prog.symbol("hot").unwrap();
            let cold = prog.symbol("cold").unwrap();
            let mut exec = dise_cpu::Executor::from_program(&prog, Default::default());
            let (mut hot_w, mut cold_w) = (0u64, 0u64);
            while !exec.is_halted() {
                let e = exec.step();
                if let Some(m) = e.mem {
                    if m.is_store {
                        if m.addr == hot {
                            hot_w += 1;
                        } else if m.addr == cold {
                            cold_w += 1;
                        }
                    }
                }
            }
            assert!(hot_w > 10 * cold_w.max(1), "{}: hot {hot_w} vs cold {cold_w}", w.name());
            assert!(hot_w > 0, "{}: hot never written", w.name());
        }
    }
}
