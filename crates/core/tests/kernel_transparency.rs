//! Debugging is transparent on the calibrated kernels: each of them,
//! watched at HOT under every backend family, ends with the
//! application's data bytes and general-purpose registers exactly as an
//! undebugged run leaves them. The one allowed difference is binary
//! rewriting's scavenged registers, which its inlined check overwrites.
//! `backend_conformance` proves the same on synthetic scenarios.

use dise_cpu::{CpuConfig, Executor};
use dise_debug::{BackendKind, Session};
use dise_isa::Reg;
use dise_workloads::{all, WatchKind};

/// Small enough for a tier-1 test: single-stepping traps per statement.
const ITERS: u32 = 10;

/// The registers binary rewriting scavenges.
const SCAVENGED: [u8; 3] = [25, 27, 28];

#[test]
fn every_backend_leaves_each_kernel_as_an_undebugged_run_does() {
    let cpu = CpuConfig::default();
    let backends = [
        BackendKind::VirtualMemory,
        BackendKind::hw4(),
        BackendKind::DiseComparators,
        BackendKind::dise_default(),
        BackendKind::SingleStep,
        BackendKind::BinaryRewrite,
    ];
    for w in all(ITERS) {
        let prepared = w.app().prepared().expect("kernel assembles");
        let (base, len) = (prepared.data_base(), prepared.data_end() - prepared.data_base());
        let data = |exec: &Executor| exec.mem().read_bytes(base, len as usize);
        let mut plain = prepared.executor(cpu);
        while !plain.is_halted() {
            plain.step();
        }
        for backend in backends {
            let what = format!("{} under {backend:?}", w.name());
            let session =
                Session::with_config(w.app(), vec![w.watchpoint(WatchKind::Hot)], backend, cpu)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            let (report, exec) = session.run_with_state();
            assert_eq!(report.error, None, "{what}: the session runs clean");
            assert!(data(&exec) == data(&plain), "{what}: the application's data differ");
            for i in 0..32 {
                if backend != BackendKind::BinaryRewrite || !SCAVENGED.contains(&i) {
                    assert_eq!(exec.reg(Reg::gpr(i)), plain.reg(Reg::gpr(i)), "{what}: r{i}");
                }
            }
        }
    }
}
