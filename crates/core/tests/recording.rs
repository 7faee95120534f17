//! The one recording entry point against the committed trace fixture: a
//! tight loop recorded through `SessionTask::observer_recorded` with one
//! undebugged member is byte-identical to `tight_loop.dtrc`, and costs
//! exactly one functional pass, one image load and one trace record.
//!
//! This file deliberately holds a single `#[test]`: the counters are
//! process-global, and sibling tests in the same binary would race the
//! deltas.

use dise_asm::{parse_asm, Layout};
use dise_debug::{
    functional_passes, image_loads, trace_records, trace_replays, Application, BackendKind,
    SessionTask,
};

/// The program `dise-cpu`'s `trace_codec` test pins the fixture with.
const TIGHT_LOOP: &str = "
    start:  la r1, hot
            lda r4, 2000(zero)
    loop:   stq r4, 0(r1)
            subq r4, 1, r4
            bgt r4, loop
            halt
    .data
    hot:    .quad 0
";

#[test]
fn an_undebugged_recording_equals_the_fixture_in_one_pass() {
    let fixture: &[u8] = include_bytes!("../../cpu/tests/data/tight_loop.dtrc");
    let app = Application::new(parse_asm(TIGHT_LOOP).expect("parses"), Layout::default());
    let path = std::env::temp_dir().join(format!("dise-recording-{}.dtrc", std::process::id()));

    let before = (functional_passes(), image_loads(), trace_records(), trace_replays());
    let undebugged = vec![(BackendKind::VirtualMemory, vec![], vec![])];
    let results = SessionTask::observer_recorded(&app, undebugged, &path)
        .run_to_completion()
        .into_observe()
        .expect("the recording pass runs");
    let after = (functional_passes(), image_loads(), trace_records(), trace_replays());

    assert_eq!(results, vec![Ok(Vec::new())], "an untimed member reports nothing");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2, after.3 - before.3),
        (1, 1, 1, 0),
        "one pass, one load, one recording, no replay"
    );
    let recorded = std::fs::read(&path).expect("the trace is published");
    let _ = std::fs::remove_file(&path);
    assert!(recorded == fixture, "the recording differs from the committed fixture");
}
