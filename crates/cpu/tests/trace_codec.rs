//! The trace codec against the real machine: a tight-loop kernel's
//! recorded bytes are pinned to a golden fixture (any codec or format
//! change must be a conscious, reviewed decision — it invalidates every
//! stored trace), and the decoded stream is proven equal to the live
//! machine's.
//!
//! Regenerate the fixture after a *deliberate* format change with:
//!
//! ```text
//! DISE_BLESS_TRACE=1 cargo test -p dise-cpu --test trace_codec
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dise_asm::{parse_asm, Layout, Program};
use dise_cpu::{program_fingerprint, CpuConfig, ExecChunk, Executor, TraceReader, TraceWriter};

/// The known tight-loop stream the fixture pins: a counted store loop,
/// the shape the RLE + delta codec is built for.
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

fn tight_loop() -> Program {
    parse_asm(TIGHT_LOOP).expect("parses").assemble(Layout::default()).expect("assembles")
}

fn scratch(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("dise-trace-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{}-{name}", UNIQUE.fetch_add(1, Ordering::Relaxed)))
}

/// Record `prog`'s full functional stream to `path`, returning the
/// stats.
fn record(prog: &Program, path: &std::path::Path) -> dise_cpu::TraceStats {
    let mut writer = TraceWriter::create(path, program_fingerprint(prog)).expect("create");
    let mut exec = Executor::from_program(prog, CpuConfig::default());
    while !exec.is_halted() {
        writer.record(&exec.step());
    }
    writer.finish().expect("finish")
}

#[test]
fn tight_loop_encoding_matches_the_golden_fixture() {
    let fixture: &[u8] = include_bytes!("data/tight_loop.dtrc");
    let prog = tight_loop();
    let path = scratch("tight_loop.dtrc");
    record(&prog, &path);
    let fresh = std::fs::read(&path).expect("recorded trace");
    if dise_env::env_flag("DISE_BLESS_TRACE", false) {
        let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/tight_loop.dtrc");
        std::fs::write(&dest, &fresh).expect("bless fixture");
        return;
    }
    assert_eq!(
        fresh, fixture,
        "the on-disk trace encoding changed; if deliberate, bump the format version \
         and re-bless with DISE_BLESS_TRACE=1"
    );
}

#[test]
fn golden_fixture_replays_bit_identically_to_the_live_stream() {
    // Decode the *committed* fixture (not a fresh recording) against a
    // live machine: proves stored traces survive codec refactors.
    let fixture: &[u8] = include_bytes!("data/tight_loop.dtrc");
    let path = scratch("fixture_copy.dtrc");
    std::fs::write(&path, fixture).expect("write fixture copy");
    let prog = tight_loop();
    let mut reader =
        TraceReader::open(&path, Some(program_fingerprint(&prog))).expect("valid fixture");
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut n = 0u64;
    while !exec.is_halted() {
        let live = exec.step();
        let replayed = reader.next().expect("decodes").expect("stream long enough");
        assert_eq!(live, replayed, "record {n} diverged");
        n += 1;
    }
    assert_eq!(reader.next().expect("clean end"), None, "trace must end with the stream");
    assert_eq!(reader.records(), n);
}

#[test]
fn tight_loop_compresses_at_least_ten_fold() {
    let prog = tight_loop();
    let path = scratch("ratio.dtrc");
    let stats = record(&prog, &path);
    assert!(
        stats.compression() >= 10.0,
        "tight loop must compress ≥10× vs in-memory records, got {:.1}× \
         ({} records, {} file bytes)",
        stats.compression(),
        stats.records,
        stats.file_bytes
    );
}

/// Chunked decode is per-record decode with buffering: `next_chunk`
/// delivers the identical stream, end-of-stream is idempotent, and —
/// the scratch-buffer contract — one warm chunk serves the entire
/// replay without its allocation ever growing.
#[test]
fn chunked_decode_matches_per_record_decode_with_a_stable_buffer() {
    let prog = tight_loop();
    let path = scratch("chunked.dtrc");
    record(&prog, &path);

    let mut scalar =
        TraceReader::open(&path, Some(program_fingerprint(&prog))).expect("valid trace");
    let mut chunked =
        TraceReader::open(&path, Some(program_fingerprint(&prog))).expect("valid trace");
    let mut chunk = ExecChunk::with_capacity(64);
    // Warm-up: the first fill reserves the buffer once.
    let (read, dirty) = chunked.next_chunk(&mut chunk, u64::MAX, |_| false).expect("decodes");
    assert_eq!(read, 64, "first fill is a whole chunk");
    assert!(dirty.is_none());
    let warm = chunk.buffer_capacity();
    let mut total = 0u64;
    loop {
        for e in chunk.records() {
            assert_eq!(Some(*e), scalar.next().expect("decodes"), "record {total}");
            total += 1;
        }
        chunk.clear();
        assert_eq!(chunk.buffer_capacity(), warm, "no growth after warm-up");
        let (read, dirty) = chunked.next_chunk(&mut chunk, u64::MAX, |_| false).expect("decodes");
        assert!(dirty.is_none());
        if read == 0 {
            break;
        }
    }
    assert_eq!(scalar.next().expect("clean end"), None);
    assert_eq!(total, chunked.records());
    // End of stream is idempotent for the chunked path too.
    let (read, _) = chunked.next_chunk(&mut chunk, u64::MAX, |_| false).expect("idempotent end");
    assert_eq!(read, 0);
}

#[test]
fn stale_trace_is_rejected_by_fingerprint() {
    let prog = tight_loop();
    let path = scratch("stale.dtrc");
    record(&prog, &path);
    let other =
        parse_asm("start: halt\n").expect("parses").assemble(Layout::default()).expect("assembles");
    let err = TraceReader::open(&path, Some(program_fingerprint(&other)))
        .err()
        .expect("stale trace must be rejected");
    assert!(
        matches!(err, dise_trace::TraceError::FingerprintMismatch { .. }),
        "wrong variant: {err:?}"
    );
}
