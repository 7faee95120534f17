//! The trace reader never panics on data: `TraceReader::open` followed
//! by `next_chunk` to the end of the stream, on damaged copies of the
//! `tight_loop.dtrc` fixture, returns records or a typed `TraceError`.
//!
//! Four kinds of damage: truncation, bit flips anywhere in the file,
//! random bytes behind a valid or a random header, and damaged payloads
//! re-framed with valid CRCs, so that the damage gets past the
//! container checks and reaches the record decoder. Tier-1 runs a small
//! case count; the `#[ignore]`d sweep runs many more:
//!
//! ```text
//! cargo test --release -p dise-cpu --test trace_robustness -- --include-ignored
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dise_cpu::{ExecChunk, TraceReader};
use dise_trace::{read_chunk_file, ChunkWriter};
use proptest::prelude::*;

const FIXTURE: &[u8] = include_bytes!("data/tight_loop.dtrc");

fn scratch(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("dise-trace-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{}-{name}", UNIQUE.fetch_add(1, Ordering::Relaxed)))
}

/// The fixture's fingerprint, record count and decoded payload.
fn fixture() -> &'static (u64, u64, Vec<u8>) {
    static FIXTURE_FILE: OnceLock<(u64, u64, Vec<u8>)> = OnceLock::new();
    FIXTURE_FILE.get_or_init(|| {
        let path = scratch("fixture.dtrc");
        std::fs::write(&path, FIXTURE).expect("write fixture copy");
        let file = read_chunk_file(&path).expect("the fixture validates");
        let _ = std::fs::remove_file(&path);
        (file.fingerprint, file.record_count, file.payload)
    })
}

/// Open `path` and read it to the end in 64-record chunks, claiming
/// every record whose pc has `dirty` bits set as dirty. Returns how
/// many records were delivered before the end or the first error.
fn read_to_end(path: &std::path::Path, dirty: u64) -> u64 {
    let Ok(mut reader) = TraceReader::open(path, None) else { return 0 };
    let mut chunk = ExecChunk::with_capacity(64);
    let mut delivered = 0;
    loop {
        chunk.clear();
        match reader.next_chunk(&mut chunk, u64::MAX, |e| e.pc & dirty != 0) {
            Ok((0, None)) | Err(_) => return delivered,
            Ok((n, _)) => delivered += n,
        }
    }
}

/// A damaged file: write it, read it, remove it.
fn survives(bytes: &[u8], dirty: u64) -> u64 {
    let path = scratch("damaged.dtrc");
    std::fs::write(&path, bytes).expect("write damaged copy");
    let delivered = read_to_end(&path, dirty);
    let _ = std::fs::remove_file(&path);
    delivered
}

/// A damaged payload re-framed by the real writer, so every CRC holds,
/// split into chunks at `split` and ending with a declared `count`.
fn reframed(payload: &[u8], split: usize, count: u64, dirty: u64) -> u64 {
    let (fingerprint, ..) = *fixture();
    let path = scratch("reframed.dtrc");
    let mut writer = ChunkWriter::create(&path, fingerprint).expect("create");
    let split = split % (payload.len() + 1);
    for part in [&payload[..split], &payload[split..]] {
        if !part.is_empty() {
            writer.chunk(part).expect("chunk");
        }
    }
    writer.finish(count).expect("finish");
    let delivered = read_to_end(&path, dirty);
    let _ = std::fs::remove_file(&path);
    delivered
}

/// One case of each kind of damage, driven by `(kind, seed, knobs)`.
fn damage(kind: u8, seed: u64, flips: &[(usize, u8)], noise: &[u8], dirty: u64) {
    let (_, records, payload) = fixture();
    match kind {
        0 => {
            let cut = (seed as usize) % FIXTURE.len();
            assert!(survives(&FIXTURE[..cut], dirty) == 0, "a truncated file never opens");
        }
        1 => {
            let mut bytes = FIXTURE.to_vec();
            for &(at, bit) in flips {
                bytes[at % FIXTURE.len()] ^= 1 << (bit % 8);
            }
            survives(&bytes, dirty);
        }
        2 => {
            // A valid header (magic, version, fingerprint) ahead of random
            // chunk bytes, or random bytes from the start.
            let mut bytes =
                if seed.is_multiple_of(2) { FIXTURE[..20].to_vec() } else { Vec::new() };
            bytes.extend_from_slice(noise);
            survives(&bytes, dirty);
        }
        _ => {
            let mut bytes = payload.clone();
            for &(at, bit) in flips {
                bytes[at % payload.len()] ^= 1 << (bit % 8);
            }
            // Splice the noise in somewhere, or cut the payload short.
            let at = (seed as usize >> 8) % (bytes.len() + 1);
            if seed.is_multiple_of(3) {
                bytes.truncate(at);
            } else {
                bytes.splice(at..at, noise.iter().copied());
            }
            let count = if seed.is_multiple_of(5) { seed % (2 * records + 2) } else { *records };
            let delivered = reframed(&bytes, (seed >> 16) as usize, count, dirty);
            assert!(delivered <= count, "{delivered} records delivered of {count} declared");
        }
    }
}

/// The undamaged fixture reads to its declared end, clean or dirty.
#[test]
fn the_intact_fixture_reads_to_the_end() {
    let (_, records, payload) = fixture();
    assert_eq!(survives(FIXTURE, 0), *records);
    assert_eq!(survives(FIXTURE, 0b100), *records);
    assert_eq!(reframed(payload, 1000, *records, 0), *records);
}

fn damage_strategy() -> impl Strategy<Value = (u8, u64, Vec<(usize, u8)>, Vec<u8>, u64)> {
    (
        0u8..4,
        any::<u64>(),
        prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        prop::collection::vec(any::<u8>(), 0..64),
        prop_oneof![Just(0u64), Just(0b100), Just(0b1000)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn damaged_traces_never_panic(case in damage_strategy()) {
        let (kind, seed, flips, noise, dirty) = case;
        damage(kind, seed, &flips, &noise, dirty);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "large sweep; run with --include-ignored"]
    fn damaged_traces_never_panic_sweep(case in damage_strategy()) {
        let (kind, seed, flips, noise, dirty) = case;
        damage(kind, seed, &flips, &noise, dirty);
    }
}
