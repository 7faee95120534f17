//! # dise-trace — the persistent `Exec`-stream store
//!
//! The paper's economy rests on one functional pass of the unmodified
//! application serving many debugging configurations at once. In-memory
//! batching (the `ObserverBatch` lattice in `dise-debug`) already shares
//! that pass *within* a process; this crate makes the shared stream a
//! first-class persistent artifact so it can be shared *across*
//! processes and runs — record the pass once, replay it forever.
//!
//! The crate is deliberately `Exec`-agnostic: it knows nothing about the
//! simulated machine. It provides the three generic layers the codec in
//! `dise_cpu::trace` is built from:
//!
//! - [`wire`]: LEB128-style unsigned varints, zigzag deltas, and a
//!   slicing-by-8 CRC-32 (IEEE) — the integer vocabulary of the format.
//! - [`store`]: the versioned on-disk container — magic, format
//!   version, kernel fingerprint, CRC-checked chunks, and a terminal
//!   record-count chunk, written to a temporary sibling and renamed into
//!   place so a crashed or concurrent recording can never publish a
//!   half-written trace.
//!
//! The session thread encodes its records inline and writes each chunk
//! as it fills. There is no writer thread: encoding a run record costs
//! one compare, less than handing the record to another thread did, and
//! that thread spun on an empty queue whenever the session was busy
//! elsewhere — burning a core the scheduler's workers could use.
//!
//! Every way a stored trace can be unusable has its own [`TraceError`]
//! variant: a stale or corrupt trace must be rejected loudly and
//! distinguishably, never replayed silently wrong.

pub mod store;
pub mod wire;

pub use store::{read_chunk_file, ChunkFile, ChunkWriter, MAGIC, VERSION};

/// Everything that can make a persistent trace unusable.
///
/// The variants are deliberately distinct per failure class so callers
/// (and tests) can tell a truncated file from a flipped bit from a
/// trace of the wrong kernel. `Io` carries stringified errors rather
/// than `std::io::Error` so the type stays `Clone + PartialEq + Eq`,
/// which `dise-debug` needs to nest it inside `DebugError` without
/// weakening that enum's derives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceError {
    /// The underlying filesystem operation failed.
    Io {
        /// Path of the trace file involved.
        path: String,
        /// Stringified `std::io::Error`.
        error: String,
    },
    /// The file does not start with the trace magic — not a trace at
    /// all (or one damaged in its very first bytes).
    BadMagic {
        /// Path of the offending file.
        path: String,
    },
    /// The file is a trace, but of a format version this build does not
    /// speak.
    BadVersion {
        /// Path of the offending file.
        path: String,
        /// Version stored in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The trace was recorded from a different kernel image than the
    /// one being replayed — a stale trace, the most dangerous class,
    /// because the bytes themselves are perfectly well-formed.
    FingerprintMismatch {
        /// Path of the offending file.
        path: String,
        /// Fingerprint of the kernel the caller wants to replay.
        expected: u64,
        /// Fingerprint stored in the trace header.
        found: u64,
    },
    /// The file ends before the terminal record-count chunk — an
    /// interrupted copy or a truncated download.
    Truncated {
        /// Path of the offending file.
        path: String,
        /// Byte offset at which the file ran out.
        offset: u64,
    },
    /// A chunk's payload does not match its stored CRC-32 — bit rot or
    /// in-place tampering.
    CorruptChunk {
        /// Path of the offending file.
        path: String,
        /// Zero-based index of the failing chunk.
        chunk: u64,
    },
    /// The container framing or the record encoding is self-
    /// inconsistent in some other way (unknown chunk tag, trailing
    /// bytes, record count mismatch, undecodable token…).
    Malformed {
        /// Path of the offending file.
        path: String,
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, error } => write!(f, "trace i/o error on {path}: {error}"),
            TraceError::BadMagic { path } => {
                write!(f, "{path} is not a DISE trace (bad magic)")
            }
            TraceError::BadVersion { path, found, expected } => {
                write!(f, "{path} is a v{found} trace; this build speaks v{expected}")
            }
            TraceError::FingerprintMismatch { path, expected, found } => write!(
                f,
                "{path} was recorded from a different kernel \
                 (fingerprint {found:#018x}, expected {expected:#018x}) — stale trace"
            ),
            TraceError::Truncated { path, offset } => {
                write!(f, "{path} is truncated at byte {offset}")
            }
            TraceError::CorruptChunk { path, chunk } => {
                write!(f, "{path}: chunk {chunk} fails its CRC-32 check")
            }
            TraceError::Malformed { path, reason } => {
                write!(f, "{path} is malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}
