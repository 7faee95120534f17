//! The integer vocabulary of the trace format: unsigned LEB128-style
//! varints, zigzag-folded signed deltas, and CRC-32 (IEEE).
//!
//! Delta + varint is where the compression comes from: consecutive
//! `Exec` records differ by tiny amounts (PC advances by one
//! instruction, a store address walks an array), so most fields encode
//! in a single byte. Zigzag folding maps small negative deltas (loop
//! back-edges, downward-counting induction variables) to small unsigned
//! values so they stay single-byte too.

/// Append `v` as an unsigned LEB128 varint (7 payload bits per byte,
/// high bit = continuation). Values below 128 take one byte.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a varint written by [`write_uvarint`] from `buf` at `*pos`,
/// advancing `*pos` past it. Returns `None` on a truncated or
/// over-long (not representable in 64 bits) encoding.
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b & 0x7E != 0) {
            return None;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-fold a signed value so small magnitudes of either sign become
/// small unsigned values: 0, -1, 1, -2, 2, … → 0, 1, 2, 3, 4, …
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The zigzag-folded wrapping difference `to - from`, ready for
/// [`write_uvarint`]. Inverted by [`apply_delta`].
pub fn delta(from: u64, to: u64) -> u64 {
    zigzag(to.wrapping_sub(from) as i64)
}

/// Apply a delta produced by [`delta`]: reconstruct `to` from `from`.
pub fn apply_delta(from: u64, d: u64) -> u64 {
    from.wrapping_add(unzigzag(d) as u64)
}

/// Slicing-by-8 tables for CRC-32 (IEEE 802.3, reflected polynomial
/// `0xEDB88320`), built at compile time. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by eight
/// input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the per-chunk integrity check of the
/// on-disk container. Eight bytes per step (slicing-by-8), then the
/// tail bytewise; the values are those of the bytewise algorithm.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_edge_values() {
        for v in
            [0u64, 1, 127, 128, 129, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]
        {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "the whole encoding must be consumed");
        }
    }

    #[test]
    fn uvarint_single_byte_below_128() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 127);
        assert_eq!(buf, [127], "small values must cost one byte");
        buf.clear();
        write_uvarint(&mut buf, 128);
        assert_eq!(buf, [0x80, 0x01]);
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_uvarint(&[0x80], &mut pos), None, "dangling continuation bit");
        // 11 continuation bytes can never fit in 64 bits.
        let overlong = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(read_uvarint(&overlong, &mut pos), None);
    }

    #[test]
    fn zigzag_folds_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn delta_round_trips_including_wrapping() {
        for (from, to) in [(0u64, 0u64), (100, 96), (96, 100), (u64::MAX, 0), (0, u64::MAX)] {
            assert_eq!(apply_delta(from, delta(from, to)), to);
        }
        // A 4-byte backward branch must be a cheap delta.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, delta(0x1_0010, 0x1_0000));
        assert_eq!(buf.len(), 1, "small backward PC deltas must cost one byte");
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The plain bytewise CRC-32 (IEEE): one bit-serial table per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (an LCG's high bytes).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_crc32_equals_the_bytewise_reference() {
        // Every length through several 8-byte steps plus every tail,
        // at every alignment of the slice start.
        let buf = noise(300 + 8, 0x5eed);
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start}, length {len}");
            }
        }
        let chunk = noise(64 * 1024, 0xc0ffee);
        assert_eq!(crc32(&chunk), crc32_bytewise(&chunk), "one 64 KiB chunk");
    }
}
