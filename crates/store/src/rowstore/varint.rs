//! LEB128 variable-length integers for the row encoding.

use crate::error::{Result, StoreError};

/// Appends `value` as LEB128 to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 integer from the front of `buf`, advancing it.
pub fn read_u64(buf: &mut &[u8]) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) =
            buf.split_first().ok_or_else(|| StoreError::Corrupt("varint truncated".into()))?;
        *buf = rest;
        if shift >= 64 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string from the front of `buf`.
pub fn read_str(buf: &mut &[u8]) -> Result<String> {
    Ok(read_str_borrowed(buf)?.to_string())
}

/// Reads a length-prefixed UTF-8 string as a slice borrowing from `buf`
/// (zero-copy), advancing it. This is the scan-path primitive: decoding a
/// row as a [`RowView`](crate::rowstore::RowView) touches no owned strings.
pub fn read_str_borrowed<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let len = read_u64(buf)? as usize;
    if buf.len() < len {
        return Err(StoreError::Corrupt(format!(
            "string of {len} bytes truncated ({} remain)",
            buf.len()
        )));
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(bytes).map_err(|_| StoreError::Corrupt("string is not valid UTF-8".into()))
}

/// The FNV-1a offset basis (hash of the empty input).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[cfg(test)]
thread_local! {
    static HASHED_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes this thread has fed through FNV-1a so far, counting each byte of
/// a [`fnv1a_fused`] pass once (tests pin how often store bytes are
/// hashed).
#[cfg(test)]
pub(crate) fn hashed_bytes() -> u64 {
    HASHED_BYTES.with(std::cell::Cell::get)
}

#[cfg(test)]
fn count_hashed(bytes: &[u8]) {
    HASHED_BYTES.with(|n| n.set(n.get() + bytes.len() as u64));
}

#[cfg(not(test))]
fn count_hashed(_: &[u8]) {}

/// FNV-1a over a byte slice (integrity check for store files).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over another chunk (incremental hashing, used
/// to checksum a store file's header and blob without concatenating them).
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    count_hashed(bytes);
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes `blob` once into two FNV-1a chains: a fresh one and one that
/// continues `header_hash`. Returns `(fnv1a(blob), fnv1a_continue(
/// header_hash, blob))` — a store segment's blob checksum and its file
/// checksum. The chains are independent, so the second multiply overlaps
/// the first and the pass costs about what one chain does.
pub(crate) fn fnv1a_fused(header_hash: u64, blob: &[u8]) -> (u64, u64) {
    count_hashed(blob);
    let (mut fresh, mut continued) = (FNV_OFFSET, header_hash);
    for &b in blob {
        fresh = (fresh ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        continued = (continued ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    (fresh, continued)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(read_u64(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut slice: &[u8] = &[0x80];
        assert!(read_u64(&mut slice).is_err());
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo wörld");
        let mut slice = buf.as_slice();
        assert_eq!(read_str(&mut slice).unwrap(), "héllo wörld");
    }

    #[test]
    fn truncated_string_errors() {
        let mut buf = Vec::new();
        write_str(&mut buf, "hello");
        let mut slice = &buf[..3];
        assert!(read_str(&mut slice).is_err());
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn fused_pass_counts_each_byte_once() {
        let before = hashed_bytes();
        fnv1a_fused(fnv1a(b"head"), b"blob bytes");
        assert_eq!(hashed_bytes() - before, 4 + 10);
        // Empty inputs: both chains stay where they started.
        assert_eq!(fnv1a_fused(FNV_OFFSET, b""), (FNV_OFFSET, FNV_OFFSET));
        assert_eq!(fnv1a_fused(fnv1a(b"head"), b""), (FNV_OFFSET, fnv1a(b"head")));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_chains_equal_the_separate_hashes(
            header in prop::collection::vec(any::<u8>(), 0..64),
            blob in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let header_hash = fnv1a(&header);
            let (fresh, continued) = fnv1a_fused(header_hash, &blob);
            prop_assert_eq!(fresh, fnv1a(&blob));
            prop_assert_eq!(continued, fnv1a_continue(header_hash, &blob));
            let file: Vec<u8> = header.iter().chain(&blob).copied().collect();
            prop_assert_eq!(continued, fnv1a(&file));
        }
    }
}
