//! An immutable, persistable row store over binary-encoded records.
//!
//! Layout on disk:
//!
//! ```text
//! magic "OVRS" | version u32 | row_count u64
//! | offsets (row_count + 1) x u64   -- prefix offsets into the blob
//! | blob                             -- concatenated encoded rows
//! | checksum u64                     -- FNV-1a over everything before it
//! ```
//!
//! In memory the blob is a [`bytes::Bytes`]; per-row access hands out
//! zero-copy slices of it. `Bytes` stands in for a real `mmap` so the crate
//! stays free of platform-specific dependencies while preserving the access
//! pattern (shared immutable buffer, cheap slicing).
//!
//! A store records its checksums when its bytes come into being: `build`
//! and the streaming builder hash the freshly encoded rows, and
//! [`RowStore::from_bytes`] keeps what it computed while verifying the
//! file. Both come from one pass over the blob ([`fnv1a_fused`]), so
//! sealing, snapshotting, merging and writing a store never hash its rows
//! again; only [`RowStore::verify`] re-hashes the bytes in memory.

use crate::error::{Result, StoreError};
use crate::record::Record;
use crate::rowstore::encode::{
    approx_record_bytes, decode_record, decode_row_view, encode_record, RowView,
};
use crate::rowstore::varint::{fnv1a, fnv1a_fused};
use bytes::Bytes;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"OVRS";
/// Version 2 extends the checksum to cover the header and offset table as
/// well as the blob, so any single flipped byte in a store file surfaces
/// as [`StoreError::Corrupt`].
const VERSION: u32 = 2;

/// An immutable collection of binary-encoded rows with O(1) point access.
#[derive(Debug, Clone)]
pub struct RowStore {
    blob: Bytes,
    /// `offsets[i]..offsets[i+1]` is row `i` within `blob`.
    offsets: Vec<u64>,
    /// FNV-1a of `blob`, recorded when the bytes were built or read.
    blob_checksum: u64,
    /// FNV-1a of the file's header and blob (the value [`RowStore::write`]
    /// appends), recorded in the same pass.
    file_checksum: u64,
}

/// The on-disk header: magic, version, row count and offset table.
fn header(offsets: &[u64]) -> Vec<u8> {
    let mut header = Vec::with_capacity(16 + offsets.len() * 8);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(offsets.len() as u64 - 1).to_le_bytes());
    for off in offsets {
        header.extend_from_slice(&off.to_le_bytes());
    }
    header
}

impl RowStore {
    /// Encodes records into a new store. The blob is pre-sized from
    /// [`RowStore::approx_bytes`] so encoding appends into one allocation
    /// instead of growing through repeated reallocation.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let records: Vec<&Record> = records.into_iter().collect();
        let mut blob = Vec::with_capacity(Self::approx_bytes(records.iter().copied()));
        let mut offsets = Vec::with_capacity(records.len() + 1);
        offsets.push(0u64);
        for record in records {
            encode_record(record, &mut blob);
            offsets.push(blob.len() as u64);
        }
        Self::from_raw_parts(blob, offsets)
    }

    /// Estimates the encoded size of a set of records without encoding
    /// them (pre-sizing blobs, balancing shards by bytes).
    pub fn approx_bytes<'a>(records: impl IntoIterator<Item = &'a Record>) -> usize {
        records.into_iter().map(approx_record_bytes).sum()
    }

    /// Assembles a store from an already-encoded blob and its offset table
    /// (the streaming shard builder encodes rows as they arrive), hashing
    /// the new bytes once for both checksums.
    pub(crate) fn from_raw_parts(blob: Vec<u8>, offsets: Vec<u64>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        let (blob_checksum, file_checksum) = fnv1a_fused(fnv1a(&header(&offsets)), &blob);
        Self { blob: Bytes::from(blob), offsets, blob_checksum, file_checksum }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size in bytes.
    pub fn blob_len(&self) -> usize {
        self.blob.len()
    }

    /// The raw encoded bytes of row `i` (zero-copy).
    pub fn row_bytes(&self, i: usize) -> Option<Bytes> {
        if i >= self.len() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        Some(self.blob.slice(lo..hi))
    }

    /// The raw encoded bytes of row `i` as a borrowed slice of the blob.
    pub fn row_slice(&self, i: usize) -> Option<&[u8]> {
        if i >= self.len() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        Some(&self.blob[lo..hi])
    }

    /// Decodes row `i` as a zero-copy [`RowView`] borrowing from the blob.
    pub fn view(&self, i: usize) -> Result<RowView<'_>> {
        let bytes = self
            .row_slice(i)
            .ok_or_else(|| StoreError::Corrupt(format!("row {i} out of {}", self.len())))?;
        decode_row_view(bytes)
    }

    /// Iterates over all rows as zero-copy views.
    pub fn scan_views(&self) -> impl Iterator<Item = Result<RowView<'_>>> {
        (0..self.len()).map(move |i| self.view(i))
    }

    /// FNV-1a checksum of the blob: the per-segment fingerprint a
    /// [`ShardedStore`](crate::rowstore::ShardedStore) manifest and the
    /// live manifest record. It was recorded when the bytes were built or
    /// read, so this call does not hash; [`verify`](Self::verify) does.
    pub fn blob_checksum(&self) -> u64 {
        self.blob_checksum
    }

    /// Re-hashes the in-memory blob and checks it against the checksum
    /// recorded when the bytes were built or read.
    pub fn verify(&self) -> Result<()> {
        if fnv1a(&self.blob) != self.blob_checksum {
            return Err(StoreError::Corrupt("blob checksum mismatch".into()));
        }
        Ok(())
    }

    /// Decodes row `i`.
    pub fn get(&self, i: usize) -> Result<Record> {
        let bytes = self
            .row_bytes(i)
            .ok_or_else(|| StoreError::Corrupt(format!("row {i} out of {}", self.len())))?;
        let mut slice: &[u8] = &bytes;
        let record = decode_record(&mut slice)?;
        if !slice.is_empty() {
            return Err(StoreError::Corrupt(format!("row {i} has {} trailing bytes", slice.len())));
        }
        Ok(record)
    }

    /// Iterates over all rows, decoding each.
    pub fn scan(&self) -> impl Iterator<Item = Result<Record>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Writes the store to a writer in the on-disk format. The trailing
    /// checksum covers everything before it (header, offsets and blob); it
    /// is the value recorded when the bytes were built or read, so the
    /// write hashes nothing, and bytes that changed in memory since then
    /// fail the file's check when it is read back.
    pub fn write(&self, writer: impl Write) -> Result<()> {
        let mut w = BufWriter::new(writer);
        w.write_all(&header(&self.offsets))?;
        w.write_all(&self.blob)?;
        w.write_all(&self.file_checksum.to_le_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Writes the store to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<()> {
        self.write(std::fs::File::create(path)?)
    }

    /// Reads a store from a reader, verifying magic, version and checksum.
    pub fn read(reader: impl Read) -> Result<Self> {
        let mut bytes = Vec::new();
        let mut reader = reader;
        reader.read_to_end(&mut bytes)?;
        Self::from_bytes(bytes)
    }

    /// Reads a store from a file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self> {
        Self::read(std::fs::File::open(path)?)
    }

    /// Parses an owned byte buffer in the on-disk format. One pass over
    /// the blob verifies the file checksum and records the blob checksum.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let total = bytes.len();
        let need = |n: usize, what: &str| -> Result<()> {
            if total < n {
                return Err(StoreError::Corrupt(format!("file too short for {what}")));
            }
            Ok(())
        };
        need(16, "header")?;
        if &bytes[0..4] != MAGIC {
            return Err(StoreError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::Corrupt(format!("unsupported version {version}")));
        }
        let row_count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        // `row_count` is untrusted input: checked arithmetic so a corrupt
        // count surfaces as Corrupt instead of an overflow panic.
        let offsets_end = row_count
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_add(16))
            .ok_or_else(|| StoreError::Corrupt(format!("absurd row count {row_count}")))?;
        need(offsets_end, "offset table")?;
        let mut offsets = Vec::with_capacity(row_count + 1);
        for i in 0..=row_count {
            let at = 16 + i * 8;
            offsets.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
        }
        // The final offset is untrusted too: checked arithmetic again.
        let blob_len = *offsets.last().unwrap() as usize;
        let blob_end = offsets_end
            .checked_add(blob_len)
            .filter(|end| end.checked_add(8).is_some())
            .ok_or_else(|| StoreError::Corrupt(format!("absurd blob length {blob_len}")))?;
        need(blob_end + 8, "blob and checksum")?;
        let stored_checksum = u64::from_le_bytes(bytes[blob_end..blob_end + 8].try_into().unwrap());
        let (blob_checksum, file_checksum) =
            fnv1a_fused(fnv1a(&bytes[..offsets_end]), &bytes[offsets_end..blob_end]);
        if file_checksum != stored_checksum {
            return Err(StoreError::Corrupt("checksum mismatch".into()));
        }
        let blob = Bytes::from(bytes).slice(offsets_end..blob_end);
        // Offsets must be monotone and in bounds.
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt("offset table is not monotone".into()));
        }
        Ok(Self { blob, offsets, blob_checksum, file_checksum })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PayloadValue, TaskLabel};

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new()
                    .with_payload("query", PayloadValue::Singleton(format!("query number {i}")))
                    .with_label(
                        "Intent",
                        "weak1",
                        TaskLabel::MulticlassOne(if i % 2 == 0 { "A" } else { "B" }.into()),
                    )
                    .with_tag(if i % 10 == 0 { "test" } else { "train" })
            })
            .collect()
    }

    #[test]
    fn build_and_point_access() {
        let rs = records(20);
        let store = RowStore::build(&rs);
        assert_eq!(store.len(), 20);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&store.get(i).unwrap(), r);
        }
        assert!(store.get(20).is_err());
    }

    #[test]
    fn scan_yields_all_rows_in_order() {
        let rs = records(7);
        let store = RowStore::build(&rs);
        let decoded: Vec<Record> = store.scan().collect::<Result<_>>().unwrap();
        assert_eq!(decoded, rs);
    }

    #[test]
    fn empty_store() {
        let store = RowStore::build([]);
        assert!(store.is_empty());
        assert_eq!(store.scan().count(), 0);
    }

    #[test]
    fn file_format_roundtrip() {
        let rs = records(13);
        let store = RowStore::build(&rs);
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        let back = RowStore::from_bytes(buf).unwrap();
        assert_eq!(back.len(), 13);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&back.get(i).unwrap(), r);
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let store = RowStore::build(&records(5));
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        // Flip a byte inside the blob region.
        let mid = buf.len() - 12;
        buf[mid] ^= 0xff;
        let err = RowStore::from_bytes(buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn any_single_byte_flip_detected() {
        // Version 2's checksum covers the header and offset table too, so
        // a flip at *any* position must surface an error.
        let store = RowStore::build(&records(3));
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        for pos in 0..buf.len() {
            let mut copy = buf.clone();
            copy[pos] ^= 0x01;
            assert!(RowStore::from_bytes(copy).is_err(), "flip at {pos} not detected");
        }
    }

    #[test]
    fn views_match_decoded_records() {
        let rs = records(9);
        let store = RowStore::build(&rs);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&store.view(i).unwrap().to_record(), r);
        }
        let n = store.scan_views().filter(|v| v.as_ref().unwrap().has_tag("train")).count();
        assert_eq!(n, 8);
        assert!(store.view(9).is_err());
    }

    #[test]
    fn recorded_checksums_equal_a_fresh_hash() {
        let rs = records(6);
        let built = RowStore::build(&rs);
        let mut buf = Vec::new();
        built.write(&mut buf).unwrap();
        // The trailer written from the recorded value is the hash of every
        // byte before it, and a read records the same blob checksum.
        let (body, trailer) = buf.split_at(buf.len() - 8);
        assert_eq!(u64::from_le_bytes(trailer.try_into().unwrap()), fnv1a(body));
        let read = RowStore::from_bytes(buf.clone()).unwrap();
        assert_eq!(built.blob_checksum(), fnv1a(&built.blob));
        assert_eq!(read.blob_checksum(), built.blob_checksum());
        built.verify().unwrap();
        read.verify().unwrap();
        // Writing what was read reproduces the file byte for byte.
        let mut again = Vec::new();
        read.write(&mut again).unwrap();
        assert_eq!(again, buf);
        let empty = RowStore::build([]);
        assert_eq!(empty.blob_checksum(), fnv1a(b""));
    }

    #[test]
    fn verify_rehashes_the_bytes_in_memory() {
        let mut store = RowStore::build(&records(3));
        let mut bytes = store.blob.to_vec();
        bytes[0] ^= 0x01;
        store.blob = Bytes::from(bytes);
        let err = store.verify().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The write keeps the recorded checksum, so the changed bytes fail
        // the file's check instead of being blessed by a fresh hash.
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        assert!(RowStore::from_bytes(buf).is_err());
    }

    #[test]
    fn blob_checksum_is_stable() {
        let rs = records(4);
        let a = RowStore::build(&rs);
        let b = RowStore::build(&rs);
        assert_eq!(a.blob_checksum(), b.blob_checksum());
    }

    #[test]
    fn bad_magic_detected() {
        let store = RowStore::build(&records(2));
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(RowStore::from_bytes(buf).is_err());
    }

    #[test]
    fn absurd_row_count_is_corrupt_not_panic() {
        let store = RowStore::build(&records(2));
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = RowStore::from_bytes(buf).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncated_file_detected() {
        let store = RowStore::build(&records(2));
        let mut buf = Vec::new();
        store.write(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(RowStore::from_bytes(buf).is_err());
    }

    #[test]
    fn row_bytes_are_zero_copy_slices() {
        let store = RowStore::build(&records(3));
        let b0 = store.row_bytes(0).unwrap();
        let b1 = store.row_bytes(1).unwrap();
        assert!(!b0.is_empty() && !b1.is_empty());
        assert!(store.row_bytes(3).is_none());
    }
}
