//! Offline integrity audit of a store directory, segment by segment
//! (the engine behind `overton store verify <dir>`).

use super::manifest::{LiveManifest, LIVE_MANIFEST};
use crate::error::Result;
use crate::rowstore::{RowStore, ShardedStore};
use std::path::Path;

/// Verification outcome for one segment (a base directory, one delta
/// file, or one shard of a plain sealed store).
#[derive(Debug, Clone)]
pub struct SegmentStatus {
    /// Segment name relative to the audited directory.
    pub name: String,
    /// Rows the segment holds (0 when it could not be read).
    pub rows: usize,
    /// True when the segment read back clean and matched its recorded
    /// checksum.
    pub ok: bool,
    /// Human-readable detail: row/shard counts when ok, the precise error
    /// otherwise.
    pub detail: String,
}

/// The full audit result for one directory.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The live generation id (`None` when the directory is a plain
    /// sealed [`ShardedStore`] directory).
    pub generation: Option<u64>,
    /// Per-segment outcomes, manifest order.
    pub segments: Vec<SegmentStatus>,
}

impl VerifyReport {
    /// True when every segment verified clean.
    pub fn ok(&self) -> bool {
        self.segments.iter().all(|s| s.ok)
    }
}

/// Audits a store directory segment by segment: a live store directory
/// (has `LIVE.json`) is checked base + every delta against the manifest
/// checksums; a plain sealed store directory is checked shard by shard.
/// Segment failures are reported in the result, not returned as errors —
/// only an unreadable/corrupt manifest fails the audit outright.
pub fn verify_dir(dir: impl AsRef<Path>) -> Result<VerifyReport> {
    let dir = dir.as_ref();
    if dir.join(LIVE_MANIFEST).exists() {
        verify_live_dir(dir)
    } else {
        verify_sharded_dir(dir)
    }
}

fn verify_live_dir(dir: &Path) -> Result<VerifyReport> {
    let manifest = LiveManifest::read(dir)?;
    let mut segments = Vec::with_capacity(manifest.deltas.len() + 1);
    segments.push(match ShardedStore::read_dir(dir.join(&manifest.base)) {
        Ok(base) => SegmentStatus {
            name: manifest.base.clone(),
            rows: base.len(),
            ok: true,
            detail: format!("{} rows, {} shards", base.len(), base.num_shards()),
        },
        Err(e) => {
            SegmentStatus { name: manifest.base.clone(), rows: 0, ok: false, detail: e.to_string() }
        }
    });
    for entry in &manifest.deltas {
        let status = match RowStore::read_file(dir.join(&entry.file)) {
            Ok(store) if store.blob_checksum() != entry.checksum => SegmentStatus {
                name: entry.file.clone(),
                rows: store.len(),
                ok: false,
                detail: "checksum does not match the live manifest".into(),
            },
            Ok(store) if store.len() != entry.rows => SegmentStatus {
                name: entry.file.clone(),
                rows: store.len(),
                ok: false,
                detail: format!("row count {} disagrees with manifest {}", store.len(), entry.rows),
            },
            Ok(store) => SegmentStatus {
                name: entry.file.clone(),
                rows: store.len(),
                ok: true,
                detail: format!("{} rows", store.len()),
            },
            Err(e) => SegmentStatus {
                name: entry.file.clone(),
                rows: 0,
                ok: false,
                detail: e.to_string(),
            },
        };
        segments.push(status);
    }
    Ok(VerifyReport { generation: Some(manifest.generation), segments })
}

fn verify_sharded_dir(dir: &Path) -> Result<VerifyReport> {
    let segments = match ShardedStore::read_dir(dir) {
        Ok(store) => (0..store.num_shards())
            .map(|s| SegmentStatus {
                name: format!("shard-{s:04}.ovrs"),
                rows: store.shard(s).len(),
                ok: true,
                detail: format!(
                    "{} rows, checksum {}",
                    store.shard(s).len(),
                    store.shard_checksums()[s]
                ),
            })
            .collect(),
        Err(e) => vec![SegmentStatus {
            name: dir.display().to_string(),
            rows: 0,
            ok: false,
            detail: e.to_string(),
        }],
    };
    Ok(VerifyReport { generation: None, segments })
}

#[cfg(test)]
mod tests {
    use super::super::{LiveStore, LiveStoreConfig};
    use super::*;
    use crate::record::{PayloadValue, Record, TaskLabel, TAG_TRAIN};
    use crate::schema::example_schema;
    use std::path::PathBuf;

    fn record(i: usize) -> Record {
        Record::new()
            .with_payload("query", PayloadValue::Singleton(format!("verify row {i}")))
            .with_label("Intent", "weak1", TaskLabel::MulticlassOne("Age".into()))
            .with_tag(TAG_TRAIN)
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("overton-verify-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn clean_live_dir_reports_every_segment_ok() {
        let dir = temp("clean");
        let live = LiveStore::create_from_with(
            &dir,
            ShardedStore::from_records(example_schema(), &[], 1),
            LiveStoreConfig { delta_rows: 5, ..Default::default() },
        )
        .unwrap();
        for i in 0..12 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.generation, Some(live.generation()));
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.segments.len(), 4, "base + 3 deltas: {report:?}");
        assert_eq!(report.segments[1].rows, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_delta_is_flagged_not_fatal() {
        let dir = temp("flag");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        for i in 0..6 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        drop(live);
        let path = dir.join("delta-000000.ovrs");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let report = verify_dir(&dir).unwrap();
        assert!(!report.ok());
        let bad = report.segments.iter().find(|s| !s.ok).unwrap();
        assert_eq!(bad.name, "delta-000000.ovrs");
        assert!(report.segments[0].ok, "base must still verify: {report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_flipped_segment_byte_is_caught_and_named() {
        let dir = temp("sweep");
        let records: Vec<Record> = (0..24).map(record).collect();
        let live = LiveStore::create_from_with(
            &dir,
            ShardedStore::from_records(example_schema(), &records, 2),
            LiveStoreConfig { delta_rows: 6, ..Default::default() },
        )
        .unwrap();
        for i in 24..42 {
            live.append(record(i)).unwrap();
        }
        drop(live);
        let manifest = LiveManifest::read(&dir).unwrap();
        // Every segment file, with the segment the audit reports it under.
        let mut files: Vec<(String, String)> = (0..2)
            .map(|s| (format!("{}/shard-{s:04}.ovrs", manifest.base), manifest.base.clone()))
            .collect();
        files.extend(manifest.deltas.iter().map(|d| (d.file.clone(), d.file.clone())));
        assert_eq!(files.len(), 5, "two base shards and three deltas");

        let mut seed = 47u64;
        for (file, segment) in &files {
            let path = dir.join(file);
            let clean = std::fs::read(&path).unwrap();
            for _ in 0..6 {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let pos = (seed >> 33) as usize % clean.len();
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << (seed >> 61);
                std::fs::write(&path, &bytes).unwrap();
                let err = LiveStore::open(&dir).unwrap_err().to_string();
                assert!(err.contains(&path.display().to_string()), "flip at {pos}: {err}");
                let report = verify_dir(&dir).unwrap();
                let failed: Vec<&str> =
                    report.segments.iter().filter(|s| !s.ok).map(|s| s.name.as_str()).collect();
                assert_eq!(failed, [segment.as_str()], "flip at {pos} of {file}");
            }
            std::fs::write(&path, &clean).unwrap();
        }
        assert!(verify_dir(&dir).unwrap().ok());

        // A valid delta under another delta's name passes its own file
        // checksum; only the blob checksum the read recorded, compared
        // with the live manifest's, rejects it.
        std::fs::copy(dir.join(&files[3].0), dir.join(&files[2].0)).unwrap();
        let err = LiveStore::open(&dir).unwrap_err().to_string();
        assert!(err.contains(&files[2].0) && err.contains("does not match the live manifest"));
        let report = verify_dir(&dir).unwrap();
        let failed: Vec<&SegmentStatus> = report.segments.iter().filter(|s| !s.ok).collect();
        assert_eq!(failed.len(), 1, "{report:?}");
        assert_eq!(failed[0].name, files[2].0);
        assert!(failed[0].detail.contains("does not match the live manifest"), "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_sharded_dir_verifies_per_shard() {
        let dir = temp("sharded");
        let records: Vec<Record> = (0..30).map(record).collect();
        let store = ShardedStore::from_records(example_schema(), &records, 3);
        store.write_dir(&dir).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.generation, None);
        assert!(report.ok());
        assert_eq!(report.segments.len(), 3);
        assert_eq!(report.segments.iter().map(|s| s.rows).sum::<usize>(), 30);

        // Corruption surfaces as a failed report, not an Err.
        let path = dir.join("shard-0001.ovrs");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert!(!report.ok());
        assert!(report.segments[0].detail.contains("shard-0001.ovrs"), "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
