//! The live store's generation header: `LIVE.json`.
//!
//! One small self-checksummed JSON document names the current sealed
//! world: the base directory, the ordered delta segment files with their
//! row counts and checksums, the monotonically increasing generation
//! number, and the next delta sequence number. Every mutation of the
//! sealed set (a delta seal, a compaction) commits by atomically renaming
//! a staged `LIVE.json.tmp` over `LIVE.json` — readers either see the old
//! generation in full or the new one in full, never a mix.

use crate::error::{Result, StoreError};
use crate::rowstore::fnv1a;
use std::path::Path;

/// File name of the live store's generation header.
pub const LIVE_MANIFEST: &str = "LIVE.json";

/// On-disk format version of the live manifest.
pub const LIVE_FORMAT_VERSION: u32 = 1;

/// One sealed delta segment as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeltaEntry {
    /// Segment file name within the live directory (`delta-NNNNNN.ovrs`).
    pub file: String,
    /// Rows in the segment.
    pub rows: usize,
    /// FNV-1a checksum of the segment's row blob, as recorded at seal
    /// time.
    pub checksum: u64,
}

/// The parsed generation header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LiveManifest {
    /// Monotonic commit counter: +1 on every delta seal and compaction.
    pub generation: u64,
    /// Directory name (relative to the live dir) of the sealed base store.
    pub base: String,
    /// Sequence number the next sealed delta will use (never reused, even
    /// after compaction removes old segments).
    pub next_delta: u64,
    /// Sealed delta segments, in append order.
    pub deltas: Vec<DeltaEntry>,
}

impl LiveManifest {
    /// The canonical string the self-checksum covers: every field that
    /// determines what `LiveStore::open` will load.
    pub(super) fn core(&self) -> String {
        let list = self
            .deltas
            .iter()
            .map(|d| format!("{}:{}:{}", d.file, d.rows, d.checksum))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "live{LIVE_FORMAT_VERSION}|{}|{}|{}|{list}",
            self.generation, self.base, self.next_delta
        )
    }

    /// Renders the manifest as its JSON document.
    pub(crate) fn to_json(&self) -> String {
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\": \"{}\", \"rows\": {}, \"checksum\": \"{}\"}}",
                    d.file, d.rows, d.checksum
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"version\": {LIVE_FORMAT_VERSION}, \"generation\": \"{}\", \"base\": \"{}\", \
             \"next_delta\": \"{}\", \"deltas\": [{deltas}], \"manifest_checksum\": \"{}\"}}\n",
            self.generation,
            self.base,
            self.next_delta,
            fnv1a(self.core().as_bytes()),
        )
    }

    /// Parses and verifies a manifest document (self-checksum included).
    pub(crate) fn parse(text: &str) -> Result<Self> {
        let corrupt = |what: &str| StoreError::Corrupt(format!("live manifest: {what}"));
        let serde_json::Value::Object(map) = serde_json::from_str_value(text)? else {
            return Err(corrupt("not an object"));
        };
        let parse_u64 = |v: Option<&serde_json::Value>| -> Option<u64> {
            v.and_then(|v| v.as_str()).and_then(|s| s.parse().ok())
        };
        let version = map
            .get("version")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| corrupt("missing version"))?;
        if version != i64::from(LIVE_FORMAT_VERSION) {
            return Err(corrupt(&format!("unsupported format version {version}")));
        }
        let generation =
            parse_u64(map.get("generation")).ok_or_else(|| corrupt("missing generation"))?;
        let next_delta =
            parse_u64(map.get("next_delta")).ok_or_else(|| corrupt("missing next_delta"))?;
        let base = map
            .get("base")
            .and_then(|v| v.as_str())
            .ok_or_else(|| corrupt("missing base"))?
            .to_string();
        // The base name is joined onto the live dir: refuse anything that
        // could escape it.
        if !base.starts_with("base-") || base.contains('/') || base.contains("..") {
            return Err(corrupt(&format!("suspicious base name {base:?}")));
        }
        let deltas = match map.get("deltas") {
            Some(serde_json::Value::Array(items)) => items
                .iter()
                .map(|item| -> Option<DeltaEntry> {
                    let serde_json::Value::Object(d) = item else { return None };
                    let file = d.get("file")?.as_str()?.to_string();
                    if !file.starts_with("delta-") || file.contains('/') || file.contains("..") {
                        return None;
                    }
                    let rows = d.get("rows")?.as_i64().filter(|&r| r >= 0)? as usize;
                    let checksum = parse_u64(d.get("checksum"))?;
                    Some(DeltaEntry { file, rows, checksum })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| corrupt("malformed delta entry"))?,
            _ => return Err(corrupt("missing deltas")),
        };
        let manifest = Self { generation, base, next_delta, deltas };
        let recorded = parse_u64(map.get("manifest_checksum"))
            .ok_or_else(|| corrupt("missing self-checksum"))?;
        if fnv1a(manifest.core().as_bytes()) != recorded {
            return Err(corrupt("self-checksum mismatch"));
        }
        Ok(manifest)
    }

    /// Reads `dir/LIVE.json`. A missing file says "not a live store"
    /// instead of a bare I/O error.
    pub(crate) fn read(dir: &Path) -> Result<Self> {
        let path = dir.join(LIVE_MANIFEST);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::Corrupt(format!(
                    "{}: not a live store (missing {LIVE_MANIFEST})",
                    dir.display()
                ))
            } else {
                StoreError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
            }
        })?;
        Self::parse(&text)
    }

    /// Atomically commits the manifest: writes `LIVE.json.tmp`, then
    /// renames it over `LIVE.json`. The rename is the commit point of
    /// every sealed-set mutation.
    pub(crate) fn write_atomic(&self, dir: &Path) -> Result<()> {
        let staged = dir.join(format!("{LIVE_MANIFEST}.tmp"));
        std::fs::write(&staged, self.to_json())?;
        std::fs::rename(&staged, dir.join(LIVE_MANIFEST))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> LiveManifest {
        LiveManifest {
            generation: 7,
            base: "base-0000000003".into(),
            next_delta: 5,
            deltas: vec![
                DeltaEntry { file: "delta-000003.ovrs".into(), rows: 12, checksum: 99 },
                DeltaEntry { file: "delta-000004.ovrs".into(), rows: 3, checksum: 1234567 },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = manifest();
        assert_eq!(LiveManifest::parse(&m.to_json()).unwrap(), m);
        let empty = LiveManifest {
            generation: 0,
            base: "base-0000000000".into(),
            next_delta: 0,
            deltas: vec![],
        };
        assert_eq!(LiveManifest::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn tampered_fields_fail_the_self_checksum() {
        let text = manifest().to_json();
        for (from, to) in [
            ("\"generation\": \"7\"", "\"generation\": \"8\""),
            ("\"rows\": 12", "\"rows\": 13"),
            ("base-0000000003", "base-0000000004"),
            ("\"next_delta\": \"5\"", "\"next_delta\": \"6\""),
        ] {
            let tampered = text.replace(from, to);
            assert_ne!(tampered, text, "{from} not present");
            let err = LiveManifest::parse(&tampered).unwrap_err();
            assert!(err.to_string().contains("self-checksum"), "{from}: {err}");
        }
    }

    #[test]
    fn hostile_segment_names_rejected() {
        for (from, to) in
            [("base-0000000003", "../escape"), ("delta-000003.ovrs", "../../etc/passwd")]
        {
            let tampered = manifest().to_json().replace(from, to);
            assert!(LiveManifest::parse(&tampered).is_err(), "{to} accepted");
        }
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("overton-live-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = manifest();
        m.write_atomic(&dir).unwrap();
        assert_eq!(LiveManifest::read(&dir).unwrap(), m);
        assert!(!dir.join("LIVE.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_says_not_a_live_store() {
        let dir = std::env::temp_dir().join(format!("overton-live-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = LiveManifest::read(&dir).unwrap_err();
        assert!(err.to_string().contains("not a live store"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
