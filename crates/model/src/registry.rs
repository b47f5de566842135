//! A content-addressed on-disk model registry (the paper's "S3-like data
//! store that is accessible from the production infrastructure").
//!
//! Artifacts are stored under their content hash; a JSON index maps
//! human-readable names to hash ids with monotone version numbers, so
//! "fetch the latest `factoid-prod` model" is one call. This is what makes
//! retraining-and-redeploying nearly automatic.

use crate::serve::DeployableModel;
use overton_store::rowstore::fnv1a;
use overton_store::StoreError;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A content hash identifying one stored artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArtifactId(pub String);

/// One index entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactEntry {
    /// Content hash.
    pub id: ArtifactId,
    /// Human-readable model name.
    pub name: String,
    /// Monotone per-name version.
    pub version: u64,
    /// Serialized size in bytes.
    pub size: u64,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Index {
    entries: Vec<ArtifactEntry>,
}

/// A directory-backed registry.
pub struct ModelRegistry {
    root: PathBuf,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    fn load_index(&self) -> Result<Index, StoreError> {
        match std::fs::read(self.index_path()) {
            Ok(bytes) => Ok(serde_json::from_slice(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Index::default()),
            Err(e) => Err(e.into()),
        }
    }

    fn save_index(&self, index: &Index) -> Result<(), StoreError> {
        std::fs::write(self.index_path(), serde_json::to_vec_pretty(index)?)?;
        Ok(())
    }

    /// Publishes an artifact under `name`, returning its content id.
    /// Publishing identical bytes twice is idempotent (same id, new
    /// version entry is skipped).
    pub fn publish(
        &self,
        artifact: &DeployableModel,
        name: &str,
    ) -> Result<ArtifactId, StoreError> {
        let bytes = artifact.to_bytes();
        let id = ArtifactId(format!("{:016x}", fnv1a(&bytes)));
        let blob_path = self.root.join(format!("{}.model.json", id.0));
        if !blob_path.exists() {
            std::fs::write(&blob_path, &bytes)?;
        }
        let mut index = self.load_index()?;
        let already = index.entries.iter().any(|e| e.id == id && e.name == name);
        if !already {
            let version = index
                .entries
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.version)
                .max()
                .unwrap_or(0)
                + 1;
            index.entries.push(ArtifactEntry {
                id: id.clone(),
                name: name.to_string(),
                version,
                size: bytes.len() as u64,
            });
            self.save_index(&index)?;
        }
        Ok(id)
    }

    /// Fetches an artifact by content id.
    pub fn fetch(&self, id: &ArtifactId) -> Result<DeployableModel, StoreError> {
        let blob_path = self.root.join(format!("{}.model.json", id.0));
        let bytes = std::fs::read(&blob_path)?;
        // Verify content integrity.
        let actual = format!("{:016x}", fnv1a(&bytes));
        if actual != id.0 {
            return Err(StoreError::Corrupt(format!(
                "artifact {} fails content verification",
                id.0
            )));
        }
        DeployableModel::from_bytes(&bytes)
    }

    /// All index entries, in publish order.
    pub fn list(&self) -> Result<Vec<ArtifactEntry>, StoreError> {
        Ok(self.load_index()?.entries)
    }

    /// The newest version id published under `name`.
    pub fn latest(&self, name: &str) -> Result<Option<ArtifactId>, StoreError> {
        Ok(self
            .load_index()?
            .entries
            .into_iter()
            .filter(|e| e.name == name)
            .max_by_key(|e| e.version)
            .map(|e| e.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::FeatureSpace;
    use crate::network::CompiledModel;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use std::collections::BTreeMap;

    fn artifact(seed: u64) -> DeployableModel {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 20,
            n_dev: 5,
            n_test: 5,
            seed,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let model = CompiledModel::compile(
            ds.schema(),
            &space,
            &ModelConfig { seed, ..Default::default() },
            None,
        );
        DeployableModel::package(&model, &space, BTreeMap::new())
    }

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir =
            std::env::temp_dir().join(format!("overton-registry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ModelRegistry::open(dir).unwrap()
    }

    #[test]
    fn publish_fetch_roundtrip() {
        let reg = temp_registry("roundtrip");
        let art = artifact(1);
        let id = reg.publish(&art, "factoid-prod").unwrap();
        let fetched = reg.fetch(&id).unwrap();
        assert_eq!(fetched.to_bytes(), art.to_bytes());
    }

    #[test]
    fn publish_is_idempotent() {
        let reg = temp_registry("idempotent");
        let art = artifact(2);
        let a = reg.publish(&art, "m").unwrap();
        let b = reg.publish(&art, "m").unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.list().unwrap().len(), 1);
    }

    #[test]
    fn versions_increment_per_name() {
        let reg = temp_registry("versions");
        reg.publish(&artifact(3), "m").unwrap();
        let second = reg.publish(&artifact(4), "m").unwrap();
        reg.publish(&artifact(5), "other").unwrap();
        let entries = reg.list().unwrap();
        let versions: Vec<u64> =
            entries.iter().filter(|e| e.name == "m").map(|e| e.version).collect();
        assert_eq!(versions, vec![1, 2]);
        assert_eq!(reg.latest("m").unwrap().unwrap(), second);
        assert!(reg.latest("missing").unwrap().is_none());
    }

    #[test]
    fn corruption_detected_on_fetch() {
        let reg = temp_registry("corrupt");
        let art = artifact(6);
        let id = reg.publish(&art, "m").unwrap();
        // Tamper with the blob.
        let path = std::env::temp_dir()
            .join(format!("overton-registry-corrupt-{}", std::process::id()))
            .join(format!("{}.model.json", id.0));
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(reg.fetch(&id).is_err());
    }

    #[test]
    fn fetch_unknown_id_errors() {
        let reg = temp_registry("unknown");
        assert!(reg.fetch(&ArtifactId("deadbeef".into())).is_err());
    }
}
