//! Durable dataset storage for the MPDS service.
//!
//! Three layers, std-only like the rest of the workspace:
//!
//! * [`wal`] — per-dataset append-only write-ahead log: one CRC-framed
//!   record per accepted mutation batch, torn tails truncated on open;
//! * [`dataset`] — checkpoint rotation (binary snapshots via
//!   [`ugraph::io::write_graph_checkpoint`], temp-file + rename, newest two
//!   kept) and boot-time recovery: newest valid checkpoint + WAL-tail
//!   replay through the same batch path mutations originally took;
//! * [`Store`] — the service-facing root handle: a `--data-dir` plus a
//!   [`SyncPolicy`], handing out per-dataset stores.
//!
//! The durability contract: once `POST /update` acks, the batch is in the
//! WAL (fsynced under the default `commit` policy), so SIGKILL at any later
//! point recovers the dataset to the exact pre-crash generation with a
//! byte-identical query surface.

pub mod dataset;
pub mod wal;

pub use dataset::{
    replay_wal, sanitize_dataset_dir, DatasetOpen, DatasetStore, RecoveredCheckpoint,
    RecoveryStats, CHECKPOINTS_KEPT,
};
pub use wal::{decode_record, encode_record, scan_records, DecodeStep, Wal, WalOpen, WalRecord};

use std::path::{Path, PathBuf};

/// When WAL appends are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync before every append returns (the default): an acked update
    /// survives SIGKILL and power loss.
    #[default]
    Commit,
    /// Coalesce fsyncs to at most one per second: much higher update
    /// throughput, at the cost of possibly losing the last sub-second of
    /// acked batches on a hard crash.
    Interval,
}

impl SyncPolicy {
    /// Parses the `--wal-sync` CLI value: `commit` or `interval`.
    ///
    /// ```
    /// use mpds_store::SyncPolicy;
    /// assert_eq!(SyncPolicy::parse("commit").unwrap(), SyncPolicy::Commit);
    /// assert_eq!(SyncPolicy::parse("interval").unwrap(), SyncPolicy::Interval);
    /// assert!(SyncPolicy::parse("eventually").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "commit" => Ok(SyncPolicy::Commit),
            "interval" => Ok(SyncPolicy::Interval),
            other => Err(format!(
                "bad wal-sync {other:?}: expected \"commit\" or \"interval\""
            )),
        }
    }
}

/// Errors from durable-store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A CRC-valid WAL record failed to re-apply, or replay diverged from
    /// the stamped generations — the log and the graph disagree.
    Replay(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Replay(msg) => write!(f, "WAL replay error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The root persistence handle: a data directory plus the WAL sync policy,
/// shared by every dataset the service persists.
#[derive(Debug, Clone)]
pub struct Store {
    data_dir: PathBuf,
    sync: SyncPolicy,
}

impl Store {
    /// Creates the handle (and the directory itself, if absent).
    pub fn create(data_dir: &Path, sync: SyncPolicy) -> std::io::Result<Store> {
        std::fs::create_dir_all(data_dir)?;
        Ok(Store {
            data_dir: data_dir.to_path_buf(),
            sync,
        })
    }

    /// Opens the durable state of one dataset (see [`DatasetStore::open`]).
    pub fn open_dataset(&self, name: &str) -> Result<DatasetOpen, StoreError> {
        DatasetStore::open(&self.data_dir, name, self.sync)
    }

    /// Whether `name` has any durable state on disk worth recovering — a
    /// non-empty WAL or at least one checkpoint file. Used by boot-time
    /// recovery to decide which registered datasets to eagerly rebuild.
    pub fn has_state(&self, name: &str) -> bool {
        let dir = self.data_dir.join(sanitize_dataset_dir(name));
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return false;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".ckpt") {
                return true;
            }
            if name == "wal.log" && entry.metadata().map(|m| m.len() > 0).unwrap_or(false) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_state_reflects_disk() {
        let dir = std::env::temp_dir().join(format!("mpds-store-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::create(&dir, SyncPolicy::Commit).unwrap();
        assert!(!store.has_state("demo"));
        let open = store.open_dataset("demo").unwrap();
        // An empty WAL is not recoverable state.
        assert!(!store.has_state("demo"));
        let mut ds = open.store;
        ds.log_batch(1, b"1 2 0.5\n").unwrap();
        assert!(store.has_state("demo"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
