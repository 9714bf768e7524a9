//! Graph registry: named datasets loaded once, served as generation-stamped
//! immutable snapshots, mutable through batched updates.
//!
//! The serving layer must never pay dataset construction per query — the
//! registry maps names to lazily-built datasets. Built-ins cover the
//! embedded Karate Club and the deterministic synthetic stand-ins of
//! `ugraph::datasets`; arbitrary weighted-edge-list files can be registered
//! alongside them (the CLI's `serve --dataset NAME=PATH`).
//!
//! Since PR 5 every entry is **dynamic**: behind the one-time build sits a
//! [`ugraph::dynamic::DeltaGraph`] writer plus an `ArcSwap`-style
//! `RwLock<Arc<LoadedGraph>>` holding the current immutable snapshot.
//! Readers share the read lock and clone the `Arc` (no torn reads — a
//! query computes against exactly the generation it resolved, and the
//! cache-HIT fast path never serializes on other readers); writers
//! serialize on the per-entry writer lock, apply one atomic mutation
//! batch, take the next snapshot, and swap it in under a brief write lock.
//! Generations observed through [`GraphRegistry::get`] are therefore
//! monotone per dataset.
//!
//! Construction is still coalesced: each entry holds a [`OnceLock`], so N
//! concurrent first-queries on the same dataset build it exactly once while
//! the others block on that build — the same discipline the result cache
//! applies to query computation.
//!
//! With a [`mpds_store::Store`] attached (the CLI's `serve --data-dir`),
//! every entry is also **durable**: accepted batches are WAL-logged before
//! the new snapshot is published (log-before-swap — a crash between the
//! append and the swap replays to the exact state the client was acked),
//! `DeltaGraph` compactions trigger snapshot checkpoints, and first builds
//! recover from the newest valid checkpoint plus the WAL tail instead of
//! the original source.

use mpds_store::{replay_wal, DatasetStore, RecoveryStats, Store};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;
use ugraph::dynamic::DeltaGraph;
use ugraph::{datasets, io, NodeId, UncertainGraph};

/// A loaded dataset snapshot: the shared graph at one generation plus the
/// label of every compact node id (file-backed datasets keep their original
/// labels; built-ins are identity-labeled until an update adds nodes).
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// Registry name.
    pub name: String,
    /// The uncertain graph (CSR; immutable — updates produce a *new*
    /// `LoadedGraph` at the next generation).
    pub graph: Arc<UncertainGraph>,
    /// Original node label per compact id, when the source had its own
    /// labels (`None` means identity).
    pub labels: Option<Vec<u32>>,
    /// The dataset generation this snapshot belongs to (0 = as loaded;
    /// bumped by every applied update batch). Part of every cache key, so
    /// stale cached responses age out of the LRU naturally.
    pub generation: u64,
}

impl LoadedGraph {
    /// The display label of compact node id `v`.
    pub fn label_of(&self, v: NodeId) -> u32 {
        match &self.labels {
            Some(l) => l[v as usize],
            None => v,
        }
    }
}

/// Where a registry entry's graph comes from.
enum Source {
    /// A named constructor over `ugraph::datasets` (deterministic per seed).
    Builtin(fn() -> datasets::Dataset),
    /// A weighted edge-list file (`u v p` per line).
    File(PathBuf),
}

/// Writer-side state of a dynamic entry, serialized by its mutex.
struct Writer {
    delta: DeltaGraph,
    /// Compact id → original label (identity-seeded for built-ins; grows
    /// when updates reference unseen labels).
    labels: Vec<u32>,
    /// Durable storage for this dataset, when the registry has a data dir.
    /// Shares the writer lock, which is what orders WAL appends.
    store: Option<DatasetStore>,
    /// Set when a WAL append or checkpoint failed after the in-memory state
    /// advanced: the writer and the log disagree, so further updates are
    /// refused (reads keep serving the last published snapshot) until a
    /// restart replays the log into a consistent writer again.
    poisoned: Option<String>,
}

/// One built dataset: the current snapshot (swapped atomically under a
/// short-lived lock) plus the writer and metric mirrors.
struct LiveDataset {
    /// Generation-stamped current snapshot. Readers share the read lock —
    /// every query (including the cache-HIT fast path) resolves through
    /// here, so readers must never serialize on each other; only the
    /// writer's swap takes the write lock, briefly.
    current: RwLock<Arc<LoadedGraph>>,
    writer: Mutex<Writer>,
    /// Metric mirrors updated after each batch, readable without touching
    /// the writer lock.
    overlay: AtomicUsize,
    compactions: AtomicU64,
    /// Whether this dataset persists to a data dir (fixed at build time).
    persistent: bool,
    /// WAL record count mirror (current log contents).
    wal_records: AtomicU64,
    /// WAL byte count mirror (current log contents).
    wal_bytes: AtomicU64,
    /// Newest checkpoint generation + 1 (0 = no checkpoint yet).
    checkpoint_gen_plus_one: AtomicU64,
    /// WAL records replayed during this process's boot-time recovery.
    replayed_records: AtomicU64,
    /// Wall-clock milliseconds boot-time recovery took (open + replay).
    recovery_ms: AtomicU64,
}

impl LiveDataset {
    /// Refreshes the lock-free persistence mirrors from the writer-side
    /// store. Called with the writer lock held, read without it.
    fn mirror_store(&self, store: &DatasetStore) {
        self.wal_records
            .store(store.wal_records(), Ordering::Relaxed);
        self.wal_bytes.store(store.wal_bytes(), Ordering::Relaxed);
        self.checkpoint_gen_plus_one.store(
            store.last_checkpoint_generation().map_or(0, |g| g + 1),
            Ordering::Relaxed,
        );
    }
}

struct Entry {
    source: Source,
    /// Build-once cell; errors are cached too (a bad file stays bad).
    cell: OnceLock<Result<Arc<LiveDataset>, String>>,
}

/// Immutable-after-construction name → dataset table.
///
/// All registration happens before serving starts, so lookups need no lock;
/// the per-entry [`OnceLock`] synchronizes lazy construction and the
/// per-entry snapshot/writer locks synchronize updates.
pub struct GraphRegistry {
    entries: BTreeMap<String, Entry>,
    /// Durable storage root, when serving with `--data-dir`.
    store: Option<Store>,
}

/// Metadata row returned by [`GraphRegistry::list`]. Stats are only present
/// for datasets that have already been built — listing must stay cheap.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Registry name.
    pub name: String,
    /// Whether the graph has been constructed in this process.
    pub loaded: bool,
    /// `(nodes, edges)` of the current snapshot, when loaded.
    pub shape: Option<(usize, usize)>,
    /// Current generation, when loaded.
    pub generation: Option<u64>,
    /// Live mutation-overlay entry count, when loaded.
    pub overlay: Option<usize>,
    /// Overlay compactions performed so far, when loaded.
    pub compactions: Option<u64>,
    /// Records currently in the WAL, when loaded and persistent.
    pub wal_records: Option<u64>,
    /// Bytes currently in the WAL, when loaded and persistent.
    pub wal_bytes: Option<u64>,
    /// Generation of the newest on-disk checkpoint, when one exists.
    pub last_checkpoint_generation: Option<u64>,
    /// WAL records replayed at boot, when loaded and persistent.
    pub replayed_records: Option<u64>,
    /// Wall-clock milliseconds boot recovery took, when loaded and persistent.
    pub recovery_ms: Option<u64>,
}

/// What one applied `/update` batch did (see [`GraphRegistry::apply_update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The dataset generation after the batch.
    pub generation: u64,
    /// Edges inserted.
    pub inserted: usize,
    /// Edges re-weighted.
    pub reweighted: usize,
    /// Edges deleted.
    pub deleted: usize,
    /// Nodes appended (unseen labels).
    pub nodes_added: usize,
    /// `(nodes, edges)` of the new snapshot.
    pub shape: (usize, usize),
    /// Overlay entries alive after the batch (0 right after a compaction).
    pub overlay: usize,
    /// Total compactions performed on this dataset so far.
    pub compactions: u64,
}

/// What one explicit checkpoint did (see
/// [`GraphRegistry::checkpoint_dataset_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The generation the checkpoint was taken at (the current one).
    pub generation: u64,
    /// Records left in the WAL after truncation.
    pub wal_records: u64,
    /// Bytes left in the WAL after truncation.
    pub wal_bytes: u64,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        GraphRegistry {
            entries: BTreeMap::new(),
            store: None,
        }
    }

    /// A registry preloaded with every built-in dataset.
    ///
    /// Names follow the paper's Table II (lower-case, `-like` dropped):
    /// `karate`, `intel-lab`, `lastfm`, `homo-sapiens`, `biomine`,
    /// `twitter`, `friendster`, and the §VI-H accuracy graphs `ba7`/`ba9`/
    /// `er7`/`er9`. All are deterministic: fixed construction seeds, so two
    /// servers hold identical graphs and identical queries return identical
    /// bytes across processes — until updates diverge their generations.
    pub fn with_builtins() -> Self {
        let mut r = GraphRegistry::new();
        r.register_builtin("karate", datasets::karate_club);
        r.register_builtin("intel-lab", || datasets::intel_lab_like(1));
        r.register_builtin("lastfm", || datasets::lastfm_like(1));
        r.register_builtin("homo-sapiens", || datasets::homo_sapiens_like(1));
        r.register_builtin("biomine", || datasets::biomine_like(1));
        r.register_builtin("twitter", || datasets::twitter_like(1));
        r.register_builtin("friendster", || datasets::friendster_like(1));
        r.register_builtin("ba7", || datasets::synthetic_accuracy_graph("BA7", 42));
        r.register_builtin("ba9", || datasets::synthetic_accuracy_graph("BA9", 42));
        r.register_builtin("er7", || datasets::synthetic_accuracy_graph("ER7", 42));
        r.register_builtin("er9", || datasets::synthetic_accuracy_graph("ER9", 42));
        r
    }

    /// Registers a built-in constructor under `name` (replacing any previous
    /// entry of that name).
    pub fn register_builtin(&mut self, name: &str, build: fn() -> datasets::Dataset) {
        self.entries.insert(
            name.to_string(),
            Entry {
                source: Source::Builtin(build),
                cell: OnceLock::new(),
            },
        );
    }

    /// Registers a weighted edge-list file under `name`. The file is read
    /// on first query, not here; a missing/corrupt file surfaces as a query
    /// error (and is cached as such).
    pub fn register_file(&mut self, name: &str, path: impl Into<PathBuf>) {
        self.entries.insert(
            name.to_string(),
            Entry {
                source: Source::File(path.into()),
                cell: OnceLock::new(),
            },
        );
    }

    /// Attaches durable storage: every dataset built from now on opens a
    /// WAL + checkpoint directory under the store's data dir, recovers any
    /// on-disk state, and logs accepted batches before publishing them.
    /// Must be called before serving starts (like registration).
    pub fn set_store(&mut self, store: Store) {
        self.store = Some(store);
    }

    /// Whether a data dir is attached (the precondition for checkpoints).
    pub fn persistence_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Eagerly builds every registered dataset that has durable state on
    /// disk, so a restarted server resumes at its pre-crash generations
    /// before the first query arrives. Returns `(name, recovered
    /// generation)` per recovered dataset; build failures surface as `Err`
    /// strings without aborting the rest.
    pub fn recover_on_boot(&self) -> Vec<(String, Result<u64, String>)> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        self.entries
            .keys()
            .filter(|name| store.has_state(name))
            .map(|name| (name.clone(), self.get(name).map(|g| g.generation)))
            .collect()
    }

    /// Cheap metadata for every entry (never triggers construction).
    pub fn list(&self) -> Vec<DatasetInfo> {
        self.entries
            .iter()
            .map(|(name, e)| {
                let live = match e.cell.get() {
                    Some(Ok(live)) => Some(live),
                    _ => None,
                };
                let snapshot = live.map(|l| Arc::clone(&*l.current.read().unwrap()));
                let durable = live.filter(|l| l.persistent);
                DatasetInfo {
                    name: name.clone(),
                    loaded: live.is_some(),
                    shape: snapshot
                        .as_ref()
                        .map(|g| (g.graph.num_nodes(), g.graph.num_edges())),
                    generation: snapshot.as_ref().map(|g| g.generation),
                    overlay: live.map(|l| l.overlay.load(Ordering::Relaxed)),
                    compactions: live.map(|l| l.compactions.load(Ordering::Relaxed)),
                    wal_records: durable.map(|l| l.wal_records.load(Ordering::Relaxed)),
                    wal_bytes: durable.map(|l| l.wal_bytes.load(Ordering::Relaxed)),
                    last_checkpoint_generation: durable
                        .map(|l| l.checkpoint_gen_plus_one.load(Ordering::Relaxed))
                        .filter(|&g| g > 0)
                        .map(|g| g - 1),
                    replayed_records: durable.map(|l| l.replayed_records.load(Ordering::Relaxed)),
                    recovery_ms: durable.map(|l| l.recovery_ms.load(Ordering::Relaxed)),
                }
            })
            .collect()
    }

    fn live(&self, name: &str) -> Result<Arc<LiveDataset>, String> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| format!("unknown dataset {name:?} (try /datasets)"))?;
        entry
            .cell
            .get_or_init(|| build(name, &entry.source, self.store.as_ref()))
            .clone()
    }

    /// Fetches (building on first use) the current snapshot of the dataset
    /// named `name`.
    ///
    /// Concurrent first calls coalesce on the entry's `OnceLock`: one
    /// caller builds, the rest block until the build finishes. Afterwards
    /// every call is one short lock + `Arc` clone, and the generations
    /// returned for one dataset are monotone.
    pub fn get(&self, name: &str) -> Result<Arc<LoadedGraph>, String> {
        let live = self.live(name)?;
        let current = live.current.read().unwrap();
        Ok(Arc::clone(&current))
    }

    /// Applies one mutation batch (the `u v p` / `u v -` grammar of
    /// [`ugraph::io::apply_edge_list_delta`], node ids in the dataset's
    /// original label space) atomically: on success the dataset moves to
    /// the next generation and subsequent [`GraphRegistry::get`] calls see
    /// the new snapshot; on error nothing changes.
    ///
    /// Writers for one dataset serialize on its writer lock; readers are
    /// never blocked for longer than the final snapshot swap.
    pub fn apply_update(
        &self,
        name: &str,
        mutations: impl std::io::Read,
    ) -> Result<UpdateOutcome, String> {
        self.apply_update_traced(name, mutations, None)
    }

    /// [`GraphRegistry::apply_update`] with an optional flight recorder:
    /// store-side work (WAL append, fsync, compaction checkpoints) is timed
    /// into `rec`'s stage totals when one is supplied.
    pub fn apply_update_traced(
        &self,
        name: &str,
        mut mutations: impl std::io::Read,
        rec: Option<&mpds_obs::Recorder>,
    ) -> Result<UpdateOutcome, String> {
        let live = self.live(name)?;
        // Buffer the batch body up front: the WAL logs the exact bytes that
        // were applied (bounded by the HTTP body cap on the service path).
        let mut payload = Vec::new();
        mutations
            .read_to_end(&mut payload)
            .map_err(|e| format!("dataset {name:?}: {e}"))?;
        let mut writer = live.writer.lock().unwrap();
        let Writer {
            delta,
            labels,
            store,
            poisoned,
        } = &mut *writer;
        if let Some(msg) = poisoned {
            return Err(format!(
                "dataset {name:?}: persistence failed earlier ({msg}); updates are \
                 refused until a restart recovers the log"
            ));
        }
        let generation_before = delta.generation();
        let compactions_before = delta.compactions();
        let applied = io::apply_edge_list_delta(delta, labels, payload.as_slice())
            .map_err(|e| format!("dataset {name:?}: {e}"))?;
        // Log before swap: the batch must be durable before any client can
        // observe (or be acked) the new generation. Empty batches don't
        // advance the generation and are not logged. On append failure the
        // in-memory writer is ahead of the log, so it is poisoned — the
        // published snapshot stays at the old generation and recovery from
        // the WAL reproduces exactly the acked prefix.
        if applied.generation > generation_before {
            if let Some(ds) = store.as_mut() {
                if let Err(e) = ds.log_batch_traced(applied.generation, &payload, rec) {
                    let msg = format!("WAL append failed: {e}");
                    *poisoned = Some(msg.clone());
                    return Err(format!("dataset {name:?}: {msg}"));
                }
            }
        }
        let compacted = delta.compactions() > compactions_before;
        let snapshot = delta.snapshot();
        let outcome = UpdateOutcome {
            generation: snapshot.generation(),
            inserted: applied.stats.inserted,
            reweighted: applied.stats.reweighted,
            deleted: applied.stats.deleted,
            nodes_added: applied.stats.nodes_added,
            shape: (snapshot.graph().num_nodes(), snapshot.graph().num_edges()),
            overlay: delta.overlay_len(),
            compactions: delta.compactions(),
        };
        let next = Arc::new(LoadedGraph {
            name: name.to_string(),
            graph: snapshot.shared_graph(),
            // Updated snapshots always carry explicit labels: identity
            // built-ins may have gained non-identity labels through appended
            // nodes, and an identity label vector resolves identically
            // either way.
            labels: Some(labels.clone()),
            generation: snapshot.generation(),
        });
        live.overlay.store(outcome.overlay, Ordering::Relaxed);
        live.compactions
            .store(outcome.compactions, Ordering::Relaxed);
        // Swap the published snapshot while still holding the writer lock,
        // so generations published through `current` are monotone.
        *live.current.write().unwrap() = next;
        // Compaction fired: take a checkpoint of the freshly-materialized
        // CSR and truncate the WAL prefix it covers. The batch itself is
        // already durable, so a checkpoint failure only poisons *future*
        // updates, not this (already acked-able) one.
        if compacted {
            if let Some(ds) = store.as_mut() {
                if let Err(e) =
                    ds.checkpoint_traced(snapshot.graph(), labels, snapshot.generation(), rec)
                {
                    *poisoned = Some(format!("checkpoint failed: {e}"));
                }
            }
        }
        if let Some(ds) = store.as_ref() {
            live.mirror_store(ds);
        }
        Ok(outcome)
    }

    /// Forces a compaction + snapshot checkpoint of `name` (the CLI's
    /// `mpds-cli checkpoint`, HTTP's `POST /admin/checkpoint`): the overlay
    /// is folded into a fresh base CSR, written as a checkpoint file, and
    /// the WAL prefix it covers is truncated. The generation is unchanged —
    /// checkpoints are an operational act, not a mutation.
    ///
    /// Errors if the registry has no data dir attached. `rec`, if any,
    /// times the checkpoint write and its fsyncs.
    pub fn checkpoint_dataset_traced(
        &self,
        name: &str,
        rec: Option<&mpds_obs::Recorder>,
    ) -> Result<CheckpointOutcome, String> {
        if self.store.is_none() {
            return Err(format!(
                "dataset {name:?}: persistence is not enabled (serve with --data-dir)"
            ));
        }
        let live = self.live(name)?;
        let mut writer = live.writer.lock().unwrap();
        let Writer {
            delta,
            labels,
            store,
            poisoned,
        } = &mut *writer;
        if let Some(msg) = poisoned {
            return Err(format!(
                "dataset {name:?}: persistence failed earlier ({msg}); restart to recover"
            ));
        }
        let Some(ds) = store.as_mut() else {
            return Err(format!(
                "dataset {name:?}: persistence is not enabled (serve with --data-dir)"
            ));
        };
        delta.compact();
        let snapshot = delta.snapshot();
        ds.checkpoint_traced(snapshot.graph(), labels, snapshot.generation(), rec)
            .map_err(|e| format!("dataset {name:?}: checkpoint failed: {e}"))?;
        let outcome = CheckpointOutcome {
            generation: snapshot.generation(),
            wal_records: ds.wal_records(),
            wal_bytes: ds.wal_bytes(),
        };
        // Publish the compacted snapshot (same generation, fresh CSR) and
        // refresh the mirrors, mirroring the update path's swap discipline.
        let next = Arc::new(LoadedGraph {
            name: name.to_string(),
            graph: snapshot.shared_graph(),
            labels: Some(labels.clone()),
            generation: snapshot.generation(),
        });
        live.overlay.store(delta.overlay_len(), Ordering::Relaxed);
        live.compactions
            .store(delta.compactions(), Ordering::Relaxed);
        *live.current.write().unwrap() = next;
        live.mirror_store(ds);
        Ok(outcome)
    }
}

impl Default for GraphRegistry {
    fn default() -> Self {
        GraphRegistry::with_builtins()
    }
}

/// Loads a weighted edge-list file (`u v p` per line) as a [`LoadedGraph`]
/// with the file's original node labels preserved — the single file-loading
/// path shared by [`GraphRegistry`] entries and the CLI.
pub fn load_edge_list_file(name: &str, path: &std::path::Path) -> Result<LoadedGraph, String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let (graph, labels) = io::read_weighted_edge_list(file).map_err(|e| e.to_string())?;
    Ok(LoadedGraph {
        name: name.to_string(),
        graph: Arc::new(graph),
        labels: Some(labels),
        generation: 0,
    })
}

fn build(name: &str, source: &Source, store: Option<&Store>) -> Result<Arc<LiveDataset>, String> {
    let started = Instant::now();
    // With durable storage attached, consult the disk first: a checkpoint
    // replaces the source as the base, and the WAL tail is replayed on top.
    let mut opened = match store {
        Some(s) => Some(
            s.open_dataset(name)
                .map_err(|e| format!("dataset {name:?}: {e}"))?,
        ),
        None => None,
    };
    let mut recovery = RecoveryStats::default();
    if let Some(open) = &opened {
        recovery.truncated_bytes = open.truncated_bytes;
        recovery.checkpoints_discarded = open.checkpoints_discarded;
    }
    let (mut delta, mut writer_labels, source_labels) =
        match opened.as_mut().and_then(|o| o.checkpoint.take()) {
            Some(ckpt) => {
                let graph = Arc::new(ckpt.graph);
                let delta = DeltaGraph::new(graph).with_generation(ckpt.generation);
                // Recovered snapshots always carry explicit labels, like
                // updated ones.
                (delta, ckpt.labels.clone(), Some(ckpt.labels))
            }
            None => {
                let (graph, labels) = match source {
                    Source::Builtin(f) => (Arc::new(f().graph), None),
                    Source::File(path) => {
                        let loaded = load_edge_list_file(name, path)
                            .map_err(|e| format!("dataset {name:?}: {e}"))?;
                        (loaded.graph, loaded.labels)
                    }
                };
                let writer_labels = labels
                    .clone()
                    .unwrap_or_else(|| (0..graph.num_nodes() as u32).collect());
                (DeltaGraph::new(graph), writer_labels, labels)
            }
        };
    if let Some(open) = &opened {
        let (replayed, skipped) = replay_wal(&mut delta, &mut writer_labels, &open.wal_records)
            .map_err(|e| format!("dataset {name:?}: {e}"))?;
        recovery.replayed_records = replayed;
        recovery.skipped_records = skipped;
    }
    let generation = delta.generation();
    let snapshot_graph = delta.snapshot().shared_graph();
    let snapshot = Arc::new(LoadedGraph {
        name: name.to_string(),
        graph: snapshot_graph,
        // Replay may have grown the label table past the source's: publish
        // the writer's labels whenever anything was recovered.
        labels: if generation > 0 {
            Some(writer_labels.clone())
        } else {
            source_labels
        },
        generation,
    });
    if opened.is_some() {
        recovery.recovery_ms = started.elapsed().as_millis() as u64;
    }
    let live = LiveDataset {
        current: RwLock::new(snapshot),
        overlay: AtomicUsize::new(delta.overlay_len()),
        compactions: AtomicU64::new(delta.compactions()),
        persistent: opened.is_some(),
        wal_records: AtomicU64::new(0),
        wal_bytes: AtomicU64::new(0),
        checkpoint_gen_plus_one: AtomicU64::new(0),
        replayed_records: AtomicU64::new(recovery.replayed_records),
        recovery_ms: AtomicU64::new(recovery.recovery_ms),
        writer: Mutex::new(Writer {
            delta,
            labels: writer_labels,
            store: opened.map(|o| o.store),
            poisoned: None,
        }),
    };
    if let Some(ds) = &live.writer.lock().unwrap().store {
        live.mirror_store(ds);
    }
    Ok(Arc::new(live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builtin_karate_loads_and_lists() {
        let r = GraphRegistry::with_builtins();
        let before = r.list();
        let karate_row = before.iter().find(|d| d.name == "karate").unwrap();
        assert!(!karate_row.loaded, "listing must not trigger construction");
        assert_eq!(karate_row.generation, None);

        let g = r.get("karate").unwrap();
        assert_eq!(g.graph.num_nodes(), 34);
        assert_eq!(g.graph.num_edges(), 78);
        assert_eq!(g.label_of(5), 5);
        assert_eq!(g.generation, 0);

        let after = r.list();
        let karate_row = after.iter().find(|d| d.name == "karate").unwrap();
        assert!(karate_row.loaded);
        assert_eq!(karate_row.shape, Some((34, 78)));
        assert_eq!(karate_row.generation, Some(0));
        assert_eq!(karate_row.overlay, Some(0));
        assert_eq!(karate_row.compactions, Some(0));
    }

    #[test]
    fn unknown_name_is_an_error() {
        let r = GraphRegistry::with_builtins();
        assert!(r.get("nope").unwrap_err().contains("unknown dataset"));
        assert!(r
            .apply_update("nope", "1 2 0.5\n".as_bytes())
            .unwrap_err()
            .contains("unknown dataset"));
    }

    #[test]
    fn repeated_gets_share_one_arc() {
        let r = GraphRegistry::with_builtins();
        let a = r.get("ba7").unwrap();
        let b = r.get("ba7").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_first_gets_build_once() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        fn counting_build() -> datasets::Dataset {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            // Slow the build down so racers genuinely overlap.
            std::thread::sleep(std::time::Duration::from_millis(30));
            datasets::karate_club()
        }
        let mut r = GraphRegistry::new();
        r.register_builtin("slow", counting_build);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| r.get("slow").unwrap());
            }
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn file_dataset_roundtrip_and_error_caching() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mpds-registry-test-{}.txt", std::process::id()));
        std::fs::write(&path, "10 20 0.5\n20 30 0.25\n").unwrap();
        let mut r = GraphRegistry::new();
        r.register_file("mine", &path);
        r.register_file("missing", dir.join("definitely-not-here-xyz.txt"));

        let g = r.get("mine").unwrap();
        assert_eq!(g.graph.num_nodes(), 3);
        assert_eq!(g.label_of(0), 10);
        std::fs::remove_file(&path).unwrap();
        // Already built: the deleted file does not matter.
        assert!(r.get("mine").is_ok());

        let e1 = r.get("missing").unwrap_err();
        let e2 = r.get("missing").unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.contains("cannot open"));
    }

    #[test]
    fn apply_update_bumps_generation_and_swaps_snapshot() {
        let r = GraphRegistry::with_builtins();
        let g0 = r.get("karate").unwrap();
        assert_eq!(g0.generation, 0);
        let edges0 = g0.graph.num_edges();

        // Re-weight one edge, insert one edge, delete one edge. Karate is
        // identity-labeled: labels == compact ids.
        let out = r
            .apply_update("karate", "0 1 0.99\n0 9 0.5\n0 2 -\n".as_bytes())
            .unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!((out.inserted, out.reweighted, out.deleted), (1, 1, 1));
        assert_eq!(out.shape.1, edges0);

        let g1 = r.get("karate").unwrap();
        assert_eq!(g1.generation, 1);
        assert_eq!(g1.graph.edge_prob(0, 1), Some(0.99));
        assert_eq!(g1.graph.edge_prob(0, 9), Some(0.5));
        assert_eq!(g1.graph.edge_prob(0, 2), None);
        // The old snapshot is untouched — readers holding it keep serving
        // generation 0.
        assert_eq!(g0.generation, 0);
        assert_ne!(g0.graph.edge_prob(0, 1), Some(0.99));

        // Bad batches change nothing, not even the generation.
        let err = r
            .apply_update("karate", "5 5 0.4\n".as_bytes())
            .unwrap_err();
        assert!(err.contains("self-loop"), "{err}");
        assert_eq!(r.get("karate").unwrap().generation, 1);

        let info = r.list();
        let row = info.iter().find(|d| d.name == "karate").unwrap();
        assert_eq!(row.generation, Some(1));
        assert_eq!(row.overlay, Some(3));
    }

    #[test]
    fn empty_update_batch_keeps_the_generation() {
        let r = GraphRegistry::with_builtins();
        r.apply_update("karate", "0 1 0.5\n".as_bytes()).unwrap();
        let g1 = r.get("karate").unwrap();
        // Comments-only body: zero mutations, zero version churn.
        let out = r
            .apply_update("karate", "# nothing\n\n".as_bytes())
            .unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!((out.inserted, out.reweighted, out.deleted), (0, 0, 0));
        assert_eq!(r.get("karate").unwrap().generation, g1.generation);
    }

    #[test]
    fn durable_updates_recover_after_restart() {
        let data_dir =
            std::env::temp_dir().join(format!("mpds-registry-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let store =
            || Store::create(&data_dir, mpds_store::SyncPolicy::Commit).expect("create store");

        // First process: two durable batches, then a "crash" (drop without
        // checkpointing).
        let mut r = GraphRegistry::with_builtins();
        r.set_store(store());
        r.apply_update("karate", "0 1 0.9\n0 99 0.5\n".as_bytes())
            .unwrap();
        r.apply_update("karate", "0 2 -\n".as_bytes()).unwrap();
        let before = r.get("karate").unwrap();
        assert_eq!(before.generation, 2);
        drop(r);

        // Second process: recovery lands on the exact pre-crash state.
        let mut r2 = GraphRegistry::with_builtins();
        r2.set_store(store());
        let recovered = r2.recover_on_boot();
        assert_eq!(recovered.len(), 1, "only karate has durable state");
        assert_eq!(recovered[0].0, "karate");
        assert_eq!(recovered[0].1.as_ref().unwrap(), &2);
        let after = r2.get("karate").unwrap();
        assert_eq!(after.generation, 2);
        assert_eq!(after.graph.edge_prob(0, 1), Some(0.9));
        assert_eq!(after.graph.edge_prob(0, 2), None);
        let n99 = (0..after.graph.num_nodes() as NodeId)
            .find(|&v| after.label_of(v) == 99)
            .expect("appended label survives recovery");
        assert_eq!(after.graph.edge_prob(0, n99), Some(0.5));
        let row = r2.list().into_iter().find(|d| d.name == "karate").unwrap();
        assert_eq!(row.wal_records, Some(2));
        assert_eq!(row.replayed_records, Some(2));
        assert_eq!(row.last_checkpoint_generation, None);

        // The generation sequence continues, and an explicit checkpoint
        // truncates the WAL without touching the generation.
        let out = r2.apply_update("karate", "0 3 0.7\n".as_bytes()).unwrap();
        assert_eq!(out.generation, 3);
        let ck = r2.checkpoint_dataset_traced("karate", None).unwrap();
        assert_eq!(ck.generation, 3);
        assert_eq!(ck.wal_records, 0);
        drop(r2);

        // Third process: recovery now comes from the checkpoint alone.
        let mut r3 = GraphRegistry::with_builtins();
        r3.set_store(store());
        r3.recover_on_boot();
        let g3 = r3.get("karate").unwrap();
        assert_eq!(g3.generation, 3);
        assert_eq!(g3.graph.edge_prob(0, 3), Some(0.7));
        let row = r3.list().into_iter().find(|d| d.name == "karate").unwrap();
        assert_eq!(row.last_checkpoint_generation, Some(3));
        assert_eq!(row.replayed_records, Some(0));
        std::fs::remove_dir_all(&data_dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_data_dir() {
        let r = GraphRegistry::with_builtins();
        let err = r.checkpoint_dataset_traced("karate", None).unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
    }

    #[test]
    fn update_can_add_nodes_with_fresh_labels() {
        let r = GraphRegistry::with_builtins();
        let before = r.get("karate").unwrap();
        let n0 = before.graph.num_nodes();
        let out = r.apply_update("karate", "0 1000 0.5\n".as_bytes()).unwrap();
        assert_eq!(out.nodes_added, 1);
        assert_eq!(out.shape.0, n0 + 1);
        let after = r.get("karate").unwrap();
        assert_eq!(after.label_of(n0 as NodeId), 1000);
        assert_eq!(
            after.graph.edge_prob(0, n0 as NodeId),
            Some(0.5),
            "new-label edge lands on the appended node"
        );
    }
}
