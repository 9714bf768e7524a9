//! Cheap per-stage tracing: a [`Recorder`] accumulates wall time per
//! pipeline [`Stage`], and a [`Span`] is an RAII guard that times one stage
//! invocation.
//!
//! The design constraint is the sampling hot loop: when a recorder is
//! disabled (the default for un-profiled requests), [`Recorder::span`]
//! returns an inert guard without reading the clock — the whole per-world
//! cost is one branch. When enabled, each span costs two monotonic clock
//! reads (adjacent stages chained with [`Span::then`] share one) and two
//! relaxed `fetch_add`s on drop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented stages of the query pipeline, in execution order.
///
/// `SnapshotResolve`, `CacheProbe`, and `JsonRender` are timed once per
/// request by the serving engine; `WorldMaterialize`,
/// `EstimatorAccumulate`, and `StableTracker` are timed once per sampled
/// world inside the core sampling loop. `WalAppend`, `WalFsync`, and
/// `StoreCheckpoint` time the durable-store halves of a mutating request;
/// `RefineRepublish` times the background refinement worker's recompute +
/// cache republish for a budget-truncated query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Resolving the dataset name to a graph snapshot in the registry.
    SnapshotResolve,
    /// Building the cache key and probing the response cache (and joining
    /// in-flight duplicates).
    CacheProbe,
    /// Drawing the next world: mask sampling plus subgraph materialization.
    WorldMaterialize,
    /// Folding the materialized world into the density estimator.
    EstimatorAccumulate,
    /// Checking top-k stability for early stopping.
    StableTracker,
    /// Rendering the response body JSON.
    JsonRender,
    /// Framing and writing an update batch into the dataset WAL.
    WalAppend,
    /// Flushing the WAL to stable storage (`fsync`), per the sync policy.
    WalFsync,
    /// Writing a snapshot checkpoint and truncating the WAL behind it.
    StoreCheckpoint,
    /// Background refinement: recompute plus cache republish of a
    /// budget-truncated result.
    RefineRepublish,
}

impl Stage {
    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = 10;

    /// Every stage, in execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SnapshotResolve,
        Stage::CacheProbe,
        Stage::WorldMaterialize,
        Stage::EstimatorAccumulate,
        Stage::StableTracker,
        Stage::JsonRender,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::StoreCheckpoint,
        Stage::RefineRepublish,
    ];

    /// The stage's stable snake_case name, used in `?profile=1` blocks,
    /// `/debug/trace/<id>` (and `/debug/requests`, `/debug/slow`) records,
    /// and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::SnapshotResolve => "snapshot_resolve",
            Stage::CacheProbe => "cache_probe",
            Stage::WorldMaterialize => "world_materialize",
            Stage::EstimatorAccumulate => "estimator_accumulate",
            Stage::StableTracker => "stable_tracker",
            Stage::JsonRender => "json_render",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::StoreCheckpoint => "store_checkpoint",
            Stage::RefineRepublish => "refine_republish",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulates per-[`Stage`] wall time and invocation counts.
///
/// A recorder is either *enabled* (spans read the clock and record) or
/// *disabled* (spans are inert). Disabled recorders still accept
/// [`Recorder::record_ns`] and [`Recorder::absorb`], so one always-on
/// recorder can serve as a process-wide aggregation sink.
///
/// ```
/// use mpds_obs::{Recorder, Stage};
/// let rec = Recorder::new(true);
/// {
///     let _s = rec.span(Stage::JsonRender);
/// }
/// let totals = rec.totals();
/// assert_eq!(totals.count(Stage::JsonRender), 1);
/// assert_eq!(totals.count(Stage::CacheProbe), 0);
/// ```
// Cache-line aligned: a request's spans update these atomics several times,
// and a neighbouring allocation of another thread must not share a line.
#[derive(Debug)]
#[repr(align(64))]
pub struct Recorder {
    enabled: bool,
    total_ns: [AtomicU64; Stage::COUNT],
    count: [AtomicU64; Stage::COUNT],
    // Stage index + 1 of the innermost live span; 0 when idle. Lets the
    // flight recorder report what an in-flight request is doing right now.
    current: AtomicU64,
    // Helper threads lent to the request's estimator run.
    helpers: AtomicU64,
}

impl Default for Recorder {
    /// A *disabled* recorder — the right default for aggregation sinks,
    /// which are fed via [`Recorder::absorb`]/[`Recorder::record_ns`].
    fn default() -> Self {
        Recorder::new(false)
    }
}

impl Recorder {
    /// Creates a recorder; `enabled` controls whether [`Recorder::span`]
    /// reads the clock.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
            current: AtomicU64::new(0),
            helpers: AtomicU64::new(0),
        }
    }

    /// Notes how many helper threads the request's estimator run was lent
    /// (they record no spans; the flight recorder reports the count).
    pub fn set_helpers(&self, helpers: u64) {
        self.helpers.store(helpers, Ordering::Relaxed);
    }

    /// The helper count noted by [`Recorder::set_helpers`] (0 if none).
    pub fn helpers(&self) -> u64 {
        self.helpers.load(Ordering::Relaxed)
    }

    /// Whether spans from this recorder time their stage.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing `stage`; the returned guard records on drop. When the
    /// recorder is disabled this is a no-op that never reads the clock.
    #[inline]
    #[must_use = "the span records its stage when dropped"]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        if self.enabled {
            let prev = self
                .current
                .swap(stage.index() as u64 + 1, Ordering::Relaxed);
            Span {
                active: Some((self, stage, Instant::now(), prev)),
            }
        } else {
            Span { active: None }
        }
    }

    /// The stage the innermost live [`Span`] is timing right now, or `None`
    /// when no span is active (or the recorder is disabled).
    pub fn current_stage(&self) -> Option<Stage> {
        let marker = self.current.load(Ordering::Relaxed);
        if marker == 0 {
            None
        } else {
            Stage::ALL.get(marker as usize - 1).copied()
        }
    }

    /// Directly adds one invocation of `stage` lasting `ns` nanoseconds,
    /// bypassing the enabled gate (used for aggregation sinks).
    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        let i = stage.index();
        self.total_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a finished request's [`StageTotals`] into this recorder
    /// (aggregating per-request profiles into process totals).
    pub fn absorb(&self, totals: &StageTotals) {
        for i in 0..Stage::COUNT {
            self.total_ns[i].fetch_add(totals.total_ns[i], Ordering::Relaxed);
            self.count[i].fetch_add(totals.count[i], Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time copy of the accumulated stage totals.
    pub fn totals(&self) -> StageTotals {
        let mut t = StageTotals::default();
        for i in 0..Stage::COUNT {
            t.total_ns[i] = self.total_ns[i].load(Ordering::Relaxed);
            t.count[i] = self.count[i].load(Ordering::Relaxed);
        }
        t
    }
}

/// RAII guard returned by [`Recorder::span`]; records elapsed wall time for
/// its stage when dropped (inert when the recorder is disabled).
#[derive(Debug)]
pub struct Span<'a> {
    active: Option<(&'a Recorder, Stage, Instant, u64)>,
}

impl<'a> Span<'a> {
    /// Ends this span and starts timing `next` from the same instant, so two
    /// adjacent stages cost three clock reads instead of four. An inert span
    /// stays inert.
    #[must_use = "the span records its stage when dropped"]
    pub fn then(mut self, next: Stage) -> Span<'a> {
        let Some((rec, stage, start, prev)) = self.active.take() else {
            return self;
        };
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        rec.record_ns(stage, ns);
        rec.current
            .store(next.index() as u64 + 1, Ordering::Relaxed);
        Span {
            active: Some((rec, next, now, prev)),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((rec, stage, start, prev)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.record_ns(stage, ns);
            rec.current.store(prev, Ordering::Relaxed);
        }
    }
}

/// An owned copy of a [`Recorder`]'s accumulated state: total nanoseconds
/// and invocation count per stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    total_ns: [u64; Stage::COUNT],
    count: [u64; Stage::COUNT],
}

impl StageTotals {
    /// Total nanoseconds accumulated for `stage`.
    pub fn total_ns(&self, stage: Stage) -> u64 {
        self.total_ns[stage.index()]
    }

    /// Total microseconds accumulated for `stage` (integer division).
    pub fn total_us(&self, stage: Stage) -> u64 {
        self.total_ns[stage.index()] / 1_000
    }

    /// Number of recorded invocations of `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.count[stage.index()]
    }

    /// Sums another totals into this one.
    pub fn merge(&mut self, other: &StageTotals) {
        for i in 0..Stage::COUNT {
            self.total_ns[i] += other.total_ns[i];
            self.count[i] += other.count[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let rec = Recorder::new(false);
        for stage in Stage::ALL {
            let _s = rec.span(stage);
        }
        assert_eq!(rec.totals(), StageTotals::default());
    }

    #[test]
    fn enabled_spans_count_and_accumulate() {
        let rec = Recorder::new(true);
        for _ in 0..3 {
            let _s = rec.span(Stage::EstimatorAccumulate);
        }
        let t = rec.totals();
        assert_eq!(t.count(Stage::EstimatorAccumulate), 3);
        assert_eq!(t.count(Stage::WorldMaterialize), 0);
    }

    #[test]
    fn concurrent_spans_merge_exactly() {
        use std::sync::Arc;
        let shared = Arc::new(Recorder::new(true));
        let locals: Vec<Arc<Recorder>> = (0..4).map(|_| Arc::new(Recorder::new(true))).collect();
        std::thread::scope(|scope| {
            for local in &locals {
                let shared = Arc::clone(&shared);
                let local = Arc::clone(local);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        let stage = Stage::ALL[(i as usize) % Stage::COUNT];
                        shared.record_ns(stage, i);
                        local.record_ns(stage, i);
                    }
                });
            }
        });
        let global = Recorder::new(false);
        for local in &locals {
            global.absorb(&local.totals());
        }
        assert_eq!(global.totals(), shared.totals());
        let counts: u64 = Stage::ALL.iter().map(|&s| global.totals().count(s)).sum();
        assert_eq!(counts, 20_000);
    }

    #[test]
    fn current_stage_tracks_nested_spans() {
        let rec = Recorder::new(true);
        assert_eq!(rec.current_stage(), None);
        {
            let _outer = rec.span(Stage::WorldMaterialize);
            assert_eq!(rec.current_stage(), Some(Stage::WorldMaterialize));
            {
                let _inner = rec.span(Stage::WalFsync);
                assert_eq!(rec.current_stage(), Some(Stage::WalFsync));
            }
            assert_eq!(rec.current_stage(), Some(Stage::WorldMaterialize));
        }
        assert_eq!(rec.current_stage(), None);
        let disabled = Recorder::new(false);
        let _s = disabled.span(Stage::JsonRender);
        assert_eq!(disabled.current_stage(), None);
    }

    #[test]
    fn then_hands_one_instant_from_a_stage_to_the_next() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span(Stage::WalAppend);
            let first = rec.span(Stage::SnapshotResolve);
            let second = first.then(Stage::CacheProbe);
            assert_eq!(rec.current_stage(), Some(Stage::CacheProbe));
            drop(second);
            assert_eq!(rec.current_stage(), Some(Stage::WalAppend));
        }
        let t = rec.totals();
        assert_eq!(t.count(Stage::SnapshotResolve), 1);
        assert_eq!(t.count(Stage::CacheProbe), 1);
        assert_eq!(rec.current_stage(), None);
        let disabled = Recorder::new(false);
        drop(
            disabled
                .span(Stage::SnapshotResolve)
                .then(Stage::CacheProbe),
        );
        assert_eq!(disabled.totals(), StageTotals::default());
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "snapshot_resolve",
                "cache_probe",
                "world_materialize",
                "estimator_accumulate",
                "stable_tracker",
                "json_render",
                "wal_append",
                "wal_fsync",
                "store_checkpoint",
                "refine_republish"
            ]
        );
    }
}
