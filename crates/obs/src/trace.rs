//! Cheap per-stage tracing: a [`Recorder`] accumulates wall time per
//! pipeline [`Stage`], a [`Span`] is an RAII guard that times one stage
//! invocation, and [`StageHistograms`] folds finished recorders into one
//! latency histogram per stage.
//!
//! The design constraint is the sampling hot loop: when a recorder is
//! disabled (a server run with its flight recorder off), [`Recorder::span`]
//! returns an inert guard without reading the clock — the whole per-world
//! cost is one branch. When enabled, each span costs two monotonic clock
//! reads (adjacent stages chained with [`Span::then`] share one) and two
//! relaxed `fetch_add`s on drop.

use crate::hist::{BucketExemplars, ExemplarSnapshot, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented stages of the query pipeline, in execution order.
///
/// `SnapshotResolve`, `CacheProbe`, and `JsonRender` are timed once per
/// request by the serving engine; `WorldMaterialize`,
/// `EstimatorAccumulate`, and `StableTracker` are timed once per sampled
/// world inside the core sampling loop, and `LaneJoin` and `RankSelect`
/// once per estimator run after it. `WalAppend`, `WalFsync`, and
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
    /// The calling lane of an estimator run at the lanes' meeting point:
    /// from when it stops claiming worlds until the last batch of sets
    /// handed to it is credited, which is once every other lane has
    /// stopped claiming and handed over what it holds (at once, for a run
    /// without helpers).
    LaneJoin,
    /// Ranking at the end of an estimator run, on the calling thread:
    /// folding its lane's shard of the candidate table, selecting the
    /// shard's top k, and waiting for the other lanes' top k.
    RankSelect,
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
    pub const COUNT: usize = 12;

    /// Every stage, in execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SnapshotResolve,
        Stage::CacheProbe,
        Stage::WorldMaterialize,
        Stage::EstimatorAccumulate,
        Stage::StableTracker,
        Stage::LaneJoin,
        Stage::RankSelect,
        Stage::JsonRender,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::StoreCheckpoint,
        Stage::RefineRepublish,
    ];

    /// The stage's stable snake_case name, used in `/debug/trace/<id>` (and
    /// `/debug/requests`, `/debug/slow`) records and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::SnapshotResolve => "snapshot_resolve",
            Stage::CacheProbe => "cache_probe",
            Stage::WorldMaterialize => "world_materialize",
            Stage::EstimatorAccumulate => "estimator_accumulate",
            Stage::StableTracker => "stable_tracker",
            Stage::LaneJoin => "lane_join",
            Stage::RankSelect => "rank_select",
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
/// *disabled* (spans are inert).
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
    /// bypassing the enabled gate.
    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        let i = stage.index();
        self.total_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
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
    /// Total microseconds accumulated for `stage` (integer division).
    pub fn total_us(&self, stage: Stage) -> u64 {
        self.total_ns[stage.index()] / 1_000
    }

    /// Number of recorded invocations of `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.count[stage.index()]
    }
}

/// One log2 [`Histogram`] of microseconds per [`Stage`], each paired with a
/// [`BucketExemplars`] bank keyed by trace id: the process-wide view of
/// every finished recorder's stage breakdown.
///
/// [`StageHistograms::observe`] records one observation per stage that ran
/// (count ≥ 1), valued at that stage's total microseconds in the recorder,
/// so a histogram's count is the number of requests that ran the stage and
/// its sum their summed stage time.
///
/// ```
/// use mpds_obs::{Recorder, Stage, StageHistograms};
/// let rec = Recorder::new(true);
/// drop(rec.span(Stage::CacheProbe));
/// drop(rec.span(Stage::CacheProbe));
/// let bank = StageHistograms::default();
/// bank.observe(&rec.totals(), 0x2a);
/// let series = bank.series();
/// assert_eq!(series.len(), 1);
/// let (stage, hist, _exemplars) = &series[0];
/// assert_eq!((*stage, hist.count()), (Stage::CacheProbe, 1));
/// ```
#[derive(Debug, Default)]
pub struct StageHistograms {
    hist: [Histogram; Stage::COUNT],
    exemplars: [BucketExemplars; Stage::COUNT],
}

impl StageHistograms {
    /// Folds one finished recorder's totals in, remembering `trace_id` as
    /// the exemplar of each bucket it lands in (`0` records no exemplar).
    pub fn observe(&self, totals: &StageTotals, trace_id: u64) {
        for stage in Stage::ALL {
            if totals.count(stage) > 0 {
                let us = totals.total_us(stage);
                self.hist[stage.index()].record(us);
                self.exemplars[stage.index()].observe(us, trace_id);
            }
        }
    }

    /// Snapshots every stage with at least one observation, in
    /// [`Stage::ALL`] order, with its exemplars.
    pub fn series(&self) -> Vec<(Stage, HistogramSnapshot, ExemplarSnapshot)> {
        Stage::ALL
            .into_iter()
            .filter_map(|stage| {
                let snap = self.hist[stage.index()].snapshot();
                (snap.count() > 0).then(|| (stage, snap, self.exemplars[stage.index()].snapshot()))
            })
            .collect()
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
                    // Whole microseconds, so per-thread totals add exactly.
                    for i in 0..5_000u64 {
                        let stage = Stage::ALL[(i as usize) % Stage::COUNT];
                        shared.record_ns(stage, i * 1_000);
                        local.record_ns(stage, i * 1_000);
                    }
                });
            }
        });
        let shared = shared.totals();
        let locals: Vec<StageTotals> = locals.iter().map(|l| l.totals()).collect();
        for stage in Stage::ALL {
            let count: u64 = locals.iter().map(|t| t.count(stage)).sum();
            let us: u64 = locals.iter().map(|t| t.total_us(stage)).sum();
            assert_eq!((count, us), (shared.count(stage), shared.total_us(stage)));
        }
        let counts: u64 = Stage::ALL.iter().map(|&s| shared.count(s)).sum();
        assert_eq!(counts, 20_000);
    }

    #[test]
    fn stage_histograms_fold_one_observation_per_stage_that_ran() {
        let bank = StageHistograms::default();
        let first = Recorder::new(true);
        first.record_ns(Stage::WorldMaterialize, 1_500);
        first.record_ns(Stage::WorldMaterialize, 2_600);
        first.record_ns(Stage::JsonRender, 700);
        bank.observe(&first.totals(), 7);
        let second = Recorder::new(true);
        second.record_ns(Stage::JsonRender, 9_000);
        bank.observe(&second.totals(), 0);
        bank.observe(&Recorder::new(false).totals(), 9);

        let series = bank.series();
        let stages: Vec<Stage> = series.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(stages, [Stage::WorldMaterialize, Stage::JsonRender]);
        // Two spans of one request are one observation of their total.
        let (_, world, world_ex) = &series[0];
        assert_eq!((world.count(), world.sum()), (1, 4));
        assert_eq!(world_ex.get(crate::bucket_index(4)), Some((7, 4)));
        // A zero trace id records the sample but claims no exemplar.
        let (_, render, render_ex) = &series[1];
        assert_eq!((render.count(), render.sum()), (2, 9));
        assert_eq!(render_ex.get(crate::bucket_index(9)), None);
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
                "lane_join",
                "rank_select",
                "json_render",
                "wal_append",
                "wal_fsync",
                "store_checkpoint",
                "refine_republish"
            ]
        );
    }
}
