//! Observability primitives for the MPDS serving stack.
//!
//! Everything here is `std`-only and lock-free on the hot path, so the
//! serving layer can record latencies and stage timings without taking a
//! mutex or calling the clock when tracing is disabled. The crate sits at
//! the bottom of the workspace dependency DAG (below `mpds` core) so both
//! the sampling loop and the HTTP front end can share one set of types.
//!
//! The pieces, bottom-up:
//!
//! * [`hist`] — fixed-layout log2-bucketed [`Histogram`]s backed by atomics,
//!   with mergeable [`HistogramSnapshot`]s and quantile interpolation.
//! * [`Counter`] / [`Gauge`] — single-cell atomic metrics.
//! * [`trace`] — the [`Recorder`]/[`Span`] stage-timing API: one monotonic
//!   clock read per span end-point when enabled, no clock reads at all when
//!   disabled; [`StageHistograms`] folds finished recorders into one
//!   histogram per stage.
//! * [`prom`] — deterministic Prometheus text exposition
//!   (`# HELP`/`# TYPE`, histogram `_bucket`/`_sum`/`_count` series).
//! * [`scrape`] — the inverse direction: flat-JSON key scans and Prometheus
//!   text parsing used by the load harness and access-log enrichment, so
//!   every scraper in the workspace shares one tested parser.
//! * [`flight`] — the per-request flight recorder: trace ids, the in-flight
//!   table behind `/debug/requests`, and the completed/slow retention rings
//!   behind `/debug/slow` and `/debug/trace/<id>`.
//! * [`slo`] — latency/availability objectives per endpoint with
//!   multi-window burn-rate tracking, exported on `/metrics`.
//!
//! ```
//! use mpds_obs::{Histogram, Recorder, Stage};
//!
//! let h = Histogram::new();
//! for us in [120u64, 450, 900, 4_000] {
//!     h.record(us);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count(), 4);
//! assert!(snap.quantile(0.5) >= 256.0 && snap.quantile(0.5) <= 1023.0);
//!
//! let rec = Recorder::new(true);
//! {
//!     let _span = rec.span(Stage::WorldMaterialize);
//!     // ... work ...
//! }
//! assert_eq!(rec.totals().count(Stage::WorldMaterialize), 1);
//! ```

pub mod flight;
pub mod hist;
pub mod prom;
pub mod scrape;
pub mod slo;
pub mod trace;

pub use flight::{FlightRecorder, TraceIdGen, TraceRecord, TraceState};
pub use hist::{
    bucket_bounds, bucket_index, BucketExemplars, ExemplarSnapshot, Histogram, HistogramSnapshot,
    BUCKETS,
};
pub use prom::PromText;
pub use slo::{SloEngine, SloKind, SloObjective, SloSnapshot};
pub use trace::{Recorder, Span, Stage, StageHistograms, StageTotals};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Microseconds elapsed since `start`, saturating instead of panicking on
/// (absurdly) long intervals — the one conversion every latency recorder in
/// the workspace shares.
///
/// ```
/// let t = std::time::Instant::now();
/// let us = mpds_obs::micros_since(t);
/// assert!(us < 1_000_000);
/// ```
pub fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A monotonically increasing atomic counter.
///
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization points.
///
/// ```
/// let c = mpds_obs::Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.value(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed atomic gauge for quantities that go up and down (queue depths,
/// in-flight requests).
///
/// Signed so that a transiently reordered `dec` before the matching `inc`
/// under relaxed ordering cannot wrap to `u64::MAX`.
///
/// ```
/// let g = mpds_obs::Gauge::new();
/// g.inc();
/// g.inc();
/// g.dec();
/// assert_eq!(g.value(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Increments the gauge by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the gauge by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}
