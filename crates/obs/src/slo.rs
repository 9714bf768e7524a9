//! Service-level objectives: per-endpoint latency/availability targets and
//! multi-window burn-rate tracking.
//!
//! An [`SloObjective`] declares what "good" means for one endpoint — either
//! a latency bound on successful responses or availability (non-5xx) — and
//! what fraction of requests must be good. The [`SloEngine`] scores every
//! request against each matching objective and maintains, per objective:
//!
//! * cumulative `good`/`bad` counters (Prometheus-friendly monotone
//!   counters, exported as `mpds_slo_requests_total{slo,verdict}`), and
//! * a rotating one-minute bucket window from which **burn rates** over a
//!   fast (5 min) and slow (1 h) window are computed at scrape time.
//!
//! The burn rate is the classic SRE ratio: `bad_fraction / error_budget`
//! where `error_budget = 1 - target`. A burn rate of 1.0 means the service
//! is spending its budget exactly as fast as the objective allows; 14.4
//! over 5 minutes is the canonical page-now threshold for a 30-day window.
//! Exposing both windows lets alerting combine them (fast window catches
//! spikes, slow window confirms they matter).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seconds covered by one burn-rate bucket.
const BUCKET_SECS: u64 = 60;
/// Buckets retained (covers the slow window).
const WINDOW_BUCKETS: usize = 60;
/// Buckets in the fast burn-rate window (5 minutes).
const FAST_BUCKETS: usize = 5;

/// What a request must satisfy to count as *good* for an objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Successful (2xx) responses must complete within the given number of
    /// microseconds; 5xx responses count as bad; other statuses (client
    /// errors, redirects) are excluded from the objective entirely.
    Latency(u64),
    /// Non-5xx responses are good, 5xx are bad (client errors are the
    /// client's fault and count as availability successes).
    Availability,
}

/// One configured objective: the endpoint label it applies to, the good
/// criterion, and the target good-fraction.
#[derive(Clone, Debug, PartialEq)]
pub struct SloObjective {
    /// Unique objective name, used as the `slo` metric label.
    pub name: String,
    /// The endpoint label this objective scores (matches
    /// `Endpoint::as_str()` in the service).
    pub endpoint: String,
    /// The good criterion.
    pub kind: SloKind,
    /// Required good fraction in `(0, 1)`, e.g. `0.99`.
    pub target: f64,
}

impl SloObjective {
    /// Parses the CLI spec format:
    /// `<endpoint>:latency:<millis>:<target>` or
    /// `<endpoint>:availability:<target>`.
    ///
    /// The objective name is derived (`query-latency-250ms`,
    /// `update-availability`), keeping the `slo` label cardinality bounded
    /// by the flag count.
    ///
    /// ```
    /// use mpds_obs::slo::{SloKind, SloObjective};
    /// let o = SloObjective::parse_spec("query:latency:250:0.99").unwrap();
    /// assert_eq!(o.name, "query-latency-250ms");
    /// assert_eq!(o.kind, SloKind::Latency(250_000));
    /// assert_eq!(o.target, 0.99);
    /// let a = SloObjective::parse_spec("update:availability:0.999").unwrap();
    /// assert_eq!(a.kind, SloKind::Availability);
    /// assert!(SloObjective::parse_spec("query:latency:abc:0.9").is_err());
    /// ```
    pub fn parse_spec(spec: &str) -> Result<SloObjective, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let err = |why: &str| format!("invalid --slo spec '{spec}': {why}");
        let parse_target = |s: &str| -> Result<f64, String> {
            let t: f64 = s
                .parse()
                .map_err(|_| err("target must be a number in (0, 1)"))?;
            if t <= 0.0 || t >= 1.0 {
                return Err(err("target must be in (0, 1)"));
            }
            Ok(t)
        };
        match parts.as_slice() {
            [endpoint, "latency", millis, target] => {
                let ms: u64 = millis
                    .parse()
                    .map_err(|_| err("latency threshold must be integer milliseconds"))?;
                if ms == 0 {
                    return Err(err("latency threshold must be positive"));
                }
                Ok(SloObjective {
                    name: format!("{endpoint}-latency-{ms}ms"),
                    endpoint: endpoint.to_string(),
                    kind: SloKind::Latency(ms * 1_000),
                    target: parse_target(target)?,
                })
            }
            [endpoint, "availability", target] => Ok(SloObjective {
                name: format!("{endpoint}-availability"),
                endpoint: endpoint.to_string(),
                kind: SloKind::Availability,
                target: parse_target(target)?,
            }),
            _ => Err(err(
                "expected <endpoint>:latency:<millis>:<target> or <endpoint>:availability:<target>",
            )),
        }
    }

    /// Scores one request: `Some(true)` good, `Some(false)` bad, `None`
    /// excluded from this objective.
    fn verdict(&self, status: u16, wall_us: u64) -> Option<bool> {
        match self.kind {
            SloKind::Latency(threshold_us) => match status {
                200..=299 => Some(wall_us <= threshold_us),
                500..=599 => Some(false),
                _ => None,
            },
            SloKind::Availability => Some(!(500..=599).contains(&status)),
        }
    }
}

/// A rotating window of per-minute good/bad buckets.
#[derive(Debug)]
struct Window {
    epoch: [u64; WINDOW_BUCKETS],
    good: [u64; WINDOW_BUCKETS],
    bad: [u64; WINDOW_BUCKETS],
}

impl Window {
    fn new() -> Self {
        Window {
            epoch: [u64::MAX; WINDOW_BUCKETS],
            good: [0; WINDOW_BUCKETS],
            bad: [0; WINDOW_BUCKETS],
        }
    }

    fn record(&mut self, epoch: u64, good: bool) {
        let i = (epoch % WINDOW_BUCKETS as u64) as usize;
        if self.epoch[i] != epoch {
            self.epoch[i] = epoch;
            self.good[i] = 0;
            self.bad[i] = 0;
        }
        if good {
            self.good[i] += 1;
        } else {
            self.bad[i] += 1;
        }
    }

    /// `(good, bad)` summed over the last `buckets` epochs ending at `now`.
    fn sum(&self, now: u64, buckets: usize) -> (u64, u64) {
        let floor = now.saturating_sub(buckets as u64 - 1);
        let mut good = 0;
        let mut bad = 0;
        for i in 0..WINDOW_BUCKETS {
            if self.epoch[i] != u64::MAX && self.epoch[i] >= floor && self.epoch[i] <= now {
                good += self.good[i];
                bad += self.bad[i];
            }
        }
        (good, bad)
    }
}

#[derive(Debug)]
struct Tracker {
    objective: SloObjective,
    good_total: AtomicU64,
    bad_total: AtomicU64,
    window: Mutex<Window>,
}

/// A point-in-time view of one objective, as exported on `/metrics`.
#[derive(Clone, Debug)]
pub struct SloSnapshot {
    /// The objective scored.
    pub objective: SloObjective,
    /// Cumulative good requests since boot.
    pub good_total: u64,
    /// Cumulative bad requests since boot.
    pub bad_total: u64,
    /// Burn rate over the fast (5 min) window.
    pub burn_fast: f64,
    /// Burn rate over the slow (1 h) window.
    pub burn_slow: f64,
}

/// Scores requests against a set of [`SloObjective`]s and serves burn-rate
/// snapshots.
///
/// ```
/// use mpds_obs::slo::{SloEngine, SloObjective};
/// let slo = SloEngine::new(vec![
///     SloObjective::parse_spec("query:latency:250:0.99").unwrap(),
/// ]);
/// slo.record("query", 200, 1_000); // good: fast 2xx
/// slo.record("query", 200, 900_000); // bad: over 250 ms
/// slo.record("query", 400, 1_000); // excluded: client error
/// slo.record("update", 200, 1_000); // different endpoint: unscored
/// let snap = &slo.snapshots()[0];
/// assert_eq!((snap.good_total, snap.bad_total), (1, 1));
/// // Half the traffic is bad against a 1% budget: burning 50× budget.
/// assert!((snap.burn_fast - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct SloEngine {
    started: Instant,
    trackers: Vec<Tracker>,
}

impl SloEngine {
    /// Creates an engine scoring the given objectives.
    pub fn new(objectives: Vec<SloObjective>) -> Self {
        SloEngine {
            started: Instant::now(),
            trackers: objectives
                .into_iter()
                .map(|objective| Tracker {
                    objective,
                    good_total: AtomicU64::new(0),
                    bad_total: AtomicU64::new(0),
                    window: Mutex::new(Window::new()),
                })
                .collect(),
        }
    }

    fn epoch_now(&self) -> u64 {
        self.started.elapsed().as_secs() / BUCKET_SECS
    }

    /// Scores one completed request against every matching objective.
    pub fn record(&self, endpoint: &str, status: u16, wall_us: u64) {
        self.record_at(self.epoch_now(), endpoint, status, wall_us);
    }

    fn record_at(&self, epoch: u64, endpoint: &str, status: u16, wall_us: u64) {
        for t in &self.trackers {
            if t.objective.endpoint != endpoint {
                continue;
            }
            let Some(good) = t.objective.verdict(status, wall_us) else {
                continue;
            };
            if good {
                t.good_total.fetch_add(1, Ordering::Relaxed);
            } else {
                t.bad_total.fetch_add(1, Ordering::Relaxed);
            }
            t.window.lock().unwrap().record(epoch, good);
        }
    }

    /// Point-in-time snapshots of every objective, in configuration order.
    pub fn snapshots(&self) -> Vec<SloSnapshot> {
        self.snapshots_at(self.epoch_now())
    }

    fn snapshots_at(&self, now: u64) -> Vec<SloSnapshot> {
        self.trackers
            .iter()
            .map(|t| {
                let budget = 1.0 - t.objective.target;
                let window = t.window.lock().unwrap();
                let burn = |buckets: usize| {
                    let (good, bad) = window.sum(now, buckets);
                    let total = good + bad;
                    if total == 0 || budget <= 0.0 {
                        0.0
                    } else {
                        (bad as f64 / total as f64) / budget
                    }
                };
                SloSnapshot {
                    objective: t.objective.clone(),
                    good_total: t.good_total.load(Ordering::Relaxed),
                    bad_total: t.bad_total.load(Ordering::Relaxed),
                    burn_fast: burn(FAST_BUCKETS),
                    burn_slow: burn(WINDOW_BUCKETS),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SloEngine {
        SloEngine::new(vec![
            SloObjective::parse_spec("query:latency:100:0.9").unwrap(),
            SloObjective::parse_spec("query:availability:0.99").unwrap(),
        ])
    }

    #[test]
    fn latency_objective_excludes_client_errors_and_counts_5xx_bad() {
        let slo = engine();
        slo.record_at(0, "query", 200, 50_000); // good
        slo.record_at(0, "query", 200, 150_000); // bad: over 100 ms
        slo.record_at(0, "query", 404, 1); // excluded from latency
        slo.record_at(0, "query", 500, 1); // bad for both objectives
        let snaps = slo.snapshots_at(0);
        let latency = &snaps[0];
        assert_eq!((latency.good_total, latency.bad_total), (1, 2));
        let avail = &snaps[1];
        // 404 is an availability success.
        assert_eq!((avail.good_total, avail.bad_total), (3, 1));
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget_per_window() {
        let slo = engine();
        // Minute 0: all good. Minute 7: 1 bad of 2 (outside the 5-minute
        // fast window by minute 12, inside the slow window).
        for _ in 0..10 {
            slo.record_at(0, "query", 200, 1_000);
        }
        slo.record_at(7, "query", 200, 999_000);
        slo.record_at(7, "query", 200, 1_000);
        let snaps = slo.snapshots_at(12);
        let latency = &snaps[0];
        // Fast window (minutes 8..=12) saw nothing.
        assert_eq!(latency.burn_fast, 0.0);
        // Slow window: 1 bad of 12 against a 10% budget.
        let expect = (1.0 / 12.0) / 0.1;
        assert!((latency.burn_slow - expect).abs() < 1e-9);
        // At minute 7 the fast window includes the bad request: 1 of 2.
        let at7 = slo.snapshots_at(7);
        assert!((at7[0].burn_fast - (0.5 / 0.1)).abs() < 1e-9);
    }

    #[test]
    fn window_buckets_recycle_after_an_hour() {
        let slo = engine();
        slo.record_at(0, "query", 500, 1);
        // An hour later the same bucket slot is reused by a new epoch.
        slo.record_at(60, "query", 200, 1_000);
        let snaps = slo.snapshots_at(60);
        assert_eq!(snaps[0].burn_slow, 0.0, "stale epoch must not leak");
        // Cumulative counters still remember everything.
        assert_eq!(snaps[0].bad_total, 1);
    }

    #[test]
    fn spec_parse_rejects_malformed_inputs() {
        for bad in [
            "query",
            "query:latency:250",
            "query:latency:0:0.9",
            "query:latency:250:1.5",
            "query:latency:250:0",
            "query:availability:2",
            "query:unknown:0.9",
        ] {
            assert!(SloObjective::parse_spec(bad).is_err(), "{bad}");
        }
    }
}
