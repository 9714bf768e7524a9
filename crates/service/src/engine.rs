//! Query engine: typed requests, deterministic responses, result caching,
//! and in-flight coalescing over the [`GraphRegistry`].
//!
//! The contract that makes serving these estimators worthwhile is
//! **determinism**: a query is fully described by
//! `(dataset, generation, algo, notion, θ, k, l_m, seed, heuristic, stop)`,
//! and two evaluations of the same key produce bytewise-identical
//! JSON. The engine exploits that twice — a sharded LRU keyed on the tuple
//! serves repeats from memory, and an in-flight table coalesces concurrent
//! identical queries so N simultaneous arrivals cost one computation, all N
//! receiving the same `Arc`'d bytes.
//!
//! The dataset **generation** entered the key with the dynamic-graph
//! subsystem: each request resolves the dataset's current snapshot first and
//! computes against exactly that snapshot, so an update never invalidates
//! anything — responses for old generations simply stop being requested and
//! age out of the LRU naturally, while in-flight queries keyed to an old
//! generation finish against the snapshot they resolved.
//!
//! A `/query` is a batch of one: `/query` and `/batch` share one path that
//! probes the cache, joins or leads each member's in-flight computation,
//! and runs every led member in one [`QuerySet`] pass. That pass, `/diff`'s
//! two runs and the background refinement share one way of building their
//! [`RunControl`], so every computing request borrows idle workers as
//! helpers ([`HelperPool`]) and times its stages into its trace.

use crate::cache::{CacheStats, ShardedLru};
use crate::json::JsonWriter;
use crate::registry::{GraphRegistry, LoadedGraph};
use densest::DensityNotion;
use mpds::api::queryset::QuerySet;
use mpds::api::{ApiError, ProgressCounter, Query, Run, Stop, StopReason};
use mpds::control::{InterruptReason, RunControl};
use mpds::recompute::Recompute;
use mpds_obs::{Counter, Gauge, Histogram, Recorder, Stage, StageHistograms};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ugraph::Pattern;

/// Which estimator a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Top-k most probable densest subgraphs (Algorithm 1).
    Mpds,
    /// Top-k nucleus densest subgraphs (Algorithm 5).
    Nds,
}

impl Algo {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algo::Mpds => "mpds",
            Algo::Nds => "nds",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mpds" => Ok(Algo::Mpds),
            "nds" => Ok(Algo::Nds),
            other => Err(format!("unknown algo {other:?} (expected mpds|nds)")),
        }
    }
}

/// Parses a density-notion name (`edge`, `Nclique`, `2star`, `3star`,
/// `c3star`, `diamond`) — the one grammar shared by the CLI `--density`
/// flag and the HTTP `notion` parameter.
pub fn parse_notion(s: &str) -> Result<DensityNotion, String> {
    match s {
        "edge" => Ok(DensityNotion::Edge),
        "2star" => Ok(DensityNotion::Pattern(Pattern::two_star())),
        "3star" => Ok(DensityNotion::Pattern(Pattern::three_star())),
        "c3star" => Ok(DensityNotion::Pattern(Pattern::c3_star())),
        "diamond" => Ok(DensityNotion::Pattern(Pattern::diamond())),
        other => {
            if let Some(h) = other.strip_suffix("clique") {
                let h: usize = h
                    .parse()
                    .map_err(|_| format!("bad clique size in {other:?}"))?;
                if !(2..=8).contains(&h) {
                    return Err(format!("clique size {h} outside 2..=8"));
                }
                Ok(DensityNotion::Clique(h))
            } else {
                Err(format!("unknown density {other:?}"))
            }
        }
    }
}

/// Stable-stop window used when a request says `stop=stable` without its
/// own `window`: wide enough that agreement is unlikely to be luck, small
/// enough to actually stop early on settled datasets.
pub const DEFAULT_STABLE_WINDOW: u32 = 32;

/// How a query decides it has sampled enough worlds — the service
/// transport of [`mpds::Stop`]. Response-affecting (a stable stop samples a
/// different world count), so it is part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopSpec {
    /// Sample exactly θ worlds (the historical behavior, and the default).
    #[default]
    Fixed,
    /// Stop early once the top-k has been unchanged for `window`
    /// consecutive worlds, with θ as the hard cap (maps onto
    /// [`mpds::Stop::Stable`]). The run keeps one lane.
    Stable {
        /// Consecutive unchanged-top-k worlds required before stopping.
        window: u32,
    },
}

impl StopSpec {
    /// Combines a `stop` policy name and a `window` into a stop spec: the
    /// one grammar of the `stop`/`window` parameters of `/query` and
    /// `/batch` and the CLI's `--stop`/`--window` flags. A `window` without
    /// `stop=stable` is rejected (it would silently do nothing).
    pub fn parse(stop: Option<&str>, window: Option<u32>) -> Result<Self, String> {
        match (stop, window) {
            (None, None) | (Some("fixed"), None) => Ok(StopSpec::Fixed),
            (Some("stable"), w) => Ok(StopSpec::Stable {
                window: w.unwrap_or(DEFAULT_STABLE_WINDOW),
            }),
            (Some("fixed"), Some(_)) | (None, Some(_)) => {
                Err("window requires stop=stable".to_string())
            }
            (Some(other), _) => Err(format!(
                "stop: unknown policy {other:?} (expected fixed|stable)"
            )),
        }
    }
}

/// A fully-parameterized query. Everything that affects the response bytes
/// is in here (and in the dataset's content, which is fixed per name);
/// `timeout_ms` and `budget_ms` only affect *whether / how far* the query
/// runs this time, so they are not part of the cache key — which is what
/// lets background refinement republish a converged answer under the same
/// key a budget-truncated response was cached under.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Registry dataset name.
    pub dataset: String,
    /// Estimator to run.
    pub algo: Algo,
    /// Density notion name (see [`parse_notion`]).
    pub notion: String,
    /// Number of sampled possible worlds θ.
    pub theta: usize,
    /// Result count.
    pub k: usize,
    /// Minimum NDS size `l_m` (ignored by MPDS).
    pub lm: usize,
    /// Sampler seed — equal seeds mean equal worlds mean equal bytes.
    pub seed: u64,
    /// Use the §III-C heuristic per world.
    pub heuristic: bool,
    /// Stop policy (see [`StopSpec`]).
    pub stop: StopSpec,
    /// Per-request *hard* deadline, if any: exceeding it aborts the query
    /// (HTTP 504).
    pub timeout_ms: Option<u64>,
    /// Per-request *graceful* time budget, if any: when it runs out the
    /// query returns its best estimate so far (HTTP 200 with
    /// `stop_reason:"budget"`) and the engine refines it to convergence in
    /// the background.
    pub budget_ms: Option<u64>,
}

impl QueryRequest {
    /// Paper-default parameters for `dataset`.
    pub fn new(dataset: &str) -> Self {
        QueryRequest {
            dataset: dataset.to_string(),
            algo: Algo::Mpds,
            notion: "edge".to_string(),
            theta: 320,
            k: 5,
            lm: 2,
            seed: 42,
            heuristic: false,
            stop: StopSpec::Fixed,
            timeout_ms: None,
            budget_ms: None,
        }
    }

    /// Validates bounds and parses the notion. Returns the parsed notion so
    /// callers validate and parse in one step.
    pub fn validate(&self) -> Result<DensityNotion, String> {
        if self.theta == 0 || self.theta > 1_000_000 {
            return Err(format!("theta {} outside 1..=1000000", self.theta));
        }
        if self.k == 0 || self.k > 10_000 {
            return Err(format!("k {} outside 1..=10000", self.k));
        }
        if self.lm == 0 {
            return Err("lm must be at least 1".to_string());
        }
        if let StopSpec::Stable { window } = self.stop {
            if window == 0 || window > 10_000 {
                return Err(format!("window {window} outside 1..=10000"));
            }
            if window as usize > self.theta {
                return Err(format!("window {window} exceeds theta {}", self.theta));
            }
        }
        parse_notion(&self.notion)
    }

    /// The cache key: every response-affecting field, including the
    /// `generation` of the dataset snapshot the query resolved (so cached
    /// responses from before an update can never be served after it — the
    /// new generation is a different key and the old entries age out of the
    /// LRU). `lm` is normalized out of MPDS keys (it does not enter
    /// Algorithm 1), so `mpds` queries differing only in `lm` share a cache
    /// line.
    pub fn key(&self, generation: u64) -> QueryKey {
        QueryKey {
            dataset: self.dataset.clone(),
            generation,
            algo: self.algo,
            notion: self.notion.clone(),
            theta: self.theta,
            k: self.k,
            lm: match self.algo {
                Algo::Mpds => 0,
                Algo::Nds => self.lm,
            },
            seed: self.seed,
            heuristic: self.heuristic,
            stop: self.stop,
        }
    }
}

/// The deterministic identity of a query (see [`QueryRequest::key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    dataset: String,
    generation: u64,
    algo: Algo,
    notion: String,
    theta: usize,
    k: usize,
    lm: usize,
    seed: u64,
    heuristic: bool,
    stop: StopSpec,
}

/// One member of a [`BatchRequest`]: the estimator-side knobs. The world
/// stream (`dataset`, `theta`, `seed`) is shared batch-wide, and so are
/// the helper threads a fixed-θ pass borrows (see [`HelperPool`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMember {
    /// Estimator to run.
    pub algo: Algo,
    /// Density notion name (see [`parse_notion`]).
    pub notion: String,
    /// Result count.
    pub k: usize,
    /// Minimum NDS size `l_m` (ignored by MPDS).
    pub lm: usize,
    /// Use the §III-C heuristic per world.
    pub heuristic: bool,
}

impl Default for BatchMember {
    fn default() -> Self {
        BatchMember {
            algo: Algo::Mpds,
            notion: "edge".to_string(),
            k: 5,
            lm: 2,
            heuristic: false,
        }
    }
}

/// Largest member count one `POST /batch` may carry. Past this a batch is
/// overload, not amortization.
pub const MAX_BATCH_MEMBERS: usize = 64;

/// A batch of queries over one shared world stream (the service transport
/// of [`mpds::QuerySet`]): many `(algo, notion, k, lm, heuristic)` members,
/// one `(dataset, theta, seed)` stream. Each member is keyed and cached
/// exactly like the equivalent `GET /query`, so members that were already
/// computed HIT the cache and only the misses share one sampling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Registry dataset name, shared by every member.
    pub dataset: String,
    /// Number of sampled possible worlds θ, shared by every member.
    pub theta: usize,
    /// Sampler seed, shared by every member.
    pub seed: u64,
    /// Stop policy, shared by every member. `Stable` stops the shared pass
    /// at the first world where **all** members' top-k have been
    /// simultaneously unchanged for `window` worlds (joint stability, the
    /// [`mpds::QuerySet`] contract). Because that joint stop point differs
    /// from each member's standalone stable stop point, stable batches run
    /// **uncached** — their bodies must not alias standalone `stop=stable`
    /// cache entries.
    pub stop: StopSpec,
    /// Per-batch *hard* deadline covering the whole shared sampling pass.
    pub timeout_ms: Option<u64>,
    /// Per-batch *graceful* time budget: when it runs out the shared pass
    /// stops and every member returns its best estimate so far.
    pub budget_ms: Option<u64>,
    /// The query members, answered in order.
    pub members: Vec<BatchMember>,
}

impl BatchRequest {
    /// Paper-default stream parameters for `dataset` with no members.
    pub fn new(dataset: &str) -> Self {
        BatchRequest {
            dataset: dataset.to_string(),
            theta: 320,
            seed: 42,
            stop: StopSpec::Fixed,
            timeout_ms: None,
            budget_ms: None,
            members: Vec::new(),
        }
    }

    /// The full standalone [`QueryRequest`] a member is equivalent to —
    /// the request whose cache key and response bytes the member shares.
    pub fn member_request(&self, m: &BatchMember) -> QueryRequest {
        QueryRequest {
            dataset: self.dataset.clone(),
            algo: m.algo,
            notion: m.notion.clone(),
            theta: self.theta,
            k: m.k,
            lm: m.lm,
            seed: self.seed,
            heuristic: m.heuristic,
            stop: self.stop,
            timeout_ms: self.timeout_ms,
            budget_ms: self.budget_ms,
        }
    }

    /// Validates the batch shape and every member (bounds shared with
    /// [`QueryRequest::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.members.is_empty() {
            return Err("batch has no members".to_string());
        }
        if self.members.len() > MAX_BATCH_MEMBERS {
            return Err(format!(
                "batch has {} members (limit {MAX_BATCH_MEMBERS})",
                self.members.len()
            ));
        }
        for (i, m) in self.members.iter().enumerate() {
            self.member_request(m)
                .validate()
                .map_err(|e| format!("member {i}: {e}"))?;
        }
        Ok(())
    }
}

/// The computed answer of a query, before serialization: node sets are
/// already mapped back to the dataset's original labels.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponsePayload {
    /// `"tau_hat"` for MPDS, `"gamma_hat"` for NDS.
    pub score_name: &'static str,
    /// Ranked `(labeled node set, score)` rows.
    pub rows: Vec<(Vec<u32>, f64)>,
    /// Sampled worlds without an instance of the notion.
    pub empty_worlds: usize,
    /// MPDS: some world hit the enumeration cap. NDS: the miner hit its
    /// node cap.
    pub truncated: bool,
    /// Worlds actually sampled — the divisor of every score above, which
    /// is what keeps early-stopped estimates unbiased.
    pub worlds_sampled: usize,
    /// Why sampling stopped: `"completed"`, `"stable"`, or `"budget"`.
    pub stop_reason: &'static str,
    /// World index at which the top-k settled (stable stops only).
    pub converged_at: Option<usize>,
}

/// Why a query failed.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Invalid parameters or unknown dataset.
    BadRequest(String),
    /// The per-request deadline passed mid-run.
    DeadlineExceeded {
        /// Worlds sampled before the deadline hit.
        completed_worlds: usize,
    },
    /// The server is shutting down.
    Cancelled,
    /// The computing thread died (never expected; reported, not cached).
    Internal(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadRequest(m) => write!(f, "{m}"),
            QueryError::DeadlineExceeded { completed_worlds } => {
                write!(
                    f,
                    "deadline exceeded after {completed_worlds} sampled worlds"
                )
            }
            QueryError::Cancelled => write!(f, "cancelled: server shutting down"),
            QueryError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// How [`QueryEngine::execute`] obtained its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Served from the result cache.
    Hit,
    /// Computed by this request.
    Miss,
    /// Joined an identical in-flight computation.
    Coalesced,
}

impl ResponseSource {
    /// Value of the `X-Cache` response header.
    pub fn as_str(self) -> &'static str {
        match self {
            ResponseSource::Hit => "HIT",
            ResponseSource::Miss => "MISS",
            ResponseSource::Coalesced => "COALESCED",
        }
    }
}

/// Validates `req` and maps it onto the one typed entry point of the core
/// crate, [`mpds::api::Query`]. The caller attaches the run's control and
/// progress sink; a [`QuerySet`] member takes its set's.
fn query_of(req: &QueryRequest) -> Result<Query, QueryError> {
    let notion = req.validate().map_err(QueryError::BadRequest)?;
    let q = match req.algo {
        Algo::Mpds => Query::mpds(notion),
        Algo::Nds => Query::nds(notion).min_size(req.lm),
    };
    Ok(q.theta(req.theta)
        .k(req.k)
        .seed(req.seed)
        .heuristic(req.heuristic)
        .stop(stop_of(req.stop, req.theta)))
}

/// Maps the wire-level [`StopSpec`] onto the core [`mpds::Stop`]: θ becomes
/// the stable cap, and `window` doubles as the minimum world count (a run
/// can never stop before it could possibly have seen `window` stable
/// worlds).
fn stop_of(spec: StopSpec, theta: usize) -> Stop {
    match spec {
        StopSpec::Fixed => Stop::FixedTheta,
        StopSpec::Stable { window } => Stop::Stable {
            window: window as usize,
            min_theta: window as usize,
            theta_cap: theta,
        },
    }
}

/// Runs a query against an already-loaded graph and maps the result to
/// labels: the CLI's computation path (`--json` or human output), a direct
/// [`Query::run`] under `ctrl` and the request's budget. A served MISS runs
/// the same query as a [`QuerySet`] member and renders the same bytes.
pub fn run_query(
    g: &LoadedGraph,
    req: &QueryRequest,
    ctrl: &RunControl,
) -> Result<ResponsePayload, QueryError> {
    let mut ctrl = ctrl.clone();
    if let Some(ms) = req.budget_ms {
        ctrl = ctrl.with_budget(Instant::now() + Duration::from_millis(ms));
    }
    let run = query_of(req)?
        .control(ctrl)
        .run(&g.graph)
        .map_err(api_error_to_query_error)?;
    Ok(payload_of(g, run))
}

/// Maps a core-API failure onto the service's error vocabulary: cooperative
/// interruptions become deadline/cancellation errors, and any other
/// rejection of the query surfaces as a client error, never as a panic.
fn api_error_to_query_error(e: ApiError) -> QueryError {
    match e {
        ApiError::Interrupted(i) => match i.reason {
            InterruptReason::DeadlineExceeded => QueryError::DeadlineExceeded {
                completed_worlds: i.completed_worlds,
            },
            InterruptReason::Cancelled => QueryError::Cancelled,
        },
        other => QueryError::BadRequest(other.to_string()),
    }
}

/// Maps a finished [`Run`] back to the dataset's original labels — the one
/// payload construction shared by `/query`, `/batch` members, and `/diff`
/// sides, which is what keeps batch member bytes identical to standalone
/// query bytes.
fn payload_of(g: &LoadedGraph, run: Run) -> ResponsePayload {
    let rows = run
        .top_k
        .into_iter()
        .map(|(set, score)| {
            (
                set.iter().map(|&v| g.label_of(v)).collect::<Vec<u32>>(),
                score,
            )
        })
        .collect();
    ResponsePayload {
        score_name: run.score.as_str(),
        rows,
        empty_worlds: run.stats.empty_worlds,
        truncated: run.stats.truncated,
        worlds_sampled: run.stats.worlds_sampled,
        stop_reason: run.stats.stop_reason.as_str(),
        converged_at: run.stats.converged_at,
    }
}

/// Serializes a query response. Field order is fixed; see [`crate::json`]
/// for why (bytewise determinism is asserted end to end). Deliberately
/// carries no wall-clock field — identical keys must render identical
/// bytes; wall time goes through
/// [`render_query_response_with_wall`] for the CLI only.
pub fn render_query_response(req: &QueryRequest, payload: &ResponsePayload) -> String {
    render_query_body(req, payload, None)
}

/// [`render_query_response`] plus a `wall_ms` entry inside the `stats`
/// block — the CLI `--json` variant, never served or cached.
pub fn render_query_response_with_wall(
    req: &QueryRequest,
    payload: &ResponsePayload,
    wall_ms: u64,
) -> String {
    render_query_body(req, payload, Some(wall_ms))
}

fn render_query_body(
    req: &QueryRequest,
    payload: &ResponsePayload,
    wall_ms: Option<u64>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", &req.dataset)
        .field_str("algo", req.algo.as_str())
        .field_str("notion", &req.notion)
        .field_uint("theta", req.theta as u64)
        .field_uint("k", req.k as u64);
    if req.algo == Algo::Nds {
        w.field_uint("lm", req.lm as u64);
    }
    w.field_uint("seed", req.seed)
        .field_bool("heuristic", req.heuristic);
    // Fixed-θ responses keep the historical layout; stable stops are echoed.
    if let StopSpec::Stable { window } = req.stop {
        w.field_str("stop", "stable")
            .field_uint("window", window as u64);
    }
    w.field_str("score", payload.score_name)
        .key("results")
        .begin_array();
    for (nodes, score) in &payload.rows {
        w.begin_object().key("nodes").begin_array();
        for &v in nodes {
            w.uint(v as u64);
        }
        w.end_array().field_float("score", *score).end_object();
    }
    w.end_array()
        .field_uint("empty_worlds", payload.empty_worlds as u64)
        .field_bool("truncated", payload.truncated)
        .key("stats")
        .begin_object()
        .field_uint("worlds_sampled", payload.worlds_sampled as u64)
        .field_str("stop_reason", payload.stop_reason);
    if let Some(at) = payload.converged_at {
        w.field_uint("converged_at", at as u64);
    }
    if let Some(ms) = wall_ms {
        w.field_uint("wall_ms", ms);
    }
    w.end_object().end_object();
    w.finish()
}

/// Serializes an applied update (the server's `POST /update` response and
/// the CLI `update` output). Field order is fixed, like every response.
pub fn render_update_response(dataset: &str, o: &crate::registry::UpdateOutcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", dataset)
        .field_uint("generation", o.generation)
        .field_uint("inserted", o.inserted as u64)
        .field_uint("reweighted", o.reweighted as u64)
        .field_uint("deleted", o.deleted as u64)
        .field_uint("nodes_added", o.nodes_added as u64)
        .field_uint("nodes", o.shape.0 as u64)
        .field_uint("edges", o.shape.1 as u64)
        .field_uint("overlay", o.overlay as u64)
        .field_uint("compactions", o.compactions)
        .end_object();
    w.finish()
}

/// Serializes a forced checkpoint (the server's `POST /admin/checkpoint`
/// response and the CLI `checkpoint` output). Field order is fixed.
pub fn render_checkpoint_response(dataset: &str, o: &crate::registry::CheckpointOutcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", dataset)
        .field_uint("generation", o.generation)
        .field_uint("wal_records", o.wal_records)
        .field_uint("wal_bytes", o.wal_bytes)
        .end_object();
    w.finish()
}

/// Serializes dataset statistics (the CLI `stats --json` output and the
/// server's `/dataset` endpoint).
pub fn render_stats(name: &str, g: &ugraph::UncertainGraph) -> String {
    let (mean, std, q) = ugraph::probability::prob_stats(g.probs());
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", name)
        .field_uint("nodes", g.num_nodes() as u64)
        .field_uint("edges", g.num_edges() as u64)
        .field_float("prob_mean", mean)
        .field_float("prob_std", std)
        .key("prob_quartiles")
        .begin_array();
    for v in q {
        w.float(v);
    }
    w.end_array().end_object();
    w.finish()
}

/// One in-flight computation: followers block on the condvar until the
/// leader fills `done`.
struct InFlight {
    done: Mutex<Option<Result<Arc<Vec<u8>>, QueryError>>>,
    cv: Condvar,
}

/// What a follower's wait produced.
enum WaitOutcome {
    /// The leader finished with this result.
    Done(Result<Arc<Vec<u8>>, QueryError>),
    /// The *follower's own* deadline passed first.
    TimedOut,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<Vec<u8>>, QueryError>) {
        let mut done = self.done.lock().unwrap();
        if done.is_none() {
            *done = Some(result);
        }
        self.cv.notify_all();
    }

    /// Waits for the leader, but no longer than the follower's own
    /// deadline (`None` waits indefinitely).
    fn wait_until(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(result) = done.as_ref() {
                return WaitOutcome::Done(result.clone());
            }
            match deadline {
                None => done = self.cv.wait(done).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return WaitOutcome::TimedOut;
                    }
                    (done, _) = self.cv.wait_timeout(done, d - now).unwrap();
                }
            }
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count (clamped internally).
    pub cache_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            cache_shards: 8,
        }
    }
}

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Queries actually computed (cache misses that ran an estimator).
    pub computed: u64,
    /// Queries that joined an in-flight identical computation.
    pub coalesced: u64,
    /// Possible worlds fully sampled across all computed queries — the live
    /// progress feed from the estimators' [`mpds::api::ProgressSink`].
    pub worlds_sampled: u64,
    /// Possible worlds requested (θ summed) across all computed queries.
    pub worlds_requested: u64,
    /// Budget-truncated answers refined to convergence in the background
    /// and republished under their original key (read from
    /// [`EngineObs::refine_ok`]).
    pub refined: u64,
}

/// Engine-side observability state, shared with the refinement worker and
/// read by the `/metrics` renderers.
///
/// Everything in here is lock-free (atomics under the hood) and safe to
/// read while the engine serves traffic.
#[derive(Debug, Default)]
pub struct EngineObs {
    /// Refinement jobs currently queued or being re-run (returns to 0 once
    /// the background worker drains).
    pub refine_queue_depth: Gauge,
    /// Wall time of completed background refinement runs, in microseconds.
    pub refine_hist: Histogram,
    /// Refinement runs that converged and republished their key.
    pub refine_ok: Counter,
    /// Refinement runs that failed (e.g. cancelled at shutdown); the
    /// truncated answer keeps serving.
    pub refine_failed: Counter,
    /// One histogram per stage, folded from every traced request's
    /// recorder (by the HTTP front end) and every background refinement
    /// run.
    pub stages: StageHistograms,
    /// Sampled worlds whose densest-subgraph enumeration hit the cap,
    /// summed over computed members (a `/query` MISS is a batch of one)
    /// and counted once per member.
    pub truncated_worlds: Counter,
    /// Sampled worlds solved by helpers lent from a [`HelperPool`] to a
    /// MISS pass or a `/diff`, counted once per world as
    /// [`EngineStats::worlds_sampled`] counts them, of which they are a
    /// part.
    pub helper_worlds: Counter,
}

/// Idle server threads whose CPU a computation may borrow: a MISS pass of
/// `/query` or `/batch`, or both runs of a `/diff`. The estimator then
/// solves its worlds in lanes, on the computing thread and on helper threads
/// ([`RunControl::with_helpers`]), with the same answer. The HTTP front end
/// lends one helper per parked worker.
pub trait HelperPool: Sync {
    /// Reserves helpers for one computation and returns how many (0 when
    /// none is idle).
    fn lend(&self) -> usize;
    /// Hands back `helpers` reserved by [`HelperPool::lend`].
    fn release(&self, helpers: usize);
}

/// Helpers reserved from a [`HelperPool`], handed back on drop.
struct Lease<'a> {
    pool: Option<&'a dyn HelperPool>,
    helpers: usize,
}

impl<'a> Lease<'a> {
    /// Reserves helpers for a run of `req`'s stream when the run can use
    /// them: a fixed-θ stream, MPDS or NDS.
    fn take(pool: Option<&'a dyn HelperPool>, req: &QueryRequest) -> Self {
        let pool = pool.filter(|_| req.stop == StopSpec::Fixed);
        Lease {
            pool,
            helpers: pool.map_or(0, |p| p.lend()),
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.filter(|_| self.helpers > 0) {
            pool.release(self.helpers);
        }
    }
}

/// The control of every run the engine computes (a MISS pass, a `/diff`,
/// a background refinement): the shutdown flag, the request's own deadline
/// and budget, its recorder (the sampling loop times world
/// materialization, estimator accumulation and stability tracking against
/// it, and it notes the helper count), and the helpers leased for it.
fn run_control(
    cancel: &Arc<AtomicBool>,
    deadline: Option<Instant>,
    budget_ms: Option<u64>,
    rec: Option<&Arc<Recorder>>,
    helpers: usize,
) -> RunControl {
    let mut ctrl = RunControl::unbounded()
        .with_cancel_flag(Arc::clone(cancel))
        .with_helpers(helpers);
    if let Some(d) = deadline {
        ctrl = ctrl.with_deadline(d);
    }
    if let Some(ms) = budget_ms {
        ctrl = ctrl.with_budget(Instant::now() + Duration::from_millis(ms));
    }
    if let Some(r) = rec {
        r.set_helpers(helpers as u64);
        ctrl = ctrl.with_recorder(Arc::clone(r));
    }
    ctrl
}

/// A query response with its provenance: the bytes, how they were obtained,
/// and the dataset generation they were computed against.
#[derive(Debug, Clone)]
pub struct TracedResponse {
    /// The JSON response body (shared with the cache).
    pub body: Arc<Vec<u8>>,
    /// Cache hit, miss, or coalesced join.
    pub source: ResponseSource,
    /// Generation of the dataset snapshot the response is keyed to.
    pub generation: u64,
}

/// One queued unit of background refinement: a budget-truncated query to
/// re-run to convergence against the exact snapshot it was answered from.
struct RefineJob {
    key: QueryKey,
    /// The original request with `budget_ms`/`timeout_ms` cleared.
    req: QueryRequest,
    graph: LoadedGraph,
}

/// The concurrent query engine: registry + cache + in-flight coalescing +
/// background refinement of budget-truncated answers.
pub struct QueryEngine {
    registry: GraphRegistry,
    cache: Arc<ShardedLru<QueryKey, Arc<Vec<u8>>>>,
    inflight: Mutex<HashMap<QueryKey, Arc<InFlight>>>,
    cancel: Arc<AtomicBool>,
    computed: AtomicU64,
    coalesced: AtomicU64,
    /// Keys queued for or undergoing refinement — the dedup gate that keeps
    /// repeated budget-truncated queries from re-enqueueing the same key.
    refining: Arc<Mutex<HashSet<QueryKey>>>,
    /// Feed to the single background refinement worker. One worker, not a
    /// thread per key: refinement is deliberately serialized so a burst of
    /// budget-truncated queries cannot starve foreground serving of CPU.
    /// The worker exits when the engine (the only sender) is dropped.
    refine_tx: Mutex<std::sync::mpsc::Sender<RefineJob>>,
    /// Shared per-world progress sink attached to every computed query.
    worlds: Arc<ProgressCounter>,
    /// Observability state shared with the refinement worker.
    obs: Arc<EngineObs>,
}

impl QueryEngine {
    /// Builds an engine over `registry`.
    pub fn new(registry: GraphRegistry, cfg: &EngineConfig) -> Self {
        let cache = Arc::new(ShardedLru::new(cfg.cache_capacity, cfg.cache_shards));
        let cancel = Arc::new(AtomicBool::new(false));
        let refining = Arc::new(Mutex::new(HashSet::new()));
        let worlds = ProgressCounter::new();
        let obs = Arc::new(EngineObs::default());
        let (refine_tx, refine_rx) = std::sync::mpsc::channel::<RefineJob>();
        {
            let cache = Arc::clone(&cache);
            let cancel = Arc::clone(&cancel);
            let refining = Arc::clone(&refining);
            let worlds = Arc::clone(&worlds);
            let obs = Arc::clone(&obs);
            std::thread::spawn(move || {
                while let Ok(job) = refine_rx.recv() {
                    let started = Instant::now();
                    // Time the whole refine-and-republish pass as its own
                    // stage, folded into the stage histograms (no trace, so
                    // no exemplar) so the background worker shows up on
                    // /metrics alongside the request-path stages.
                    let rec = Recorder::new(true);
                    {
                        let _span = rec.span(Stage::RefineRepublish);
                        let run = query_of(&job.req).and_then(|q| {
                            q.control(run_control(&cancel, None, None, None, 0))
                                .progress(Arc::clone(&worlds) as _)
                                .run(&job.graph.graph)
                                .map_err(api_error_to_query_error)
                        });
                        match run {
                            Ok(run) => {
                                let payload = payload_of(&job.graph, run);
                                let body = Arc::new(
                                    render_query_response(&job.req, &payload).into_bytes(),
                                );
                                cache.insert(job.key.clone(), body);
                                obs.refine_ok.inc();
                            }
                            Err(_) => obs.refine_failed.inc(),
                        }
                    }
                    obs.stages.observe(&rec.totals(), 0);
                    obs.refine_hist.record(mpds_obs::micros_since(started));
                    refining.lock().unwrap().remove(&job.key);
                    // Depth counts queued + in-progress jobs; the job is
                    // done only after its key is released above.
                    obs.refine_queue_depth.dec();
                }
            });
        }
        QueryEngine {
            registry,
            cache,
            inflight: Mutex::new(HashMap::new()),
            cancel,
            computed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            refining,
            refine_tx: Mutex::new(refine_tx),
            worlds,
            obs,
        }
    }

    /// The engine's observability state (refinement gauges/histogram and
    /// stage histograms), for `/metrics` rendering.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// The dataset registry.
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The shutdown flag shared with every in-flight [`RunControl`]; raising
    /// it cancels running queries cooperatively.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache.stats(),
            computed: self.computed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            worlds_sampled: self.worlds.done() as u64,
            worlds_requested: self.worlds.requested() as u64,
            refined: self.obs.refine_ok.value(),
        }
    }

    /// Executes `req`: cache hit, coalesced join, or fresh computation.
    /// The returned bytes are the JSON response body — identical `Arc`s for
    /// coalesced requests, identical bytes for cached repeats.
    ///
    /// `timeout_ms` is deliberately not part of the cache key, so a
    /// follower may join a leader with *different* deadline semantics. Two
    /// rules keep each request's own deadline authoritative: a follower
    /// waits no longer than its own deadline (then reports its own 504),
    /// and a leader's `DeadlineExceeded` is never inherited — the follower
    /// retries under its own control instead.
    pub fn execute(
        &self,
        req: &QueryRequest,
    ) -> Result<(Arc<Vec<u8>>, ResponseSource), QueryError> {
        self.execute_traced_with(req, None, None)
            .map(|t| (t.body, t.source))
    }

    /// [`Self::execute`] with provenance: the snapshot generation served
    /// against.
    pub fn execute_traced(&self, req: &QueryRequest) -> Result<TracedResponse, QueryError> {
        self.execute_traced_with(req, None, None)
    }

    /// [`Self::execute_traced`] against a caller-supplied recorder (the HTTP
    /// front end's per-request flight recorder). When the caller's recorder
    /// is enabled the evaluation is timed into it, so `/debug/trace/<id>`
    /// and the stage histograms show every request's breakdown. A MISS
    /// borrows helpers from `helpers`, when given, for its run.
    pub fn execute_traced_with(
        &self,
        req: &QueryRequest,
        caller_rec: Option<&Arc<Recorder>>,
        helpers: Option<&dyn HelperPool>,
    ) -> Result<TracedResponse, QueryError> {
        req.validate().map_err(QueryError::BadRequest)?;
        let mut out = [None];
        let (generation, _) = self.serve(
            std::slice::from_ref(req),
            true,
            caller_rec,
            helpers,
            &mut out,
        )?;
        let (body, source) = out[0].take().expect("a served query has a body");
        Ok(TracedResponse {
            body,
            source,
            generation,
        })
    }

    /// The one path behind `/query` and `/batch` (a query is a batch of
    /// one): serves the validated members `reqs` of one world stream (the
    /// stream fields, deadline and budget are `reqs[0]`'s) into `out`, in
    /// member order, and returns the snapshot generation and the stats of
    /// the computing pass, if one ran.
    ///
    /// When `cached`, each member's key is probed in the cache, and the
    /// misses are classified under one `inflight` lock: a member someone is
    /// computing joins that flight, the rest are registered and led by this
    /// request. Every led member runs in one [`QuerySet`] pass, which a
    /// [`LeaderGuard`] publishes. Joined members then wait, no longer than
    /// this request's own deadline, and one whose leader hit *its* deadline
    /// is served again. Otherwise every member is led, and nothing is
    /// published or joined.
    fn serve(
        &self,
        reqs: &[QueryRequest],
        cached: bool,
        caller_rec: Option<&Arc<Recorder>>,
        helpers: Option<&dyn HelperPool>,
        out: &mut [Option<Answer>],
    ) -> Result<(u64, Option<mpds::BatchStats>), QueryError> {
        let stream = &reqs[0];
        let rec = caller_rec.filter(|r| r.is_enabled());
        // Resolve the dataset snapshot up front: its generation is part of
        // every key, and the pass runs against exactly this snapshot even if
        // a writer swaps in a newer generation mid-flight.
        let resolving = rec.map(|r| r.span(Stage::SnapshotResolve));
        let graph = self
            .registry
            .get(&stream.dataset)
            .map_err(QueryError::BadRequest)?;
        // The cache probe, key builds included, starts where resolution ends.
        let mut probing = resolving.map(|s| s.then(Stage::CacheProbe));
        let deadline = stream
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut pass = None;
        let mut last_err = None;
        // Bounded rounds: each serves every member or sees a *leader's*
        // deadline failure (not cached, flight removed), after which the
        // member is served again and typically leads.
        for _ in 0..3 {
            let mut led = Vec::new();
            let mut flights = Vec::new();
            let mut joined = Vec::new();
            if cached {
                let mut misses = Vec::new();
                {
                    let _span = probing
                        .take()
                        .or_else(|| rec.map(|r| r.span(Stage::CacheProbe)));
                    for (i, r) in reqs.iter().enumerate() {
                        if out[i].is_some() {
                            continue;
                        }
                        let key = r.key(graph.generation);
                        match self.cache.get(&key) {
                            Some(body) => out[i] = Some((body, ResponseSource::Hit)),
                            None => misses.push((i, key)),
                        }
                    }
                }
                if !misses.is_empty() {
                    let mut map = self.inflight.lock().unwrap();
                    for (i, key) in misses {
                        if let Some(flight) = map.get(&key) {
                            joined.push((i, Arc::clone(flight)));
                        } else {
                            let flight = Arc::new(InFlight::new());
                            map.insert(key.clone(), Arc::clone(&flight));
                            flights.push((key, flight));
                            led.push(i);
                        }
                    }
                }
            } else {
                led.extend(0..reqs.len());
            }
            if !led.is_empty() {
                // The guard releases followers and unregisters the flights
                // on every exit path, a panic in the estimator included.
                let guard = LeaderGuard {
                    engine: self,
                    flights,
                    completed: false,
                };
                let lease = Lease::take(helpers, stream);
                let ctrl =
                    run_control(&self.cancel, deadline, stream.budget_ms, rec, lease.helpers);
                let set = QuerySet::new()
                    .theta(stream.theta)
                    .seed(stream.seed)
                    .stop(stop_of(stream.stop, stream.theta))
                    .control(ctrl)
                    .progress(Arc::clone(&self.worlds) as _);
                let run = led
                    .iter()
                    .try_fold(set, |set, &i| Ok(set.push(query_of(&reqs[i])?)))
                    .and_then(|set| set.run(&graph.graph).map_err(api_error_to_query_error));
                drop(lease);
                let batch = match run {
                    Ok(batch) => batch,
                    Err(e) => {
                        guard.finish(led.iter().map(|_| Err(e.clone())));
                        return Err(e);
                    }
                };
                self.computed.fetch_add(led.len() as u64, Ordering::Relaxed);
                self.obs
                    .helper_worlds
                    .add(batch.runs[0].stats.helper_worlds as u64);
                let bodies: Vec<Arc<Vec<u8>>> = batch
                    .runs
                    .into_iter()
                    .zip(&led)
                    .map(|(run, &i)| {
                        self.obs
                            .truncated_worlds
                            .add(run.stats.truncated_worlds as u64);
                        let payload = payload_of(&graph, run);
                        let _span = rec.map(|r| r.span(Stage::JsonRender));
                        Arc::new(render_query_response(&reqs[i], &payload).into_bytes())
                    })
                    .collect();
                guard.finish(bodies.iter().map(|b| Ok(Arc::clone(b))));
                for (body, &i) in bodies.into_iter().zip(&led) {
                    out[i] = Some((body, ResponseSource::Miss));
                }
                // A budget-truncated pass published truncated bodies under
                // every led key; refine each to convergence.
                if batch.stats.stop_reason == StopReason::Budget {
                    for &i in &led {
                        self.spawn_refinement(&reqs[i], &graph);
                    }
                }
                pass.get_or_insert(batch.stats);
            }
            // Joined members wait after the pass, so a duplicate member of
            // a batch never waits on its own flight before publishing it.
            self.coalesced
                .fetch_add(joined.len() as u64, Ordering::Relaxed);
            for (i, flight) in joined {
                // A coalesced join is the cache-probe stage stretched out to
                // the leader's completion, so it is timed there.
                let _span = rec.map(|r| r.span(Stage::CacheProbe));
                match flight.wait_until(deadline) {
                    WaitOutcome::Done(Ok(body)) => out[i] = Some((body, ResponseSource::Coalesced)),
                    // The leader's deadline, not ours: serve it again.
                    WaitOutcome::Done(Err(e @ QueryError::DeadlineExceeded { .. })) => {
                        last_err = Some(e)
                    }
                    WaitOutcome::Done(Err(e)) => return Err(e),
                    WaitOutcome::TimedOut => {
                        return Err(QueryError::DeadlineExceeded {
                            completed_worlds: 0,
                        })
                    }
                }
            }
            if out.iter().all(Option::is_some) {
                return Ok((graph.generation, pass));
            }
        }
        Err(last_err
            .unwrap_or_else(|| QueryError::Internal("coalescing retries exhausted".to_string())))
    }

    /// Queues a budget-truncated query for the background worker, which
    /// re-runs it to convergence and republishes the refined bytes under
    /// the **same** [`QueryKey`] (budgets are not part of the key), so a
    /// later identical request HITs the converged answer instead of the
    /// truncated one. One refinement per key at a time; failures (e.g.
    /// shutdown cancellation) are dropped silently — the truncated answer
    /// simply keeps serving.
    fn spawn_refinement(&self, req: &QueryRequest, graph: &LoadedGraph) {
        let key = req.key(graph.generation);
        if !self.refining.lock().unwrap().insert(key.clone()) {
            return; // this key is already queued or being refined
        }
        let mut full = req.clone();
        full.budget_ms = None;
        full.timeout_ms = None;
        let job = RefineJob {
            key: key.clone(),
            req: full,
            graph: graph.clone(),
        };
        // Count the job before sending so the worker's decrement (which
        // races the send returning) can never observe a missing increment.
        self.obs.refine_queue_depth.inc();
        if self.refine_tx.lock().unwrap().send(job).is_err() {
            // Worker gone (only possible mid-teardown): undo the claim.
            self.obs.refine_queue_depth.dec();
            self.refining.lock().unwrap().remove(&key);
        }
    }

    /// Executes a batch: every member is keyed and cached exactly like the
    /// equivalent standalone query, so cached members are served as HITs,
    /// members already being computed elsewhere are joined (coalesced), and
    /// only the remaining misses run — all of them over **one** shared world
    /// stream via [`mpds::QuerySet`], materializing θ worlds once instead of
    /// once per member. Member responses are bit-identical to standalone
    /// `execute` responses (the `QuerySet` contract), which is what lets
    /// them share the cache. Like [`Self::execute_traced_with`], the pass is
    /// timed into `caller_rec` when it is enabled and borrows helpers from
    /// `helpers` when given.
    ///
    /// Results come back in member order with each member's
    /// [`ResponseSource`].
    pub fn execute_batch(
        &self,
        req: &BatchRequest,
        caller_rec: Option<&Arc<Recorder>>,
        helpers: Option<&dyn HelperPool>,
    ) -> Result<BatchOutcome, QueryError> {
        req.validate().map_err(QueryError::BadRequest)?;
        let requests: Vec<QueryRequest> =
            req.members.iter().map(|m| req.member_request(m)).collect();
        let mut out = vec![None; requests.len()];
        // Joint stability stops the shared pass at a world count no
        // standalone run would pick, so a stable batch's bodies must not
        // alias standalone `stop=stable` cache entries: it leads every
        // member, uncached and uncoalesced.
        let cached = req.stop == StopSpec::Fixed;
        let (_, pass) = self.serve(&requests, cached, caller_rec, helpers, &mut out)?;
        Ok(BatchOutcome {
            results: out
                .into_iter()
                .map(|r| r.expect("every member served"))
                .collect(),
            worlds_sampled: pass.as_ref().map_or(0, |p| p.worlds_sampled),
            stop_reason: pass
                .as_ref()
                .map_or("completed", |p| p.stop_reason.as_str()),
            converged_at: pass.and_then(|p| p.converged_at),
        })
    }

    /// Runs one query over two datasets under common random numbers and
    /// returns the rendered diff (see [`mpds::recompute::Recompute`]).
    /// `req.dataset` is the *after* side; `against` is the *before*
    /// baseline. Both runs share one lease of helpers from `helpers` and are
    /// timed into `caller_rec`, like a MISS; the diff is uncached (the
    /// two-dataset key space is unbounded and diffs are rare).
    pub fn execute_diff(
        &self,
        req: &QueryRequest,
        against: &str,
        caller_rec: Option<&Arc<Recorder>>,
        helpers: Option<&dyn HelperPool>,
    ) -> Result<Vec<u8>, QueryError> {
        let query = query_of(req)?;
        if req.stop != StopSpec::Fixed || req.budget_ms.is_some() {
            return Err(QueryError::BadRequest(
                "diff supports neither stop=stable nor budget_ms: common random numbers \
                 need the same fixed-θ stream on both snapshots"
                    .to_string(),
            ));
        }
        let rec = caller_rec.filter(|r| r.is_enabled());
        let resolving = rec.map(|r| r.span(Stage::SnapshotResolve));
        let after = self
            .registry
            .get(&req.dataset)
            .map_err(QueryError::BadRequest)?;
        let before = self.registry.get(against).map_err(QueryError::BadRequest)?;
        drop(resolving);
        let deadline = req
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let lease = Lease::take(helpers, req);
        let ctrl = run_control(&self.cancel, deadline, None, rec, lease.helpers);
        let report = Recompute::new(query.control(ctrl).progress(Arc::clone(&self.worlds) as _))
            .run(&before.graph, &after.graph)
            .map_err(api_error_to_query_error)?;
        drop(lease);
        self.obs
            .helper_worlds
            .add((report.before.stats.helper_worlds + report.after.stats.helper_worlds) as u64);
        let _span = rec.map(|r| r.span(Stage::JsonRender));
        Ok(render_diff_response(req, against, &before, &after, &report).into_bytes())
    }

    /// Applies one mutation batch to `dataset` (see
    /// [`crate::registry::GraphRegistry::apply_update`]): the dataset moves
    /// to its next generation and subsequent queries compute — and cache —
    /// under the new generation's key.
    pub fn apply_update(
        &self,
        dataset: &str,
        mutations: impl std::io::Read,
    ) -> Result<crate::registry::UpdateOutcome, QueryError> {
        self.apply_update_traced(dataset, mutations, None)
    }

    /// [`Self::apply_update`] with an optional flight recorder timing the
    /// store-side stages (WAL append, fsync, compaction checkpoints).
    pub fn apply_update_traced(
        &self,
        dataset: &str,
        mutations: impl std::io::Read,
        rec: Option<&Recorder>,
    ) -> Result<crate::registry::UpdateOutcome, QueryError> {
        self.registry
            .apply_update_traced(dataset, mutations, rec)
            .map_err(QueryError::BadRequest)
    }

    /// Forces a compaction + durable snapshot checkpoint of `dataset` (see
    /// [`crate::registry::GraphRegistry::checkpoint_dataset_traced`]), with
    /// an optional flight recorder timing the checkpoint write and its
    /// fsyncs. The generation is unchanged, so cached responses stay valid.
    pub fn checkpoint_traced(
        &self,
        dataset: &str,
        rec: Option<&Recorder>,
    ) -> Result<crate::registry::CheckpointOutcome, QueryError> {
        self.registry
            .checkpoint_dataset_traced(dataset, rec)
            .map_err(QueryError::BadRequest)
    }
}

/// A served member's body and how it was obtained.
type Answer = (Arc<Vec<u8>>, ResponseSource);

/// Completes the in-flight computations a leader registered, one per led
/// member, on every exit path. `finish` caches each success before
/// releasing its followers; the drop handler (leader panic) reports an
/// internal error so followers are never stranded on the condvar. Either
/// way the flights are unregistered.
struct LeaderGuard<'a> {
    engine: &'a QueryEngine,
    flights: Vec<(QueryKey, Arc<InFlight>)>,
    completed: bool,
}

impl LeaderGuard<'_> {
    fn finish(mut self, results: impl Iterator<Item = Result<Arc<Vec<u8>>, QueryError>>) {
        // Publish to the cache before releasing followers / unregistering,
        // so a request arriving between those steps still finds the result.
        for ((key, flight), result) in self.flights.iter().zip(results) {
            if let Ok(body) = &result {
                self.engine.cache.insert(key.clone(), Arc::clone(body));
            }
            flight.complete(result);
        }
        self.unregister();
        self.completed = true;
    }

    fn unregister(&self) {
        if self.flights.is_empty() {
            return;
        }
        let mut map = self.engine.inflight.lock().unwrap();
        for (key, _) in &self.flights {
            map.remove(key);
        }
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            for (_, flight) in &self.flights {
                flight.complete(Err(QueryError::Internal(
                    "query computation panicked".to_string(),
                )));
            }
            self.unregister();
        }
    }
}

/// The per-member bodies and sources of one [`QueryEngine::execute_batch`],
/// in member order.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-member `(response bytes, how they were obtained)`.
    pub results: Vec<(Arc<Vec<u8>>, ResponseSource)>,
    /// Worlds sampled by this batch's shared pass (0 when every member was
    /// served without sampling).
    pub worlds_sampled: usize,
    /// Why the shared pass stopped (`"completed"` when there was no pass).
    pub stop_reason: &'static str,
    /// For stable stops: the world count after which no member's top-k
    /// changed again.
    pub converged_at: Option<usize>,
}

impl BatchOutcome {
    /// How many members this batch actually computed (MISS members — the
    /// ones that shared the single sampling pass).
    pub fn computed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, s)| *s == ResponseSource::Miss)
            .count()
    }
}

/// Serializes a batch response: the shared stream parameters, each member's
/// body **verbatim** (byte-identical to the equivalent `GET /query` body —
/// the e2e contract), and the per-member cache sources in member order.
pub fn render_batch_response(req: &BatchRequest, outcome: &BatchOutcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", &req.dataset)
        .field_uint("theta", req.theta as u64)
        .field_uint("seed", req.seed);
    if let StopSpec::Stable { window } = req.stop {
        w.field_str("stop", "stable")
            .field_uint("window", window as u64);
    }
    w.field_uint("members", req.members.len() as u64)
        .field_uint("computed", outcome.computed() as u64)
        .key("results")
        .begin_array();
    for (body, _) in &outcome.results {
        w.raw(std::str::from_utf8(body).expect("response bodies are UTF-8 JSON"));
    }
    w.end_array().key("sources").begin_array();
    for (_, source) in &outcome.results {
        w.string(source.as_str());
    }
    w.end_array()
        .key("stats")
        .begin_object()
        .field_uint("worlds_sampled", outcome.worlds_sampled as u64)
        .field_str("stop_reason", outcome.stop_reason);
    if let Some(at) = outcome.converged_at {
        w.field_uint("converged_at", at as u64);
    }
    w.end_object().end_object();
    w.finish()
}

/// Serializes a diff response: the echoed query parameters, both labeled
/// rankings, and the structured [`mpds::recompute::TopKDiff`]. Node sets on
/// the *before* side are labeled through `before`'s table, the *after* side
/// (including `common`) through `after`'s.
pub fn render_diff_response(
    req: &QueryRequest,
    against: &str,
    before: &LoadedGraph,
    after: &LoadedGraph,
    report: &mpds::recompute::RecomputeReport,
) -> String {
    let label_rows = |w: &mut JsonWriter, g: &LoadedGraph, rows: &[(Vec<u32>, f64)]| {
        w.begin_array();
        for (set, score) in rows {
            w.begin_object().key("nodes").begin_array();
            for &v in set {
                w.uint(g.label_of(v) as u64);
            }
            w.end_array().field_float("score", *score).end_object();
        }
        w.end_array();
    };
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", &req.dataset)
        .field_str("against", against)
        .field_str("algo", req.algo.as_str())
        .field_str("notion", &req.notion)
        .field_uint("theta", req.theta as u64)
        .field_uint("k", req.k as u64);
    if req.algo == Algo::Nds {
        w.field_uint("lm", req.lm as u64);
    }
    w.field_uint("seed", req.seed)
        .field_bool("heuristic", req.heuristic)
        .field_str("score", report.after.score.as_str());
    w.key("before");
    label_rows(&mut w, before, &report.before.top_k);
    w.key("after");
    label_rows(&mut w, after, &report.after.top_k);
    w.key("entered");
    label_rows(&mut w, after, &report.diff.entered);
    w.key("left");
    label_rows(&mut w, before, &report.diff.left);
    w.key("common").begin_array();
    for shift in &report.diff.common {
        w.begin_object().key("nodes").begin_array();
        for &v in &shift.set {
            w.uint(after.label_of(v) as u64);
        }
        w.end_array()
            .field_uint("rank_before", shift.rank_before as u64)
            .field_uint("rank_after", shift.rank_after as u64)
            .field_float("score_before", shift.score_before)
            .field_float("score_after", shift.score_after)
            .end_object();
    }
    w.end_array()
        .field_bool("unchanged", report.diff.is_unchanged())
        .field_float("max_abs_score_delta", report.diff.max_abs_score_delta())
        .key("stats")
        .begin_object()
        .field_uint(
            "worlds_sampled",
            (report.before.stats.worlds_sampled + report.after.stats.worlds_sampled) as u64,
        )
        .field_str("stop_reason", report.after.stats.stop_reason.as_str())
        .end_object()
        .end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphRegistry;

    fn engine() -> QueryEngine {
        QueryEngine::new(GraphRegistry::with_builtins(), &EngineConfig::default())
    }

    fn karate_req() -> QueryRequest {
        let mut r = QueryRequest::new("karate");
        r.theta = 64;
        r.k = 3;
        r
    }

    #[test]
    fn miss_then_hit_with_identical_bytes() {
        let e = engine();
        let req = karate_req();
        let (a, src_a) = e.execute(&req).unwrap();
        let (b, src_b) = e.execute(&req).unwrap();
        assert_eq!(src_a, ResponseSource::Miss);
        assert_eq!(src_b, ResponseSource::Hit);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached Arc");
        let s = e.stats();
        assert_eq!(s.computed, 1);
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache.misses, 1);
    }

    #[test]
    fn query_miss_bodies_equal_the_run_query_bodies() {
        // `run_query` is a direct `Query::run` (the CLI's path); a served
        // MISS must render the same bytes for every run shape.
        let e = engine();
        let g = e.registry().get("karate").unwrap();
        let mut stable = karate_req();
        stable.stop = StopSpec::Stable { window: 8 };
        let mut nds = karate_req();
        nds.algo = Algo::Nds;
        let mut heuristic = karate_req();
        heuristic.heuristic = true;
        for req in [karate_req(), stable, nds, heuristic] {
            let (body, source) = e.execute(&req).unwrap();
            assert_eq!(source, ResponseSource::Miss, "{req:?}");
            let payload = run_query(&g, &req, &RunControl::unbounded()).unwrap();
            assert_eq!(
                String::from_utf8(body.to_vec()).unwrap(),
                render_query_response(&req, &payload),
                "{req:?}"
            );
        }
    }

    #[test]
    fn different_seeds_are_different_entries() {
        let e = engine();
        let mut a = karate_req();
        let mut b = karate_req();
        a.seed = 1;
        b.seed = 2;
        let (ra, _) = e.execute(&a).unwrap();
        let (rb, _) = e.execute(&b).unwrap();
        assert_ne!(ra, rb, "different seeds must not alias in the cache");
        assert_eq!(e.stats().computed, 2);
    }

    #[test]
    fn mpds_cache_key_ignores_lm() {
        let e = engine();
        let mut a = karate_req();
        let mut b = karate_req();
        a.lm = 2;
        b.lm = 5;
        e.execute(&a).unwrap();
        let (_, src) = e.execute(&b).unwrap();
        assert_eq!(src, ResponseSource::Hit);
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let e = engine();
        let mut req = karate_req();
        req.theta = 400; // long enough that the 8 racers overlap
        let bodies: Vec<(Arc<Vec<u8>>, ResponseSource)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| e.execute(&req).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(e.stats().computed, 1, "exactly one computation");
        let first = &bodies[0].0;
        for (body, _) in &bodies {
            assert_eq!(body, first, "coalesced bodies must be identical bytes");
        }
        let misses = bodies
            .iter()
            .filter(|(_, s)| *s == ResponseSource::Miss)
            .count();
        assert_eq!(misses, 1, "exactly one leader");
    }

    #[test]
    fn bad_requests_do_not_reach_the_cache() {
        let e = engine();
        let mut req = karate_req();
        req.theta = 0;
        assert!(matches!(e.execute(&req), Err(QueryError::BadRequest(_))));
        req.theta = 64;
        req.dataset = "missing".into();
        assert!(matches!(e.execute(&req), Err(QueryError::BadRequest(_))));
        req.dataset = "karate".into();
        req.notion = "tesseract".into();
        assert!(matches!(e.execute(&req), Err(QueryError::BadRequest(_))));
        assert_eq!(e.stats().computed, 0);
        assert_eq!(e.stats().cache.entries, 0);
    }

    #[test]
    fn deadline_zero_times_out_and_is_not_cached() {
        let e = engine();
        let mut req = karate_req();
        req.theta = 100_000;
        req.timeout_ms = Some(0);
        match e.execute(&req) {
            Err(QueryError::DeadlineExceeded { completed_worlds }) => {
                assert_eq!(completed_worlds, 0)
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(e.stats().cache.entries, 0);
        // The same key without the timeout computes normally.
        req.timeout_ms = None;
        req.theta = 32;
        assert!(e.execute(&req).is_ok());
    }

    #[test]
    fn follower_deadline_is_its_own_not_the_leaders() {
        // A follower with a short timeout joining a long unbounded leader
        // must time out on its *own* deadline instead of blocking for the
        // leader's full computation.
        let e = engine();
        let mut leader_req = karate_req();
        // Size the leader to about 1.5 s of serial work in this
        // build, so it is still running when the follower joins 150 ms in:
        // a fixed θ (600) once took seconds, but faster solvers and release
        // builds finish it first. One θ = 64 MISS on a separate engine
        // (after a first query loads the dataset) times a world.
        let calibrate = engine();
        calibrate.execute(&karate_req()).unwrap();
        let mut probe = karate_req();
        probe.seed += 1;
        let started = std::time::Instant::now();
        calibrate.execute(&probe).unwrap();
        let per_world = started.elapsed().as_secs_f64() / probe.theta as f64;
        leader_req.theta = ((1.5 / per_world) as usize).clamp(600, 1_000_000);
        let mut follower_req = leader_req.clone();
        follower_req.timeout_ms = Some(100);
        std::thread::scope(|s| {
            let leader = s.spawn(|| e.execute(&leader_req));
            // Let the leader register as in-flight.
            std::thread::sleep(std::time::Duration::from_millis(150));
            let started = std::time::Instant::now();
            let got = e.execute(&follower_req);
            assert!(
                matches!(got, Err(QueryError::DeadlineExceeded { .. })),
                "follower must 504 on its own deadline, got {got:?}"
            );
            assert!(
                started.elapsed() < std::time::Duration::from_secs(5),
                "follower must not wait out the leader"
            );
            let (_, src) = leader.join().unwrap().unwrap();
            assert_eq!(src, ResponseSource::Miss);
        });
        assert_eq!(e.stats().computed, 1);
    }

    #[test]
    fn update_bumps_generation_and_misses_the_cache() {
        let e = engine();
        let req = karate_req();
        let (gen0_body, src) = e.execute(&req).unwrap();
        assert_eq!(src, ResponseSource::Miss);
        assert_eq!(e.execute(&req).unwrap().1, ResponseSource::Hit);

        // Insert a certain 12-clique (edge density 5.5, present in every
        // world — denser than anything in karate): the next identical
        // request must be a MISS computed against generation 1 and rank the
        // clique first, never the stale cached bytes.
        let mut batch = String::new();
        for a in 100..112 {
            for b in (a + 1)..112 {
                batch.push_str(&format!("{a} {b} 1.0\n"));
            }
        }
        let out = e.apply_update("karate", batch.as_bytes()).unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(out.inserted, 66);
        assert_eq!(out.nodes_added, 12);
        let (gen1_body, src) = e.execute(&req).unwrap();
        assert_eq!(src, ResponseSource::Miss, "generation changed the key");
        assert_ne!(gen1_body, gen0_body, "different graph, different answer");
        let text = String::from_utf8(gen1_body.to_vec()).unwrap();
        assert!(
            text.contains("\"score\":1.0") && text.contains("100,101,102"),
            "the certain clique must rank first: {text}"
        );
        // And the new generation caches under its own key.
        let (again, src) = e.execute(&req).unwrap();
        assert_eq!(src, ResponseSource::Hit);
        assert_eq!(again, gen1_body);
        assert_eq!(e.stats().computed, 2);
    }

    #[test]
    fn update_render_shape_is_pinned() {
        let o = crate::registry::UpdateOutcome {
            generation: 3,
            inserted: 1,
            reweighted: 2,
            deleted: 0,
            nodes_added: 0,
            shape: (34, 79),
            overlay: 5,
            compactions: 1,
        };
        assert_eq!(
            render_update_response("karate", &o),
            "{\"dataset\":\"karate\",\"generation\":3,\"inserted\":1,\
             \"reweighted\":2,\"deleted\":0,\"nodes_added\":0,\"nodes\":34,\
             \"edges\":79,\"overlay\":5,\"compactions\":1}"
        );
    }

    #[test]
    fn bad_update_is_a_bad_request_and_changes_nothing() {
        let e = engine();
        let req = karate_req();
        e.execute(&req).unwrap();
        let err = e.apply_update("karate", "0 0 0.5\n".as_bytes());
        assert!(matches!(err, Err(QueryError::BadRequest(_))), "{err:?}");
        // Same generation, so the cached entry still serves.
        assert_eq!(e.execute(&req).unwrap().1, ResponseSource::Hit);
    }

    #[test]
    fn nds_and_mpds_render_distinct_shapes() {
        let e = engine();
        let mut req = karate_req();
        let (mpds_body, _) = e.execute(&req).unwrap();
        req.algo = Algo::Nds;
        let (nds_body, _) = e.execute(&req).unwrap();
        let mpds_text = String::from_utf8(mpds_body.to_vec()).unwrap();
        let nds_text = String::from_utf8(nds_body.to_vec()).unwrap();
        assert!(mpds_text.contains("\"score\":\"tau_hat\""));
        assert!(!mpds_text.contains("\"lm\""));
        assert!(nds_text.contains("\"score\":\"gamma_hat\""));
        assert!(nds_text.contains("\"lm\":2"));
    }

    #[test]
    fn render_is_stable_across_processes_in_shape() {
        // Pin the exact serialization of a tiny deterministic payload: the
        // cache, the loopback tests, and external clients all rely on
        // this byte layout never drifting silently.
        let req = QueryRequest::new("karate");
        let payload = ResponsePayload {
            score_name: "tau_hat",
            rows: vec![(vec![1, 3], 0.421875)],
            empty_worlds: 7,
            truncated: false,
            worlds_sampled: 320,
            stop_reason: "completed",
            converged_at: None,
        };
        assert_eq!(
            render_query_response(&req, &payload),
            "{\"dataset\":\"karate\",\"algo\":\"mpds\",\"notion\":\"edge\",\
             \"theta\":320,\"k\":5,\"seed\":42,\"heuristic\":false,\
             \"score\":\"tau_hat\",\"results\":[{\"nodes\":[1,3],\
             \"score\":0.421875}],\"empty_worlds\":7,\"truncated\":false,\
             \"stats\":{\"worlds_sampled\":320,\"stop_reason\":\"completed\"}}"
        );
        // The stable echo and stats extras: stop/window before score,
        // converged_at inside stats, wall_ms only in the CLI variant.
        let mut stable_req = req.clone();
        stable_req.stop = StopSpec::Stable { window: 16 };
        let stable_payload = ResponsePayload {
            worlds_sampled: 112,
            stop_reason: "stable",
            converged_at: Some(96),
            ..payload.clone()
        };
        assert_eq!(
            render_query_response(&stable_req, &stable_payload),
            "{\"dataset\":\"karate\",\"algo\":\"mpds\",\"notion\":\"edge\",\
             \"theta\":320,\"k\":5,\"seed\":42,\"heuristic\":false,\
             \"stop\":\"stable\",\"window\":16,\
             \"score\":\"tau_hat\",\"results\":[{\"nodes\":[1,3],\
             \"score\":0.421875}],\"empty_worlds\":7,\"truncated\":false,\
             \"stats\":{\"worlds_sampled\":112,\"stop_reason\":\"stable\",\
             \"converged_at\":96}}"
        );
        assert!(render_query_response_with_wall(&req, &payload, 12)
            .ends_with("\"stop_reason\":\"completed\",\"wall_ms\":12}}"));
    }

    #[test]
    fn stats_render_contains_shape() {
        let g = ugraph::UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
        let s = render_stats("demo", &g);
        assert!(s.starts_with("{\"dataset\":\"demo\",\"nodes\":3,\"edges\":2,"));
        assert!(s.contains("\"prob_quartiles\":[0.5,0.5,0.5]"));
    }

    /// A karate batch whose members vary only in `k` (theta 64, defaults
    /// otherwise), plus one NDS member to cross estimators.
    fn karate_batch(ks: &[usize]) -> BatchRequest {
        let mut b = BatchRequest::new("karate");
        b.theta = 64;
        b.members = ks
            .iter()
            .map(|&k| BatchMember {
                k,
                ..BatchMember::default()
            })
            .collect();
        b
    }

    #[test]
    fn batch_members_are_bit_identical_to_standalone_queries() {
        // The whole point of QuerySet: one shared world stream must yield
        // exactly the bytes each member would have produced standalone.
        let batch_engine = engine();
        let standalone_engine = engine();
        let mut req = karate_batch(&[2, 3]);
        req.members.push(BatchMember {
            algo: Algo::Nds,
            k: 4,
            ..BatchMember::default()
        });
        let outcome = batch_engine.execute_batch(&req, None, None).unwrap();
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.computed(), 3);
        for (i, m) in req.members.iter().enumerate() {
            let (body, source) = &outcome.results[i];
            assert_eq!(*source, ResponseSource::Miss);
            let (standalone, _) = standalone_engine.execute(&req.member_request(m)).unwrap();
            assert_eq!(**body, *standalone, "member {i} bytes diverged");
        }
        assert_eq!(batch_engine.stats().computed, 3);
    }

    #[test]
    fn batch_populates_the_cache_for_point_queries() {
        let e = engine();
        let req = karate_batch(&[2, 3, 4]);
        let outcome = e.execute_batch(&req, None, None).unwrap();
        for (i, m) in req.members.iter().enumerate() {
            let (body, source) = e.execute(&req.member_request(m)).unwrap();
            assert_eq!(source, ResponseSource::Hit, "member {i} should be cached");
            assert!(Arc::ptr_eq(&body, &outcome.results[i].0));
        }
        assert_eq!(e.stats().computed, 3, "point queries recomputed nothing");
    }

    #[test]
    fn batch_serves_already_cached_members_from_the_cache() {
        let e = engine();
        let req = karate_batch(&[2, 3, 4]);
        let (cached, _) = e.execute(&req.member_request(&req.members[1])).unwrap();
        let outcome = e.execute_batch(&req, None, None).unwrap();
        assert_eq!(outcome.results[1].1, ResponseSource::Hit);
        assert!(Arc::ptr_eq(&outcome.results[1].0, &cached));
        assert_eq!(outcome.results[0].1, ResponseSource::Miss);
        assert_eq!(outcome.results[2].1, ResponseSource::Miss);
        assert_eq!(outcome.computed(), 2, "only the misses were computed");
    }

    #[test]
    fn batch_duplicate_members_compute_once() {
        let e = engine();
        let req = karate_batch(&[3, 3]);
        let outcome = e.execute_batch(&req, None, None).unwrap();
        assert_eq!(outcome.results[0].1, ResponseSource::Miss);
        assert_eq!(outcome.results[1].1, ResponseSource::Coalesced);
        assert_eq!(outcome.results[0].0, outcome.results[1].0);
        assert_eq!(e.stats().computed, 1);
    }

    #[test]
    fn batch_samples_theta_worlds_once_not_per_member() {
        // The amortization claim, on the counter `/metrics` exports:
        // a 4-member batch advances worlds_sampled by θ, not 4θ.
        let e = engine();
        let req = karate_batch(&[2, 3, 4, 5]);
        e.execute_batch(&req, None, None).unwrap();
        assert_eq!(e.stats().worlds_sampled, 64);
        assert_eq!(e.stats().worlds_requested, 64);
    }

    #[test]
    fn batch_validation_errors_name_the_member() {
        let e = engine();
        let empty = karate_batch(&[]);
        let err = e.execute_batch(&empty, None, None).unwrap_err();
        assert!(matches!(&err, QueryError::BadRequest(m) if m.contains("no members")));
        let mut bad = karate_batch(&[2, 0]);
        bad.members[1].k = 0;
        let err = e.execute_batch(&bad, None, None).unwrap_err();
        assert!(matches!(&err, QueryError::BadRequest(m) if m.contains("member 1")));
        assert_eq!(e.stats().computed, 0);
    }

    #[test]
    fn stop_policy_is_part_of_the_cache_key() {
        // A stable-stopped answer is a different answer than the fixed-θ
        // one (different divisor, possibly different sets) — the two must
        // never alias.
        let e = engine();
        let fixed = karate_req();
        let mut stable = karate_req();
        stable.stop = StopSpec::Stable { window: 8 };
        let (a, _) = e.execute(&fixed).unwrap();
        let (b, src) = e.execute(&stable).unwrap();
        assert_eq!(src, ResponseSource::Miss);
        assert_ne!(a, b);
        let text = String::from_utf8(b.to_vec()).unwrap();
        assert!(text.contains("\"stop\":\"stable\",\"window\":8"), "{text}");
        assert!(
            text.contains("\"stop_reason\":\"stable\"")
                || text.contains("\"stop_reason\":\"completed\""),
            "{text}"
        );
        assert_eq!(e.stats().computed, 2);
        // And the stable entry itself is cached.
        assert_eq!(e.execute(&stable).unwrap().1, ResponseSource::Hit);
    }

    #[test]
    fn stable_with_a_bad_window_is_a_bad_request() {
        let e = engine();
        let mut req = karate_req();
        req.stop = StopSpec::Stable { window: 0 };
        assert!(matches!(e.execute(&req), Err(QueryError::BadRequest(_))));
        req.stop = StopSpec::Stable { window: 100 }; // > theta (64)
        assert!(matches!(e.execute(&req), Err(QueryError::BadRequest(_))));
        assert_eq!(e.stats().computed, 0);
    }

    #[test]
    fn expired_budget_returns_200_bytes_then_refines_to_convergence() {
        // The anytime contract end to end: a hopeless budget still returns
        // a best-so-far body (never an error), the truncated bytes are
        // cached, and the background refinement soon republishes the
        // converged fixed-θ answer under the *same* key.
        let e = engine();
        let mut req = karate_req();
        req.budget_ms = Some(0);
        let (body, src) = e.execute(&req).unwrap();
        assert_eq!(src, ResponseSource::Miss);
        let text = String::from_utf8(body.to_vec()).unwrap();
        assert!(text.contains("\"stop_reason\":\"budget\""), "{text}");
        // The converged body the refinement must converge to.
        let full_engine = engine();
        let mut full = req.clone();
        full.budget_ms = None;
        let (want, _) = full_engine.execute(&full).unwrap();
        // Poll the cache: a repeat of the *budgeted* request must flip to a
        // HIT of the refined (converged) bytes.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (got, src) = e.execute(&req).unwrap();
            if src == ResponseSource::Hit && *got == *want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "refinement did not land; last body: {}",
                String::from_utf8_lossy(&got)
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(e.stats().refined >= 1);
    }

    #[test]
    fn diff_of_a_dataset_against_itself_is_unchanged() {
        // Same dataset on both sides of the CRN stream: every world is
        // identical, so the report must be a perfect no-op.
        let e = engine();
        let req = karate_req();
        let body = String::from_utf8(e.execute_diff(&req, "karate", None, None).unwrap()).unwrap();
        assert!(body.contains("\"dataset\":\"karate\",\"against\":\"karate\""));
        assert!(body.contains("\"entered\":[]"));
        assert!(body.contains("\"left\":[]"));
        assert!(body.contains("\"unchanged\":true"));
        assert!(body.contains("\"max_abs_score_delta\":0"));
    }

    #[test]
    fn diff_rejects_unknown_baselines() {
        let e = engine();
        let err = e
            .execute_diff(&karate_req(), "no-such-dataset", None, None)
            .unwrap_err();
        assert!(matches!(err, QueryError::BadRequest(_)));
    }
}
