//! HTTP-layer observability: the per-endpoint latency histogram bank and
//! structured access-log records.
//!
//! The serving engine already owns its own counters ([`crate::engine::EngineObs`]);
//! this module covers the front end. Request latency is recorded into one
//! [`Histogram`] per `(endpoint, cache source, status class)` combination —
//! a flat bank of atomics, so recording is lock-free and a `/metrics`
//! scrape never blocks a worker. Access-log lines are rendered through the
//! same deterministic [`JsonWriter`] as every response body.

use crate::json::JsonWriter;
use mpds_obs::{BucketExemplars, ExemplarSnapshot, Gauge, Histogram, HistogramSnapshot};

/// The served endpoints, as latency-metric label values.
///
/// `Other` covers 404s, bad request lines, and method mismatches — traffic
/// that never resolved to a real route but still consumed a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /` and `GET /healthz`.
    Healthz,
    /// `GET /datasets`.
    Datasets,
    /// `GET /dataset`.
    Dataset,
    /// `GET /query`.
    Query,
    /// `POST /batch`.
    Batch,
    /// `GET /diff`.
    Diff,
    /// `POST /update`.
    Update,
    /// `POST /admin/checkpoint`.
    Checkpoint,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/*` introspection (requests, slow, trace lookup) — one
    /// bounded-cardinality label for the whole family.
    Debug,
    /// Anything that matched no route.
    Other,
}

impl Endpoint {
    /// Number of endpoint labels (the length of [`Endpoint::ALL`]).
    pub const COUNT: usize = 11;

    /// Every endpoint label.
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Healthz,
        Endpoint::Datasets,
        Endpoint::Dataset,
        Endpoint::Query,
        Endpoint::Batch,
        Endpoint::Diff,
        Endpoint::Update,
        Endpoint::Checkpoint,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    /// Maps a request path (no query string) to its endpoint label.
    pub fn classify(path: &str) -> Endpoint {
        if path == "/debug" || path.starts_with("/debug/") {
            return Endpoint::Debug;
        }
        match path {
            "/" | "/healthz" => Endpoint::Healthz,
            "/datasets" => Endpoint::Datasets,
            "/dataset" => Endpoint::Dataset,
            "/query" => Endpoint::Query,
            "/batch" => Endpoint::Batch,
            "/diff" => Endpoint::Diff,
            "/update" => Endpoint::Update,
            "/admin/checkpoint" => Endpoint::Checkpoint,
            "/metrics" => Endpoint::Metrics,
            _ => Endpoint::Other,
        }
    }

    /// The stable label value used in metrics and access logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Datasets => "datasets",
            Endpoint::Dataset => "dataset",
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Diff => "diff",
            Endpoint::Update => "update",
            Endpoint::Checkpoint => "checkpoint",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }

    /// Whether this endpoint is the server observing itself (`/metrics`
    /// scrapes, `/debug/*` introspection) — excluded from the slow-query
    /// ring so self-traffic cannot crowd out real slow queries.
    pub fn is_self_observation(self) -> bool {
        matches!(self, Endpoint::Metrics | Endpoint::Debug)
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Datasets => 1,
            Endpoint::Dataset => 2,
            Endpoint::Query => 3,
            Endpoint::Batch => 4,
            Endpoint::Diff => 5,
            Endpoint::Update => 6,
            Endpoint::Checkpoint => 7,
            Endpoint::Metrics => 8,
            Endpoint::Debug => 9,
            Endpoint::Other => 10,
        }
    }
}

/// Where a response's bytes came from, as a latency-metric label.
///
/// Mirrors the `X-Cache` header values; `None` labels endpoints that have
/// no result cache (everything except `/query`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceLabel {
    /// Served from the result cache (`X-Cache: HIT`).
    Hit,
    /// Computed by this request (`X-Cache: MISS`).
    Miss,
    /// Joined an identical in-flight computation (`X-Cache: COALESCED`).
    Coalesced,
    /// No cache involved (non-`/query` endpoints and error responses).
    None,
}

impl SourceLabel {
    /// Number of source labels (the length of [`SourceLabel::ALL`]).
    pub const COUNT: usize = 4;

    /// Every source label.
    pub const ALL: [SourceLabel; SourceLabel::COUNT] = [
        SourceLabel::Hit,
        SourceLabel::Miss,
        SourceLabel::Coalesced,
        SourceLabel::None,
    ];

    /// Maps an `X-Cache` header value (if any) to its label.
    pub fn from_header(x_cache: Option<&str>) -> SourceLabel {
        match x_cache {
            Some("HIT") => SourceLabel::Hit,
            Some("MISS") => SourceLabel::Miss,
            Some("COALESCED") => SourceLabel::Coalesced,
            _ => SourceLabel::None,
        }
    }

    /// The stable label value used in metrics and access logs.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceLabel::Hit => "HIT",
            SourceLabel::Miss => "MISS",
            SourceLabel::Coalesced => "COALESCED",
            SourceLabel::None => "NONE",
        }
    }

    fn index(self) -> usize {
        match self {
            SourceLabel::Hit => 0,
            SourceLabel::Miss => 1,
            SourceLabel::Coalesced => 2,
            SourceLabel::None => 3,
        }
    }
}

/// HTTP status class, as a latency-metric label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatusClass {
    /// 200–299.
    Success,
    /// 400–499.
    ClientError,
    /// 500–599.
    ServerError,
    /// Anything else (this server emits none today).
    Other,
}

impl StatusClass {
    /// Number of status classes (the length of [`StatusClass::ALL`]).
    pub const COUNT: usize = 4;

    /// Every status class.
    pub const ALL: [StatusClass; StatusClass::COUNT] = [
        StatusClass::Success,
        StatusClass::ClientError,
        StatusClass::ServerError,
        StatusClass::Other,
    ];

    /// Maps a numeric status code to its class.
    pub fn from_status(status: u16) -> StatusClass {
        match status / 100 {
            2 => StatusClass::Success,
            4 => StatusClass::ClientError,
            5 => StatusClass::ServerError,
            _ => StatusClass::Other,
        }
    }

    /// The stable label value used in metrics and access logs.
    pub fn as_str(self) -> &'static str {
        match self {
            StatusClass::Success => "2xx",
            StatusClass::ClientError => "4xx",
            StatusClass::ServerError => "5xx",
            StatusClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            StatusClass::Success => 0,
            StatusClass::ClientError => 1,
            StatusClass::ServerError => 2,
            StatusClass::Other => 3,
        }
    }
}

/// The front end's lock-free metric state: one latency [`Histogram`] per
/// `(endpoint, source, status class)` plus the in-flight request gauge.
#[derive(Debug)]
pub struct HttpObs {
    bank: Vec<Histogram>,
    exemplars: Vec<BucketExemplars>,
    /// Requests currently being read, routed, or written.
    pub inflight: Gauge,
}

impl Default for HttpObs {
    fn default() -> Self {
        HttpObs::new()
    }
}

impl HttpObs {
    /// Creates the bank with every histogram empty.
    pub fn new() -> Self {
        let cells = Endpoint::COUNT * SourceLabel::COUNT * StatusClass::COUNT;
        HttpObs {
            bank: (0..cells).map(|_| Histogram::new()).collect(),
            exemplars: (0..cells).map(|_| BucketExemplars::new()).collect(),
            inflight: Gauge::new(),
        }
    }

    fn cell(endpoint: Endpoint, source: SourceLabel, class: StatusClass) -> usize {
        (endpoint.index() * SourceLabel::COUNT + source.index()) * StatusClass::COUNT
            + class.index()
    }

    /// Records one request's wall time and remembers its trace id as the
    /// latency bucket's exemplar. A zero `trace_id` records the sample
    /// without touching the exemplar slot.
    pub fn record_traced(
        &self,
        endpoint: Endpoint,
        source: SourceLabel,
        status: u16,
        wall_us: u64,
        trace_id: u64,
    ) {
        let class = StatusClass::from_status(status);
        let cell = Self::cell(endpoint, source, class);
        self.bank[cell].record(wall_us);
        self.exemplars[cell].observe(wall_us, trace_id);
    }

    /// The per-bucket exemplar snapshot for one series, for the `/metrics`
    /// Prometheus renderer to pair with the matching histogram snapshot.
    pub fn exemplars(
        &self,
        endpoint: Endpoint,
        source: SourceLabel,
        class: StatusClass,
    ) -> ExemplarSnapshot {
        self.exemplars[Self::cell(endpoint, source, class)].snapshot()
    }

    /// Snapshots every series that has recorded at least one request —
    /// the `/metrics` renderer emits only these, keeping the exposition
    /// proportional to observed traffic rather than the full 176-cell bank,
    /// and derives its request counters from the same snapshots.
    pub fn series(&self) -> Vec<(Endpoint, SourceLabel, StatusClass, HistogramSnapshot)> {
        let mut out = Vec::new();
        for e in Endpoint::ALL {
            for s in SourceLabel::ALL {
                for c in StatusClass::ALL {
                    let snap = self.bank[Self::cell(e, s, c)].snapshot();
                    if snap.count() > 0 {
                        out.push((e, s, c, snap));
                    }
                }
            }
        }
        out
    }
}

/// One access-log line's fields. Optional fields are omitted from the
/// rendered JSON when absent, so a line carries exactly what was known.
#[derive(Debug, Default)]
pub struct AccessRecord<'a> {
    /// Monotonic per-process request id.
    pub id: u64,
    /// The request's flight-recorder trace id (16 lowercase hex digits),
    /// when tracing minted one.
    pub trace_id: Option<&'a str>,
    /// Endpoint label (see [`Endpoint::as_str`]).
    pub endpoint: &'a str,
    /// Request method (`GET`/`POST`), when the request line parsed.
    pub method: Option<&'a str>,
    /// Response status code.
    pub status: u16,
    /// `X-Cache` provenance for `/query` responses.
    pub source: Option<&'a str>,
    /// Dataset the request addressed, when the route resolved one.
    pub dataset: Option<&'a str>,
    /// Dataset generation served against (`/query` only).
    pub generation: Option<u64>,
    /// Estimator stop reason scraped from the response body.
    pub stop_reason: Option<&'a str>,
    /// Worlds sampled, scraped from the response body.
    pub worlds_sampled: Option<u64>,
    /// End-to-end wall time in microseconds (read → route → write).
    pub wall_us: u64,
}

/// Renders one access-log record as a single JSON line (no trailing
/// newline). Field order is fixed; absent optionals are omitted.
///
/// ```
/// use mpds_service::obs::{render_access_record, AccessRecord};
/// let line = render_access_record(&AccessRecord {
///     id: 7,
///     endpoint: "healthz",
///     method: Some("GET"),
///     status: 200,
///     wall_us: 120,
///     ..AccessRecord::default()
/// });
/// assert_eq!(
///     line,
///     r#"{"id":7,"endpoint":"healthz","method":"GET","status":200,"wall_us":120}"#
/// );
/// ```
pub fn render_access_record(r: &AccessRecord) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().field_uint("id", r.id);
    if let Some(t) = r.trace_id {
        w.field_str("trace_id", t);
    }
    w.field_str("endpoint", r.endpoint);
    if let Some(m) = r.method {
        w.field_str("method", m);
    }
    w.field_uint("status", r.status as u64);
    if let Some(s) = r.source {
        w.field_str("source", s);
    }
    if let Some(d) = r.dataset {
        w.field_str("dataset", d);
    }
    if let Some(g) = r.generation {
        w.field_uint("generation", g);
    }
    if let Some(s) = r.stop_reason {
        w.field_str("stop_reason", s);
    }
    if let Some(n) = r.worlds_sampled {
        w.field_uint("worlds_sampled", n);
    }
    w.field_uint("wall_us", r.wall_us).end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_route() {
        assert_eq!(Endpoint::classify("/"), Endpoint::Healthz);
        assert_eq!(Endpoint::classify("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::classify("/datasets"), Endpoint::Datasets);
        assert_eq!(Endpoint::classify("/dataset"), Endpoint::Dataset);
        assert_eq!(Endpoint::classify("/query"), Endpoint::Query);
        assert_eq!(Endpoint::classify("/batch"), Endpoint::Batch);
        assert_eq!(Endpoint::classify("/diff"), Endpoint::Diff);
        assert_eq!(Endpoint::classify("/update"), Endpoint::Update);
        assert_eq!(
            Endpoint::classify("/admin/checkpoint"),
            Endpoint::Checkpoint
        );
        assert_eq!(Endpoint::classify("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::classify("/debug"), Endpoint::Debug);
        assert_eq!(Endpoint::classify("/debug/requests"), Endpoint::Debug);
        assert_eq!(Endpoint::classify("/debug/slow"), Endpoint::Debug);
        assert_eq!(
            Endpoint::classify("/debug/trace/00000000000000ab"),
            Endpoint::Debug
        );
        assert_eq!(Endpoint::classify("/debuggery"), Endpoint::Other);
        assert_eq!(Endpoint::classify("/nope"), Endpoint::Other);
        assert!(Endpoint::Debug.is_self_observation());
        assert!(Endpoint::Metrics.is_self_observation());
        assert!(!Endpoint::Query.is_self_observation());
    }

    #[test]
    fn label_indices_are_bijective() {
        // Every (endpoint, source, class) triple maps to a distinct cell.
        let mut seen = std::collections::HashSet::new();
        for e in Endpoint::ALL {
            for s in SourceLabel::ALL {
                for c in StatusClass::ALL {
                    assert!(seen.insert(HttpObs::cell(e, s, c)));
                }
            }
        }
        assert_eq!(
            seen.len(),
            Endpoint::COUNT * SourceLabel::COUNT * StatusClass::COUNT
        );
        assert_eq!(
            seen.into_iter().max().unwrap() + 1,
            HttpObs::new().bank.len()
        );
    }

    #[test]
    fn source_label_round_trips_the_header() {
        assert_eq!(SourceLabel::from_header(Some("HIT")), SourceLabel::Hit);
        assert_eq!(SourceLabel::from_header(Some("MISS")), SourceLabel::Miss);
        assert_eq!(
            SourceLabel::from_header(Some("COALESCED")),
            SourceLabel::Coalesced
        );
        assert_eq!(SourceLabel::from_header(None), SourceLabel::None);
        assert_eq!(SourceLabel::from_header(Some("weird")), SourceLabel::None);
    }

    #[test]
    fn status_classes() {
        assert_eq!(StatusClass::from_status(200), StatusClass::Success);
        assert_eq!(StatusClass::from_status(204), StatusClass::Success);
        assert_eq!(StatusClass::from_status(400), StatusClass::ClientError);
        assert_eq!(StatusClass::from_status(404), StatusClass::ClientError);
        assert_eq!(StatusClass::from_status(503), StatusClass::ServerError);
        assert_eq!(StatusClass::from_status(302), StatusClass::Other);
    }

    #[test]
    fn record_lands_in_the_right_series_and_series_skips_empties() {
        let obs = HttpObs::new();
        obs.record_traced(Endpoint::Query, SourceLabel::Hit, 200, 150, 0);
        obs.record_traced(Endpoint::Query, SourceLabel::Hit, 200, 250, 0);
        obs.record_traced(Endpoint::Query, SourceLabel::Miss, 504, 9_000, 0);
        let series = obs.series();
        assert_eq!(series.len(), 2);
        let (e, s, c, snap) = series[0];
        assert_eq!(
            (e, s, c, snap.count()),
            (Endpoint::Query, SourceLabel::Hit, StatusClass::Success, 2)
        );
        assert_eq!(snap.sum(), 400);
        let (e, s, c, snap) = series[1];
        assert_eq!(
            (e, s, c, snap.count()),
            (
                Endpoint::Query,
                SourceLabel::Miss,
                StatusClass::ServerError,
                1
            )
        );
        assert_eq!(snap.sum(), 9_000);
    }

    #[test]
    fn traced_records_leave_exemplars_in_the_right_cell() {
        let obs = HttpObs::new();
        obs.record_traced(Endpoint::Query, SourceLabel::Miss, 200, 300, 0xbeef);
        let ex = obs.exemplars(Endpoint::Query, SourceLabel::Miss, StatusClass::Success);
        let (trace, value) = ex.get(mpds_obs::bucket_index(300)).unwrap();
        assert_eq!((trace, value), (0xbeef, 300));
        // Zero trace ids record the sample but never claim an exemplar slot.
        obs.record_traced(Endpoint::Query, SourceLabel::Hit, 200, 300, 0);
        assert!(obs
            .exemplars(Endpoint::Query, SourceLabel::Hit, StatusClass::Success)
            .is_empty());
    }

    #[test]
    fn access_record_with_all_fields_pins_its_layout() {
        let line = render_access_record(&AccessRecord {
            id: 42,
            trace_id: Some("00000000000000ab"),
            endpoint: "query",
            method: Some("GET"),
            status: 200,
            source: Some("MISS"),
            dataset: Some("karate"),
            generation: Some(3),
            stop_reason: Some("fixed_theta"),
            worlds_sampled: Some(320),
            wall_us: 12_345,
        });
        assert_eq!(
            line,
            concat!(
                r#"{"id":42,"trace_id":"00000000000000ab","endpoint":"query","#,
                r#""method":"GET","status":200,"#,
                r#""source":"MISS","dataset":"karate","generation":3,"#,
                r#""stop_reason":"fixed_theta","worlds_sampled":320,"wall_us":12345}"#
            )
        );
        // The line is itself valid JSON under the workspace parser.
        assert!(crate::json::JsonValue::parse(&line).is_ok());
    }
}
