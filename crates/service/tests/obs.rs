//! End-to-end observability tests: the Prometheus `/metrics` body, its
//! counters and per-stage histograms (checked against the
//! `/debug/trace/<id>` records they fold), refinement-queue drain, and
//! access-log output — all over real loopback HTTP.

use mpds_obs::scrape;
use mpds_service::client::{http_get, http_post, Exchange};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server(engine_cfg: &EngineConfig, server_cfg: &ServerConfig) -> Server {
    let engine = Arc::new(QueryEngine::new(GraphRegistry::with_builtins(), engine_cfg));
    Server::bind("127.0.0.1:0", engine, server_cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

/// The `/metrics` body (Prometheus text).
fn scrape_prom(server: &Server) -> String {
    String::from_utf8(get(server, "/metrics").body).unwrap()
}

const STAGES: [&str; 8] = [
    "snapshot_resolve",
    "cache_probe",
    "world_materialize",
    "estimator_accumulate",
    "stable_tracker",
    "lane_join",
    "rank_select",
    "json_render",
];

/// `stage`'s `field` (`count` or `total_us`) in the `"stages"` object of a
/// rendered `/debug/trace/<id>` record. Every stage is rendered, zero-count
/// ones included, so a check that a stage ran must read its count rather
/// than the presence of its key.
fn stage_field(record: &str, stage: &str, field: &str) -> u64 {
    let doc = mpds_service::json::JsonValue::parse(record).expect("record parses");
    let mut v = &doc;
    for key in ["stages", stage, field] {
        v = v
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("no {key:?} on the way to {stage}: {record}"));
    }
    v.as_u64(stage).unwrap()
}

/// The rendered `/debug/trace/<id>` record of the request that answered `e`.
fn trace_record(server: &Server, e: &Exchange) -> String {
    let trace = e.trace_id.as_deref().expect("X-Trace-Id");
    let t = get(server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    String::from_utf8(t.body).unwrap()
}

/// Asserts that between the `/metrics` scrapes `before` and `after`, every
/// stage's `mpds_stage_duration_microseconds` histogram moved by exactly
/// what the trace `records` of the requests in between show: its count by
/// the number of records that ran the stage, its sum by their summed
/// `total_us`.
fn assert_stage_histograms_fold(before: &str, after: &str, records: &[String]) {
    let read = |text: &str, series: &str, stage: &str| {
        let name = format!("mpds_stage_duration_microseconds_{series}");
        scrape::prom_value(text, &name, &[("stage", stage)]).unwrap_or(0.0) as u64
    };
    for stage in mpds_obs::Stage::ALL.map(|s| s.as_str()) {
        let ran: Vec<&String> = records
            .iter()
            .filter(|r| stage_field(r, stage, "count") >= 1)
            .collect();
        let total_us: u64 = ran.iter().map(|r| stage_field(r, stage, "total_us")).sum();
        let moved = |series| read(after, series, stage) - read(before, series, stage);
        assert_eq!(moved("count"), ran.len() as u64, "{stage}: {after}");
        assert_eq!(moved("sum"), total_us, "{stage}: {after}");
    }
}

#[test]
fn stage_histograms_fold_every_traced_request() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=100&k=3&seed=17";
    let before = scrape_prom(&server);
    let miss = get(&server, path);
    assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
    assert_eq!(miss.x_cache.as_deref(), Some("MISS"));
    let hit = get(&server, path);
    assert_eq!(hit.status, 200, "{}", String::from_utf8_lossy(&hit.body));
    assert_eq!(hit.x_cache.as_deref(), Some("HIT"));
    // Recording stages leaves the cached bytes alone: the HIT serves
    // exactly what the MISS computed.
    assert_eq!(
        String::from_utf8_lossy(&hit.body),
        String::from_utf8_lossy(&miss.body)
    );
    let records = [trace_record(&server, &miss), trace_record(&server, &hit)];
    let after = scrape_prom(&server);
    assert_stage_histograms_fold(&before, &after, &records);

    // Not vacuous: the MISS ran the estimator, and the HIT was folded too.
    assert!(stage_field(&records[0], "estimator_accumulate", "count") >= 1);
    assert_eq!(stage_field(&records[1], "estimator_accumulate", "count"), 0);
    // The MISS ranked its candidates once; the HIT ranked nothing.
    assert!(stage_field(&records[0], "rank_select", "count") >= 1);
    assert_eq!(stage_field(&records[1], "rank_select", "count"), 0);
    assert!(stage_field(&records[1], "cache_probe", "count") >= 1);
    // Exemplars point back at the traces: the accumulate histogram's one
    // exemplar names the MISS.
    let miss_id = mpds_obs::flight::parse_trace_id(miss.trace_id.as_deref().unwrap());
    let exemplars = scrape::prom_exemplars(
        &after,
        "mpds_stage_duration_microseconds",
        &[("stage", "estimator_accumulate")],
    );
    assert!(!exemplars.is_empty(), "{after}");
    for (_, ex) in exemplars {
        assert_eq!(ex.trace_id(), miss_id, "{after}");
    }
}

#[test]
fn stage_histograms_agree_with_debug_trace() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let before = scrape_prom(&server);
    let e = get(
        &server,
        "/query?dataset=karate&theta=200&k=3&seed=37&stop=stable&window=8",
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    assert_eq!(e.x_cache.as_deref(), Some("MISS"));
    let record = trace_record(&server, &e);
    let after = scrape_prom(&server);

    // The stable-stop MISS ran every engine-side stage, its tracker
    // included, and each histogram moved by exactly what its record shows.
    for stage in STAGES {
        assert!(
            stage_field(&record, stage, "count") >= 1,
            "stage {stage} did not run: {record}"
        );
    }
    assert_stage_histograms_fold(&before, &after, &[record]);
}

#[test]
fn without_the_flight_recorder_requests_add_no_stage_samples() {
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            flight: false,
            ..ServerConfig::default()
        },
    );
    let path = "/query?dataset=karate&theta=64&k=3&seed=5";
    for source in ["MISS", "HIT"] {
        let e = get(&server, path);
        assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
        assert_eq!(e.x_cache.as_deref(), Some(source));
    }
    let text = scrape_prom(&server);
    assert_eq!(
        scrape::prom_sum(&text, "mpds_stage_duration_microseconds_count", &[]),
        None,
        "{text}"
    );
}

/// One `GET /metrics` over a raw socket with the given `Accept` header (none
/// when `None`): the response's `Content-Type` and body.
fn scrape_with_accept(server: &Server, accept: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let accept = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    stream
        .write_all(format!("GET /metrics HTTP/1.1\r\n{accept}Connection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header end");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_else(|| panic!("{head}"));
    (content_type.to_string(), body.to_string())
}

#[test]
fn metrics_is_prometheus_text_whatever_the_accept_header() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    // Seed one query so the request-duration family has samples.
    let e = get(&server, "/query?dataset=karate&theta=32&k=3&seed=5");
    assert_eq!(e.status, 200);

    // No Accept header, a JSON Accept header, and a Prometheus one all get
    // the same text exposition.
    let scrapes: Vec<String> = [None, Some("application/json"), Some("text/plain")]
        .into_iter()
        .map(|accept| {
            let (content_type, body) = scrape_with_accept(&server, accept);
            assert_eq!(content_type, mpds_obs::prom::CONTENT_TYPE, "{accept:?}");
            assert!(body.starts_with("# HELP "), "{accept:?}: {body}");
            assert!(
                body.contains("# TYPE mpds_http_request_duration_microseconds histogram"),
                "{accept:?}: {body}"
            );
            body
        })
        .collect();
    let prom_body = &scrapes[1];

    // The query that ran is reconstructible as an exact histogram window:
    // one 2xx /query observation across all 64 buckets.
    let hist = scrape::prom_histogram(
        prom_body,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    )
    .expect("query histogram present");
    assert_eq!(hist.count(), 1);
    assert!(hist.sum() > 0);

    assert_eq!(
        scrape::prom_value(prom_body, "mpds_queries_computed_total", &[]),
        Some(1.0)
    );
    // Three connections by the second scrape (query, first scrape, this
    // scrape), each counted on accept; the first two requests are served,
    // this one is still being answered. Their ratio is requests per
    // connection.
    assert_eq!(
        scrape::prom_value(prom_body, "mpds_connections_accepted_total", &[]),
        Some(3.0)
    );
    assert_eq!(
        scrape::prom_value(prom_body, "mpds_served_total", &[]),
        Some(2.0)
    );
}

#[test]
fn each_request_counter_reads_exactly_its_requests() {
    let dir = std::env::temp_dir().join(format!(
        "mpds-obs-counters-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut registry = GraphRegistry::with_builtins();
    registry.set_store(
        mpds_store::Store::create(&dir, mpds_store::SyncPolicy::Commit).expect("create store"),
    );
    let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        &ServerConfig {
            mutable: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let post = |path: &str, body: &[u8]| {
        http_post(server.local_addr(), path, body, Duration::from_secs(60))
            .expect("http_post")
            .status
    };

    assert_eq!(post("/update?dataset=karate", b"0 1 0.9\n"), 200);
    assert_eq!(post("/update?dataset=karate", b"not an edge\n"), 400);
    assert_eq!(
        post(
            "/batch",
            br#"{"dataset":"karate","theta":16,"members":[{"k":2}]}"#
        ),
        200
    );
    assert_eq!(
        get(&server, "/diff?dataset=karate&against=karate&theta=16&k=2").status,
        200
    );
    assert_eq!(post("/admin/checkpoint?dataset=karate", b""), 200);

    let text = scrape_prom(&server);
    let value = |name: &str, labels: &[(&str, &str)]| scrape::prom_value(&text, name, labels);
    for name in [
        "mpds_updates_total",
        "mpds_batches_total",
        "mpds_diffs_total",
        "mpds_checkpoints_total",
    ] {
        assert_eq!(value(name, &[]), Some(1.0), "{name}: {text}");
    }
    // The rejected update is filed under its endpoint as a 4xx.
    assert_eq!(
        scrape::prom_sum(
            &text,
            "mpds_http_request_duration_microseconds_count",
            &[("endpoint", "update"), ("status", "4xx")]
        ),
        Some(1.0),
        "{text}"
    );
    // Every request is counted once: mpds_served_total is the sum of the
    // request histogram bank.
    let requests = scrape::prom_sum(&text, "mpds_http_request_duration_microseconds_count", &[]);
    assert_eq!(requests, Some(5.0), "{text}");
    assert_eq!(value("mpds_served_total", &[]), requests, "{text}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refine_queue_reports_depth_and_drains_to_zero() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    // A budget-truncated query enqueues a background refinement job.
    let e = get(
        &server,
        "/query?dataset=karate&theta=2000&k=3&seed=23&budget_ms=1",
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("\"stop_reason\":\"budget\""));

    // Poll /metrics until the worker finishes: the refined counter
    // increments and the queue-depth gauge returns to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let text = loop {
        let m = scrape_prom(&server);
        if scrape::prom_value(&m, "mpds_queries_refined_total", &[]) == Some(1.0)
            && scrape::prom_value(&m, "mpds_refine_queue_depth", &[]) == Some(0.0)
        {
            break m;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "refinement did not drain within the deadline; last: {m}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    // One completed run, no failed one, one latency observation.
    assert_eq!(
        scrape::prom_value(&text, "mpds_refine_runs_total", &[("outcome", "ok")]),
        Some(1.0)
    );
    assert_eq!(
        scrape::prom_value(&text, "mpds_refine_runs_total", &[("outcome", "failed")]),
        Some(0.0)
    );
    let refine_hist =
        scrape::prom_histogram(&text, "mpds_refine_duration_microseconds", &[]).unwrap();
    assert_eq!(refine_hist.count(), 1);
    // Every run, whatever its outcome, is one refine_republish sample.
    assert_eq!(
        scrape::prom_value(
            &text,
            "mpds_stage_duration_microseconds_count",
            &[("stage", "refine_republish")]
        ),
        scrape::prom_sum(&text, "mpds_refine_runs_total", &[]),
        "{text}"
    );
}

#[test]
fn access_log_records_each_request_as_jsonl() {
    let log_path = std::env::temp_dir().join(format!(
        "mpds-obs-access-{}-{}.jsonl",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    );

    assert_eq!(get(&server, "/healthz").status, 200);
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=11");
    assert_eq!(q.status, 200);
    assert_eq!(get(&server, "/nope").status, 404);

    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for line in &lines {
        // Every line is valid JSON under the server's own parser and starts
        // with a monotone request id.
        assert!(line.starts_with("{\"id\":"), "{line}");
        mpds_service::json::JsonValue::parse(line).expect("log line parses");
    }
    assert!(
        lines[0].contains("\"endpoint\":\"healthz\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"method\":\"GET\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
    assert!(lines[0].contains("\"wall_us\":"), "{}", lines[0]);

    // The query line carries the full provenance: cache source, dataset,
    // generation, stop reason, and worlds sampled.
    assert!(lines[1].contains("\"endpoint\":\"query\""), "{}", lines[1]);
    assert!(lines[1].contains("\"source\":\"MISS\""), "{}", lines[1]);
    assert!(lines[1].contains("\"dataset\":\"karate\""), "{}", lines[1]);
    assert!(lines[1].contains("\"generation\":"), "{}", lines[1]);
    assert!(
        lines[1].contains("\"stop_reason\":\"completed\""),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("\"worlds_sampled\":32"), "{}", lines[1]);

    assert!(lines[2].contains("\"endpoint\":\"other\""), "{}", lines[2]);
    assert!(lines[2].contains("\"status\":404"), "{}", lines[2]);

    drop(server);
    let _ = std::fs::remove_file(&log_path);
}

/// The store-side stages an `/update` against a durable dataset must record.
const STORE_STAGES: [&str; 2] = ["wal_append", "wal_fsync"];

#[test]
fn every_response_carries_a_trace_id_that_resolves_via_debug_trace() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());

    // A computed query (stable stop, so every engine-side stage fires): the
    // header trace id resolves to a completed record with the full
    // per-stage breakdown.
    let q = get(
        &server,
        "/query?dataset=karate&theta=200&k=3&seed=31&stop=stable&window=8",
    );
    assert_eq!(q.status, 200);
    let trace = q.trace_id.clone().expect("X-Trace-Id on /query");
    assert_eq!(trace.len(), 16, "{trace}");
    assert!(
        trace
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "{trace}"
    );

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let body = String::from_utf8(t.body).unwrap();
    assert!(
        body.contains(&format!("\"trace_id\":\"{trace}\"")),
        "{body}"
    );
    assert!(body.contains("\"state\":\"completed\""), "{body}");
    assert!(body.contains("\"endpoint\":\"query\""), "{body}");
    assert!(body.contains("\"status\":200"), "{body}");
    assert!(body.contains("\"wall_us\":"), "{body}");
    for stage in STAGES {
        assert!(
            stage_field(&body, stage, "count") >= 1,
            "stage {stage} did not run: {body}"
        );
    }

    // Error responses are traced too.
    let nf = get(&server, "/nope");
    assert_eq!(nf.status, 404);
    assert!(nf.trace_id.is_some());

    // Trace id 0 is never minted, so it is deterministically unknown; a
    // malformed id is a 400. Both failures still mint their own trace ids.
    let missing = get(&server, "/debug/trace/0000000000000000");
    assert_eq!(missing.status, 404);
    assert!(missing.trace_id.is_some());
    let bad = get(&server, "/debug/trace/not-a-trace-id");
    assert_eq!(bad.status, 400);
    assert!(bad.trace_id.is_some());
}

/// `mpds_helper_worlds_total` from a fresh `/metrics` scrape.
fn helper_worlds_total(server: &Server) -> f64 {
    let text = scrape_prom(server);
    scrape::prom_value(&text, "mpds_helper_worlds_total", &[]).unwrap_or_else(|| panic!("{text}"))
}

/// The `/debug/trace/<id>` record of a cold karate MISS on a server with
/// `threads` workers, and how far it moved `mpds_helper_worlds_total`. The
/// MISS is a GET of `path`, or a POST of `body` to it.
fn cold_miss_trace(
    threads: usize,
    path: &str,
    body: Option<&[u8]>,
) -> (mpds_service::json::JsonValue, f64) {
    let cfg = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = start_server(&EngineConfig::default(), &cfg);
    assert_eq!(get(&server, "/healthz").status, 200);
    // Give every worker time to park waiting for a connection.
    std::thread::sleep(Duration::from_millis(50));
    let before = helper_worlds_total(&server);
    std::thread::sleep(Duration::from_millis(50));
    let q = match body {
        Some(body) => {
            http_post(server.local_addr(), path, body, Duration::from_secs(60)).expect("http_post")
        }
        None => get(&server, path),
    };
    assert_eq!(q.status, 200, "{}", String::from_utf8_lossy(&q.body));
    // Only a /query answer names its cache source.
    if path.starts_with("/query") {
        assert_eq!(q.x_cache.as_deref(), Some("MISS"));
    }
    let body = trace_record(&server, &q);
    let record = mpds_service::json::JsonValue::parse(&body).expect("trace parses");
    (record, helper_worlds_total(&server) - before)
}

#[test]
fn a_cold_miss_borrows_the_parked_worker_as_a_helper() {
    let field = |record: &mpds_service::json::JsonValue, key: &str| {
        record.get(key).unwrap().unwrap().as_u64(key).unwrap()
    };
    let mpds = "/query?dataset=karate&theta=320&k=3&seed=41";
    let batch = br#"{"dataset":"karate","theta":320,"seed":41,
        "members":[{"k":3},{"algo":"nds","k":3}]}"#;
    for (path, body) in [
        (mpds, None),
        ("/query?dataset=karate&algo=nds&theta=320&k=3&seed=41", None),
        ("/batch", Some(&batch[..])),
        (
            "/diff?dataset=karate&against=karate&theta=320&k=3&seed=41",
            None,
        ),
    ] {
        let (record, moved) = cold_miss_trace(2, path, body);
        assert_eq!(field(&record, "helpers"), 1, "{path}: {record:?}");
        assert!(moved > 0.0, "{path}: the helper solved no world");
        // Helpers record no spans: the stages still fit in the wall time.
        let stages = record.get("stages").unwrap().unwrap();
        let stage = |stage: &str, key: &str| {
            let s = stages.get(stage).unwrap().unwrap();
            s.get(key).unwrap().unwrap().as_u64(stage).unwrap()
        };
        assert!(
            stage("estimator_accumulate", "count") > 0,
            "{path}: {record:?}"
        );
        let total: u64 = STAGES.iter().map(|s| stage(s, "total_us")).sum();
        assert!(total <= field(&record, "wall_us"), "{path}: {record:?}");
    }

    let (record, moved) = cold_miss_trace(1, mpds, None);
    assert_eq!(field(&record, "helpers"), 0, "{record:?}");
    assert_eq!(moved, 0.0);
}

#[test]
fn a_helped_miss_times_its_lane_join_and_its_hit_does_not() {
    let cfg = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let server = start_server(&EngineConfig::default(), &cfg);
    assert_eq!(get(&server, "/healthz").status, 200);
    // Give the other worker time to park, so the MISS borrows it.
    std::thread::sleep(Duration::from_millis(100));
    let path = "/query?dataset=karate&theta=64&k=3&seed=9002";
    let miss = get(&server, path);
    assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
    assert_eq!(miss.x_cache.as_deref(), Some("MISS"));
    let hit = get(&server, path);
    assert_eq!(hit.x_cache.as_deref(), Some("HIT"));
    assert_eq!(hit.body, miss.body);
    let records = [trace_record(&server, &miss), trace_record(&server, &hit)];
    let doc = mpds_service::json::JsonValue::parse(&records[0]).unwrap();
    let helpers = doc.get("helpers").unwrap().unwrap().as_u64("helpers");
    assert_eq!(helpers.unwrap(), 1, "{}", records[0]);
    // The MISS's calling lane met its helper once, then ranked its shard;
    // the HIT ran neither.
    assert!(stage_field(&records[0], "lane_join", "count") >= 1);
    assert!(stage_field(&records[0], "rank_select", "count") >= 1);
    assert_eq!(stage_field(&records[1], "lane_join", "count"), 0);
    assert_eq!(stage_field(&records[1], "rank_select", "count"), 0);
}

#[test]
fn zero_threshold_promotes_queries_but_never_debug_self_traffic() {
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            slow_ms: Some(0),
            ..ServerConfig::default()
        },
    );

    // /debug/requests registers before it routes, so the snapshot it
    // renders always contains its own in-flight trace.
    let dr = get(&server, "/debug/requests");
    assert_eq!(dr.status, 200);
    let own = dr.trace_id.clone().expect("X-Trace-Id on /debug/requests");
    let dr_body = String::from_utf8(dr.body).unwrap();
    assert!(
        dr_body.contains(&format!("\"trace_id\":\"{own}\"")),
        "{dr_body}"
    );
    assert!(dr_body.contains("\"state\":\"in_flight\""), "{dr_body}");

    // One query under the zero threshold: promoted into the slow ring.
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=41");
    assert_eq!(q.status, 200);
    let q_trace = q.trace_id.clone().unwrap();

    let slow = get(&server, "/debug/slow");
    assert_eq!(slow.status, 200);
    let slow_body = String::from_utf8(slow.body).unwrap();
    assert!(
        slow_body.contains(&format!("\"trace_id\":\"{q_trace}\"")),
        "{slow_body}"
    );
    assert!(slow_body.contains("\"slow\":true"), "{slow_body}");
    // Self-observation traffic (/debug/*, /metrics) is never promoted, even
    // at a zero threshold.
    assert!(!slow_body.contains(&own), "{slow_body}");

    // The promotion counter is visible on /metrics.
    let text = scrape_prom(&server);
    assert!(
        scrape::prom_value(&text, "mpds_slow_queries_total", &[]).is_some_and(|v| v >= 1.0),
        "{text}"
    );
}

#[test]
fn update_traces_record_wal_and_fsync_stages() {
    let dir = std::env::temp_dir().join(format!(
        "mpds-obs-trace-store-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut registry = GraphRegistry::with_builtins();
    registry.set_store(
        mpds_store::Store::create(&dir, mpds_store::SyncPolicy::Commit).expect("create store"),
    );
    let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        &ServerConfig {
            mutable: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let before = scrape_prom(&server);
    let e = mpds_service::client::http_post(
        server.local_addr(),
        "/update?dataset=karate",
        b"0 1 0.9\n",
        Duration::from_secs(60),
    )
    .expect("http_post");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let body = trace_record(&server, &e);
    assert!(body.contains("\"endpoint\":\"update\""), "{body}");
    for stage in STORE_STAGES {
        assert!(
            stage_field(&body, stage, "count") >= 1,
            "store stage {stage} did not run: {body}"
        );
    }
    // The update's WAL stages reach /metrics as one observation each.
    assert_stage_histograms_fold(&before, &scrape_prom(&server), &[body]);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn histogram_exemplars_carry_the_latest_trace_id() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=91");
    assert_eq!(q.status, 200);
    let trace = q.trace_id.clone().unwrap();

    let text = scrape_prom(&server);
    let exemplars = scrape::prom_exemplars(
        &text,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    );
    assert_eq!(exemplars.len(), 1, "{text}");
    assert_eq!(
        exemplars[0].1.trace_id(),
        mpds_obs::flight::parse_trace_id(&trace),
        "{text}"
    );
}

#[test]
fn slo_families_expose_targets_and_burn_rates() {
    // Default objectives: query latency p99 < 250 ms at 0.99, plus 0.999
    // availability on /query and /update.
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let q = get(&server, "/query?dataset=karate&theta=16&k=3&seed=51");
    assert_eq!(q.status, 200);

    let text = scrape_prom(&server);

    assert_eq!(
        scrape::prom_value(&text, "mpds_slo_target", &[("slo", "query-latency-250ms")]),
        Some(0.99),
        "{text}"
    );
    assert_eq!(
        scrape::prom_value(&text, "mpds_slo_target", &[("slo", "query-availability")]),
        Some(0.999),
        "{text}"
    );
    // The one fast 200 scored good on both query objectives; /update saw no
    // traffic at all.
    for slo in ["query-latency-250ms", "query-availability"] {
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_requests_total",
                &[("slo", slo), ("verdict", "good")]
            ),
            Some(1.0),
            "{slo}: {text}"
        );
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_requests_total",
                &[("slo", slo), ("verdict", "bad")]
            ),
            Some(0.0),
            "{slo}: {text}"
        );
    }
    assert_eq!(
        scrape::prom_value(
            &text,
            "mpds_slo_requests_total",
            &[("slo", "update-availability"), ("verdict", "good")]
        ),
        Some(0.0),
        "{text}"
    );
    // No bad requests anywhere: every burn rate reads exactly zero.
    for window in ["5m", "1h"] {
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_burn_rate",
                &[("slo", "query-availability"), ("window", window)]
            ),
            Some(0.0),
            "{window}: {text}"
        );
    }
}

/// Runs `clients` threads that each GET `per_client` paths from `path_of`,
/// asserting every answer is 200; returns the client-side latencies.
fn concurrent_gets(
    server: &Server,
    clients: usize,
    per_client: usize,
    path_of: &(dyn Fn(usize, usize) -> String + Sync),
) -> Vec<Duration> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let e = get(server, &path_of(c, i));
                            assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
                            e.latency
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

#[test]
fn flight_harness_mini_run_resolves_an_exemplar() {
    // The flight recorder under a cold + repeat workload at a zero slow
    // threshold: every query answers 200 with the recorder on and off, and
    // on the recording server /debug/requests lists its own in-flight
    // trace, /debug/slow is non-empty, and a /metrics exemplar resolves via
    // /debug/trace/<id> to a per-stage breakdown.
    let base = "/query?dataset=karate&theta=32&k=3";
    let workload = |server: &Server| {
        concurrent_gets(server, 2, 2, &|c, i| {
            format!("{base}&seed={}", 100_000 + c * 2 + i)
        });
        concurrent_gets(server, 2, 2, &|_, _| format!("{base}&seed=7777"));
    };
    let server_cfg = |flight: bool| ServerConfig {
        threads: 2,
        slow_ms: Some(0),
        flight,
        ..ServerConfig::default()
    };

    let server = start_server(&EngineConfig::default(), &server_cfg(true));
    workload(&server);

    let dr = get(&server, "/debug/requests");
    assert_eq!(dr.status, 200);
    let own = dr.trace_id.clone().expect("X-Trace-Id on /debug/requests");
    assert!(String::from_utf8(dr.body).unwrap().contains(&own));

    let slow = String::from_utf8(get(&server, "/debug/slow").body).unwrap();
    assert!(slow.contains("\"trace_id\""), "{slow}");

    let text = scrape_prom(&server);
    let exemplars = scrape::prom_exemplars(
        &text,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    );
    assert!(!exemplars.is_empty(), "{text}");
    let resolved = exemplars.iter().any(|(_, ex)| {
        let Some(id) = ex.trace_id() else {
            return false;
        };
        let hex = mpds_obs::flight::format_trace_id(id);
        let t = get(&server, &format!("/debug/trace/{hex}"));
        t.status == 200
            && stage_field(&String::from_utf8_lossy(&t.body), "cache_probe", "count") >= 1
    });
    assert!(
        resolved,
        "no exemplar resolved to a stage breakdown: {text}"
    );
    drop(server);

    let server = start_server(&EngineConfig::default(), &server_cfg(false));
    workload(&server);
}

#[test]
fn obs_harness_runs_clean_with_server_side_percentiles() {
    // Server-side latency against client-side latency: 4 clients send 3
    // cold queries each, then 3 repeats each of one query. Scrapes around
    // each phase cut the cumulative /query histogram into windows that
    // count exactly the requests sent, with a server p50 inside
    // [0.25x - 1 ms, 4x + 1 ms] of the client p50: wide enough for log2
    // buckets and connection overhead, while a unit error is 1000x out.
    let server = start_server(
        &EngineConfig {
            cache_capacity: 512,
            cache_shards: 8,
        },
        &ServerConfig {
            threads: 4,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    );
    let (clients, per_client) = (4, 3);
    let base = "/query?dataset=karate&theta=32&k=3";
    let repeat_path = format!("{base}&seed=4242");
    let scrape_hist = || {
        scrape::prom_histogram(
            &scrape_prom(&server),
            "mpds_http_request_duration_microseconds",
            &[("endpoint", "query"), ("status", "2xx")],
        )
        .unwrap_or_default()
    };
    let p50_ms = |mut lat: Vec<Duration>| {
        lat.sort();
        lat[((lat.len() - 1) as f64 * 0.5).round() as usize].as_secs_f64() * 1e3
    };

    let s0 = scrape_hist();
    let cold = concurrent_gets(&server, clients, per_client, &|c, i| {
        format!("{base}&seed={}", 80_000 + c * per_client + i)
    });
    let s1 = scrape_hist();
    let repeat = concurrent_gets(&server, clients, per_client, &|_, _| repeat_path.clone());
    let s2 = scrape_hist();

    for (phase, client, window) in [
        ("cold", cold, s1.since(&s0)),
        ("repeat", repeat, s2.since(&s1)),
    ] {
        assert_eq!(window.count(), (clients * per_client) as u64, "{phase}");
        let client_p50 = p50_ms(client);
        let server_p50 = window.quantile(0.50) / 1e3;
        let (lo, hi) = ((client_p50 * 0.25 - 1.0).max(0.0), client_p50 * 4.0 + 1.0);
        assert!(
            (lo..=hi).contains(&server_p50),
            "{phase}: server p50 {server_p50:.3} ms outside [{lo:.3}, {hi:.3}] \
             around client p50 {client_p50:.3} ms"
        );
    }
}
