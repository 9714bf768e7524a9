//! End-to-end observability tests: `?profile=1` cache neutrality, the
//! Prometheus `/metrics` body and its counters, refinement-queue drain, and
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

const STAGES: [&str; 6] = [
    "snapshot_resolve",
    "cache_probe",
    "world_materialize",
    "estimator_accumulate",
    "stable_tracker",
    "json_render",
];

/// The `count` of `stage` in the `"stages"` object reached through the
/// object keys `path` of a rendered JSON body: a `/debug/trace/<id>` record
/// (`["stages"]`) or a `?profile=1` response (`["profile", "stages"]`).
/// Every stage is rendered, zero-count ones included, so a check that a
/// stage ran must read its count rather than the presence of its key.
fn stage_count(body: &str, path: &[&str], stage: &str) -> u64 {
    let doc = mpds_service::json::JsonValue::parse(body).expect("body parses");
    let mut v = &doc;
    for key in path.iter().copied().chain(["stages", stage, "count"]) {
        v = v
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("no {key:?} on the way to {stage}: {body}"));
    }
    v.as_u64(stage).unwrap()
}

#[test]
fn profile_block_rides_along_without_perturbing_cached_bytes() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=100&k=3&seed=17";

    // Cold profiled request: a MISS that computes, caches the *unprofiled*
    // bytes, and splices the stage breakdown into its own response only.
    let profiled = get(&server, &format!("{path}&profile=1"));
    assert_eq!(
        profiled.status,
        200,
        "{}",
        String::from_utf8_lossy(&profiled.body)
    );
    assert_eq!(profiled.x_cache.as_deref(), Some("MISS"));
    let profiled_body = String::from_utf8(profiled.body).unwrap();
    assert!(profiled_body.contains("\"profile\":{"), "{profiled_body}");
    assert!(profiled_body.contains("\"stages\":{"), "{profiled_body}");
    for stage in STAGES {
        assert!(
            profiled_body.contains(&format!("\"{stage}\":{{")),
            "missing stage {stage}: {profiled_body}"
        );
    }
    // The splice must still be valid JSON under the server's own parser.
    mpds_service::json::JsonValue::parse(&profiled_body).expect("profiled body parses");

    // The unprofiled re-issue is a cache HIT with no trace of the profile.
    let plain = get(&server, path);
    assert_eq!(plain.status, 200);
    assert_eq!(plain.x_cache.as_deref(), Some("HIT"));
    let plain_body = String::from_utf8(plain.body).unwrap();
    assert!(!plain_body.contains("profile"), "{plain_body}");
    // Splice contract: profiled bytes are the cached body minus its closing
    // brace, plus the appended profile object.
    assert!(
        profiled_body.starts_with(&plain_body[..plain_body.len() - 1]),
        "profiled body is not a suffix-splice of the cached body:\n\
         profiled: {profiled_body}\nplain: {plain_body}"
    );

    // A profiled re-issue is itself a HIT (profile is not part of the key)
    // and says so in its breakdown.
    let again = get(&server, &format!("{path}&profile=1"));
    assert_eq!(again.x_cache.as_deref(), Some("HIT"));
    let again_body = String::from_utf8(again.body).unwrap();
    assert!(
        again_body.contains("\"profile\":{\"source\":\"HIT\""),
        "{again_body}"
    );

    // Both profiled requests were counted, and their stage timings
    // aggregated into the Prometheus per-stage totals.
    let prom_text = scrape_prom(&server);
    assert_eq!(
        scrape::prom_value(&prom_text, "mpds_profiled_requests_total", &[]),
        Some(2.0)
    );
    // The MISS ran the estimator: its accumulate stage must show up.
    let accumulate = scrape::prom_value(
        &prom_text,
        "mpds_stage_invocations_total",
        &[("stage", "estimator_accumulate")],
    );
    assert!(accumulate.is_some_and(|v| v >= 1.0), "{prom_text}");
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
            stage_count(&body, &[], stage) >= 1,
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

#[test]
fn profile_stages_agree_with_debug_trace() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(
        &server,
        "/query?dataset=karate&theta=200&k=3&seed=37&stop=stable&window=8&profile=1",
    );
    assert_eq!(e.status, 200);
    let trace = e.trace_id.clone().expect("X-Trace-Id on profiled query");
    let profiled = String::from_utf8(e.body).unwrap();

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let trace_body = String::from_utf8(t.body).unwrap();

    // Both views of the same request expose the same engine-side stages —
    // the ?profile=1 splice and the flight record come from one recorder.
    for stage in STAGES {
        let key = format!("\"{stage}\":{{\"count\":");
        assert!(
            profiled.contains(&key),
            "profile missing {stage}: {profiled}"
        );
        assert!(
            trace_body.contains(&key),
            "trace missing {stage}: {trace_body}"
        );
        // Every stage is rendered, so agreement means equal counts of a
        // stage that actually ran.
        let count = stage_count(&profiled, &["profile"], stage);
        assert!(count >= 1, "stage {stage} did not run: {profiled}");
        assert_eq!(
            count,
            stage_count(&trace_body, &[], stage),
            "{stage}: {profiled} vs {trace_body}"
        );
    }
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

    let e = mpds_service::client::http_post(
        server.local_addr(),
        "/update?dataset=karate",
        b"0 1 0.9\n",
        Duration::from_secs(60),
    )
    .expect("http_post");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let trace = e.trace_id.clone().expect("X-Trace-Id on /update");

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let body = String::from_utf8(t.body).unwrap();
    assert!(body.contains("\"endpoint\":\"update\""), "{body}");
    for stage in STORE_STAGES {
        assert!(
            stage_count(&body, &[], stage) >= 1,
            "store stage {stage} did not run: {body}"
        );
    }

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
        t.status == 200 && stage_count(&String::from_utf8_lossy(&t.body), &[], "cache_probe") >= 1
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

    // `?profile=1` on the cached repeat query splices a stage breakdown
    // into its own body only; the unprofiled re-issue is unchanged.
    let profiled =
        String::from_utf8(get(&server, &format!("{repeat_path}&profile=1")).body).unwrap();
    assert!(profiled.contains("\"profile\":{"), "{profiled}");
    assert!(profiled.contains("\"stages\":{"), "{profiled}");
    let plain = String::from_utf8(get(&server, &repeat_path).body).unwrap();
    assert!(!plain.contains("\"profile\":"), "{plain}");
}
