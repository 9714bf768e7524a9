//! End-to-end loopback tests: a real server on an ephemeral port, real HTTP
//! requests from client threads.

use mpds_obs::scrape;
use mpds_service::client::{http_get, http_post, wait_until_healthy, Exchange};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(engine_cfg: &EngineConfig, server_cfg: &ServerConfig) -> Server {
    let engine = Arc::new(QueryEngine::new(GraphRegistry::with_builtins(), engine_cfg));
    Server::bind("127.0.0.1:0", engine, server_cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

#[test]
fn health_datasets_and_errors() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    wait_until_healthy(server.local_addr(), Duration::from_secs(5)).unwrap();

    let e = get(&server, "/healthz");
    assert_eq!(e.status, 200);
    assert_eq!(e.body, b"{\"status\":\"ok\"}");

    let e = get(&server, "/datasets");
    assert_eq!(e.status, 200);
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"name\":\"karate\""), "{text}");
    assert!(text.contains("\"name\":\"intel-lab\""), "{text}");

    // Forcing stats loads the dataset.
    let e = get(&server, "/dataset?name=karate");
    assert_eq!(e.status, 200);
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"nodes\":34"), "{text}");
    assert!(text.contains("\"edges\":78"), "{text}");

    assert_eq!(get(&server, "/nope").status, 404);
    assert_eq!(get(&server, "/dataset?name=ghost").status, 400);
    assert_eq!(get(&server, "/query?dataset=ghost").status, 400);
    assert_eq!(get(&server, "/query?dataset=karate&theta=0").status, 400);
    assert_eq!(get(&server, "/query?dataset=karate&bogus=1").status, 400);
    assert_eq!(
        get(&server, "/query?dataset=karate&theta=1&theta=2").status,
        400
    );
}

/// The `/metrics` body (Prometheus text).
fn scrape_prom(server: &Server) -> String {
    String::from_utf8(get(server, "/metrics").body).unwrap()
}

/// The first sample of `name` carrying `labels`, from a fresh `/metrics`
/// scrape.
fn metric(server: &Server, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    scrape::prom_value(&scrape_prom(server), name, labels)
}

/// `mpds_truncated_worlds_total` from the `/metrics` body.
fn truncated_worlds_total(server: &Server) -> Option<f64> {
    metric(server, "mpds_truncated_worlds_total", &[])
}

#[test]
fn cap_truncated_worlds_are_counted_on_metrics() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    assert_eq!(truncated_worlds_total(&server), Some(0.0));
    // Some karate world of this stream holds more densest subgraphs than
    // the default enumeration cap.
    let path = "/query?dataset=karate&theta=320&k=3&seed=7";
    let e = get(&server, path);
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"truncated\":true"), "{text}");
    let after_miss = truncated_worlds_total(&server).unwrap();
    assert!(after_miss >= 1.0, "{after_miss}");
    // A cache HIT computes nothing, so the counter holds.
    assert_eq!(get(&server, path).body, text.as_bytes());
    assert_eq!(truncated_worlds_total(&server), Some(after_miss));
}

#[test]
fn identical_queries_return_identical_bytes_from_concurrent_clients() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=200&k=3&seed=9";

    let clients = 12;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let e = get(&server, path);
                    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
                    e.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies {
        assert_eq!(b, &bodies[0], "all responses must be bytewise identical");
    }
    // Sequential repeat is also identical (served from cache).
    let again = get(&server, path);
    assert_eq!(again.body, bodies[0]);

    // /metrics shows exactly one computation for the whole burst.
    assert_eq!(
        metric(&server, "mpds_queries_computed_total", &[]),
        Some(1.0)
    );
}

#[test]
fn timeout_parameter_maps_to_504() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(
        &server,
        "/query?dataset=karate&theta=1000000&seed=123456&timeout_ms=0",
    );
    assert_eq!(e.status, 504, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("deadline exceeded"), "{text}");
}

#[test]
fn saturated_bounded_queue_answers_503() {
    // 1 worker + queue bound 1: with one slow query computing and one
    // queued, every further concurrent connection must be turned away with
    // 503 at the admission gate.
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            threads: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    // Distinct seeds (and distinct thetas) so nothing coalesces: each
    // accepted request is a real multi-second-ish computation.
    let flood = 8;
    let server_ref = &server;
    let results: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..flood)
            .map(|i| {
                s.spawn(move || {
                    let path = format!("/query?dataset=lastfm&theta=40&k=3&seed={}", 500 + i);
                    get(server_ref, &path).status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = results.iter().filter(|&&s| s == 200).count();
    let rejected = results.iter().filter(|&&s| s == 503).count();
    assert_eq!(
        ok + rejected,
        flood,
        "only 200 or 503 expected: {results:?}"
    );
    assert!(ok >= 1, "at least the first request must be served");
    assert!(
        rejected >= 1,
        "a saturated 1-worker/1-slot server must shed load: {results:?}"
    );
    assert_eq!(
        metric(&server, "mpds_rejected_total", &[]),
        Some(rejected as f64)
    );
}

#[test]
fn harness_runs_clean_against_adequately_provisioned_server() {
    // The load contract on an adequately provisioned server (enough queue
    // for the burst, 4 workers): 8 clients send 5 cold queries each at
    // distinct seeds, then 5 repeats each of one query. Every request
    // answers 200, the repeats are byte-identical, and the cache serves
    // more than 90% of the repeat lookups.
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
    let (clients, per_client) = (8, 5);
    let base = "/query?dataset=karate&theta=32&k=3";
    let phase = |path_of: &(dyn Fn(usize, usize) -> String + Sync)| -> Vec<Vec<u8>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    s.spawn(move || {
                        (0..per_client)
                            .map(|i| {
                                let e = get(server, &path_of(c, i));
                                assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
                                e.body
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
    };
    let counters = || {
        let metrics = scrape_prom(&server);
        let counter = |name: &str, labels: &[(&str, &str)]| {
            scrape::prom_value(&metrics, name, labels).unwrap() as u64
        };
        (
            counter("mpds_cache_requests_total", &[("result", "hit")]),
            counter("mpds_cache_requests_total", &[("result", "miss")]),
            counter("mpds_queries_coalesced_total", &[]),
        )
    };

    let cold = phase(&|c, i| format!("{base}&seed={}", 10_000 + c * per_client + i));
    assert_eq!(cold.len(), clients * per_client);
    let (h0, m0, c0) = counters();
    let repeat = phase(&|_, _| format!("{base}&seed=42"));
    assert_eq!(repeat.len(), clients * per_client);
    let (h1, m1, c1) = counters();

    for b in &repeat {
        assert_eq!(b, &repeat[0], "repeat bodies must be bytewise identical");
    }
    // Every request makes one cache lookup; a coalesced request misses and
    // then joins the leader, so it did not recompute either.
    let lookups = (h1 - h0) + (m1 - m0);
    assert_eq!(lookups, (clients * per_client) as u64);
    let served_without_compute = (h1 - h0) + (c1 - c0);
    assert!(
        served_without_compute * 10 > lookups * 9,
        "{served_without_compute} of {lookups} repeat lookups served without compute"
    );
}

#[test]
fn batch_bytes_match_sequential_queries_and_fill_the_cache() {
    // Two independent servers: `standalone` answers each member as its own
    // /query (its own full estimator run per member); `batched` answers the
    // same member set as one POST /batch over a shared world stream. The
    // member bodies must agree byte for byte across the two processes'
    // worth of state — the QuerySet determinism contract over real HTTP.
    let standalone = start_server(&EngineConfig::default(), &ServerConfig::default());
    let batched = start_server(&EngineConfig::default(), &ServerConfig::default());
    let member_path = |k: usize| format!("/query?dataset=karate&theta=100&k={k}&seed=31");

    let body = br#"{"dataset":"karate","theta":100,"seed":31,
        "members":[{"k":2},{"k":3},{"k":4}]}"#;
    let e = http_post(
        batched.local_addr(),
        "/batch",
        body,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let envelope = String::from_utf8(e.body).unwrap();
    assert!(envelope.contains("\"members\":3"), "{envelope}");
    assert!(envelope.contains("\"computed\":3"), "{envelope}");
    assert!(
        envelope.contains("\"sources\":[\"MISS\",\"MISS\",\"MISS\"]"),
        "{envelope}"
    );

    for k in [2, 3, 4] {
        let seq = get(&standalone, &member_path(k));
        assert_eq!(seq.status, 200);
        let seq_body = String::from_utf8(seq.body).unwrap();
        assert!(
            envelope.contains(&seq_body),
            "batch member k={k} bytes differ from the standalone /query bytes:\n\
             standalone: {seq_body}\nenvelope: {envelope}"
        );
        // The batch populated the cache: the point query is a HIT with the
        // same bytes.
        let followup = get(&batched, &member_path(k));
        assert_eq!(followup.status, 200);
        assert_eq!(followup.x_cache.as_deref(), Some("HIT"), "k={k}");
        assert_eq!(String::from_utf8(followup.body).unwrap(), seq_body);
    }

    // One shared stream: the batch sampled theta worlds once, not three
    // times (the standalone server's counter shows the unamortized cost).
    let metrics = scrape_prom(&batched);
    assert_eq!(
        scrape::prom_value(&metrics, "mpds_worlds_sampled_total", &[]),
        Some(100.0),
        "{metrics}"
    );
    assert_eq!(
        scrape::prom_value(&metrics, "mpds_batches_total", &[]),
        Some(1.0),
        "{metrics}"
    );
    assert_eq!(
        metric(&standalone, "mpds_worlds_sampled_total", &[]),
        Some(300.0)
    );

    // Protocol edges: GET /batch is 405, malformed bodies are 400.
    assert_eq!(get(&batched, "/batch").status, 405);
    let e = http_post(
        batched.local_addr(),
        "/batch",
        b"not json",
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(e.status, 400);
}

#[test]
fn diff_endpoint_reports_no_change_against_itself() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(&server, "/diff?dataset=karate&against=karate&theta=64&k=3");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"dataset\":\"karate\",\"against\":\"karate\""));
    assert!(text.contains("\"unchanged\":true"), "{text}");
    assert_eq!(metric(&server, "mpds_diffs_total", &[]), Some(1.0));

    assert_eq!(get(&server, "/diff?dataset=karate").status, 400);
    assert_eq!(
        get(&server, "/diff?dataset=karate&against=ghost").status,
        400
    );
    assert_eq!(
        get(&server, "/diff?dataset=karate&against=karate&threads=2").status,
        400
    );
}

#[test]
fn batch_harness_runs_clean_and_measures_amortization() {
    // Batch amortization over six members (one of them NDS) and two
    // rounds: standalone, each member samples its own theta worlds; in one
    // batch at a fresh seed, all six share one stream of theta worlds,
    // compute every member, and fill the cache so that each follow-up
    // point query is a HIT whose bytes the envelope embeds.
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
    let (theta, members) = (64u64, 6usize);
    let spec = |j: usize| (if j % 4 == 3 { "nds" } else { "mpds" }, j + 2);
    let member_path = |j: usize, seed: u64| {
        let (algo, k) = spec(j);
        format!("/query?dataset=karate&theta={theta}&algo={algo}&k={k}&seed={seed}")
    };
    let worlds = || metric(&server, "mpds_worlds_sampled_total", &[]).unwrap() as u64;

    for round in 0..2u64 {
        let w0 = worlds();
        for j in 0..members {
            let e = get(&server, &member_path(j, 30_000 + round));
            assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
        }
        let w1 = worlds();
        assert_eq!(w1 - w0, theta * members as u64, "standalone round {round}");

        let seed = 60_000 + round;
        let list: Vec<String> = (0..members)
            .map(|j| {
                let (algo, k) = spec(j);
                format!(r#"{{"algo":"{algo}","k":{k}}}"#)
            })
            .collect();
        let body = format!(
            r#"{{"dataset":"karate","theta":{theta},"seed":{seed},"members":[{}]}}"#,
            list.join(",")
        );
        let e = http_post(
            server.local_addr(),
            "/batch",
            body.as_bytes(),
            Duration::from_secs(60),
        )
        .unwrap();
        assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
        let envelope = String::from_utf8(e.body).unwrap();
        assert_eq!(
            scrape::json_uint(&envelope, "computed"),
            Some(members as u64),
            "{envelope}"
        );
        // Amortization: one shared stream, so the batch costs theta worlds
        // where the standalone members cost `members` x theta.
        assert_eq!(worlds() - w1, theta, "batch round {round}");

        for j in 0..members {
            let e = get(&server, &member_path(j, seed));
            assert_eq!(e.status, 200);
            assert_eq!(e.x_cache.as_deref(), Some("HIT"), "member {j}");
            let body = String::from_utf8(e.body).unwrap();
            assert!(envelope.contains(&body), "member {j}: {body}\n{envelope}");
        }
    }
}

#[test]
fn anytime_budget_serves_200_then_refines_to_the_same_cache_key() {
    // The anytime contract over real HTTP: a budget-truncated query answers
    // 200 with a best-so-far body (never 504), and the background refinement
    // tier republishes a converged body under the same URL so a follow-up is
    // a cache HIT without the budget marker.
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=2000&k=3&seed=41&budget_ms=1";

    let e = get(&server, path);
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"stop_reason\":\"budget\""), "{text}");

    // Poll the identical URL (budget_ms is not part of the cache key) until
    // the refinement worker has swapped in the converged body.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let refined = loop {
        let e = get(&server, path);
        assert_eq!(e.status, 200);
        let body = String::from_utf8(e.body).unwrap();
        if e.x_cache.as_deref() == Some("HIT") && !body.contains("\"stop_reason\":\"budget\"") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no refined body within the deadline; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        refined.contains("\"stop_reason\":\"completed\""),
        "{refined}"
    );
    assert!(refined.contains("\"worlds_sampled\":2000"), "{refined}");
    assert_eq!(
        metric(&server, "mpds_queries_refined_total", &[]),
        Some(1.0)
    );

    // A stable-stop query converges early and says so in its stats block.
    let e = get(
        &server,
        "/query?dataset=karate&theta=3000&k=1&seed=7&stop=stable&window=64",
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"stop\":\"stable\",\"window\":64"), "{text}");
    assert!(text.contains("\"stop_reason\":\"stable\""), "{text}");
    // Early stop saves work: it converged, and sampled fewer worlds than
    // the fixed-theta run of the same query would.
    let converged_at = scrape::json_uint(&text, "converged_at").expect("converged_at");
    let sampled = scrape::json_uint(&text, "worlds_sampled").unwrap();
    assert!(converged_at <= sampled && sampled < 3000, "{text}");
}

#[test]
fn shutdown_cancels_inflight_queries() {
    let mut server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let addr = server.local_addr();
    // Launch a long query, give it a moment to start, then shut down: the
    // cooperative cancel must terminate it promptly with a 503 (not hang).
    let handle = std::thread::spawn(move || {
        http_get(
            addr,
            "/query?dataset=lastfm&theta=100000&seed=77",
            Duration::from_secs(60),
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "shutdown must not wait for the full 100k-world query"
    );
    // A transport error is also acceptable: the worker may tear the
    // connection down mid-exchange.
    if let Ok(e) = handle.join().unwrap() {
        assert_eq!(e.status, 503, "{}", String::from_utf8_lossy(&e.body));
    }
}

/// One response read off a raw socket: status, headers, and the
/// `Content-Length`-delimited body.
struct RawResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl RawResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A raw HTTP/1.1 connection that sends whatever bytes a test gives it and
/// parses responses one at a time, so several can share one socket.
struct RawConn {
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(server: &Server) -> RawConn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        RawConn {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, raw: &str) {
        self.reader.get_mut().write_all(raw.as_bytes()).unwrap();
    }

    fn get(&mut self, path: &str) -> RawResponse {
        self.send(&format!("GET {path} HTTP/1.1\r\nHost: loopback\r\n\r\n"));
        self.response()
    }

    fn response(&mut self) -> RawResponse {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut headers = Vec::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line).unwrap();
            let Some((k, v)) = line.trim_end().split_once(':') else {
                break;
            };
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
        let mut response = RawResponse {
            status,
            headers,
            body: Vec::new(),
        };
        let len: usize = response.header("content-length").unwrap().parse().unwrap();
        response.body.resize(len, 0);
        self.reader.read_exact(&mut response.body).unwrap();
        response
    }

    /// Whether the server ends the stream cleanly within `wait` (`false`
    /// when nothing arrives). A reset or stray bytes fail the test.
    fn ends_within(&mut self, wait: Duration) -> bool {
        self.reader.get_ref().set_read_timeout(Some(wait)).unwrap();
        let mut byte = [0u8; 1];
        let ended = match self.reader.read(&mut byte) {
            Ok(0) => true,
            Ok(_) => panic!("unexpected byte {:?}", byte[0] as char),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
            Err(e) => panic!("the connection failed instead of ending: {e}"),
        };
        self.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        ended
    }

    /// Whether the server has closed the connection (EOF or reset).
    fn closed_by_server(&mut self) -> bool {
        let mut rest = Vec::new();
        match self.reader.read_to_end(&mut rest) {
            Ok(_) => rest.is_empty(),
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        }
    }
}

/// `(mpds_served_total, mpds_connections_accepted_total)` from one
/// `/metrics` scrape.
fn served_and_accepted(server: &Server) -> (f64, f64) {
    let text = scrape_prom(server);
    let value = |name| scrape::prom_value(&text, name, &[]).unwrap_or_else(|| panic!("{text}"));
    (
        value("mpds_served_total"),
        value("mpds_connections_accepted_total"),
    )
}

#[test]
fn kept_connection_serves_repeat_gets_with_the_close_reply_bytes() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=32&k=3&seed=31";
    let mut conn = RawConn::open(&server);
    let first = conn.get(path);
    let second = conn.get(path);
    for r in [&first, &second] {
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    assert_eq!(first.header("x-cache"), Some("MISS"));
    assert_eq!(second.header("x-cache"), Some("HIT"));
    let (t1, t2) = (first.header("x-trace-id"), second.header("x-trace-id"));
    assert!(t1.is_some() && t1 != t2, "each request has its own trace");
    // The body is the one a `Connection: close` client gets, byte for byte.
    let closed = get(&server, path);
    assert_eq!(closed.x_cache.as_deref(), Some("HIT"));
    assert_eq!(first.body, closed.body);
    assert_eq!(second.body, closed.body);
    // HTTP/1.0 and `Connection: close` are answered, then closed.
    conn.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(conn.response().header("connection"), Some("close"));
    assert!(conn.closed_by_server());
    let mut conn = RawConn::open(&server);
    conn.send("GET /healthz HTTP/1.0\r\n\r\n");
    let r = conn.response();
    assert_eq!((r.status, r.header("connection")), (200, Some("close")));
    assert!(conn.closed_by_server());
}

#[test]
fn served_counts_every_request_on_a_kept_connection() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let (served, accepted) = served_and_accepted(&server);
    let mut conn = RawConn::open(&server);
    assert_eq!(conn.get("/healthz").status, 200);
    assert_eq!(conn.get("/datasets").status, 200);
    // The last request closes, so once the socket reads EOF the server has
    // finished (and counted) all three.
    conn.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(conn.response().status, 200);
    assert!(conn.closed_by_server());
    // The first scrape counts once it is written; the kept socket adds 3.
    // The second scrape's connection is counted on accept.
    assert_eq!(
        served_and_accepted(&server),
        (served + 1.0 + 3.0, accepted + 2.0)
    );
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let mut conn = RawConn::open(&server);
    // A GET, a POST whose body this immutable server drains unread (403),
    // and another GET, all in one write.
    let body = "1 2 0.5\n";
    conn.send(&format!(
        "GET /healthz HTTP/1.1\r\n\r\n\
         POST /update?dataset=karate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}\
         GET /dataset?name=karate HTTP/1.1\r\n\r\n",
        body.len()
    ));
    let replies: Vec<RawResponse> = (0..3).map(|_| conn.response()).collect();
    assert_eq!(replies[0].status, 200);
    assert_eq!(replies[0].body, b"{\"status\":\"ok\"}");
    assert_eq!(replies[1].status, 403);
    assert_eq!(replies[2].status, 200);
    let stats = String::from_utf8_lossy(&replies[2].body);
    assert!(stats.contains("\"nodes\":34"), "{stats}");
    let traces: std::collections::HashSet<_> =
        replies.iter().map(|r| r.header("x-trace-id")).collect();
    assert_eq!(traces.len(), 3, "one trace per pipelined request");
    // The connection is still usable afterwards.
    assert_eq!(conn.get("/healthz").status, 200);
}

#[test]
fn a_request_head_split_across_two_writes_is_served() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let mut conn = RawConn::open(&server);
    assert_eq!(conn.get("/healthz").status, 200);
    // The kept socket's reads time out every millisecond; the rest of the
    // head arriving 5 ms later must still complete the request.
    conn.send("GET /dataset?name=karate HTTP/1.1\r\nHo");
    std::thread::sleep(Duration::from_millis(5));
    conn.send("st: loopback\r\n\r\n");
    let r = conn.response();
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(r.header("connection"), Some("keep-alive"));
    assert!(String::from_utf8_lossy(&r.body).contains("\"nodes\":34"));
}

#[test]
fn bad_request_closes_the_connection() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let mut conn = RawConn::open(&server);
    assert_eq!(conn.get("/healthz").status, 200);
    conn.send("NONSENSE\r\n\r\n");
    let r = conn.response();
    assert_eq!((r.status, r.header("connection")), (400, Some("close")));
    assert!(conn.closed_by_server());
}

#[test]
fn idle_kept_connections_yield_to_a_fresh_client() {
    let threads = 2;
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            threads,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    // One more idle kept connection than there are workers. Each is served
    // in turn: a worker idling on a kept connection gives it up as soon as
    // another connection waits in the queue.
    let mut idle = Vec::new();
    for _ in 0..threads + 1 {
        let mut conn = RawConn::open(&server);
        let started = Instant::now();
        assert_eq!(conn.get("/healthz").status, 200);
        assert!(started.elapsed() < Duration::from_millis(500));
        idle.push(conn);
    }
    let started = Instant::now();
    assert_eq!(get(&server, "/healthz").status, 200);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "a fresh client waited {waited:?} behind idle kept connections"
    );
}

#[test]
fn one_fresh_client_costs_one_idle_kept_connection() {
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    // Both workers idle on a kept connection.
    let mut kept: Vec<RawConn> = (0..2).map(|_| RawConn::open(&server)).collect();
    for conn in &mut kept {
        assert_eq!(conn.get("/healthz").status, 200);
    }
    assert_eq!(get(&server, "/healthz").status, 200);
    // Exactly one worker gave its connection up for the fresh client, and
    // that client saw a clean end of stream, not a reset.
    let ended: Vec<bool> = kept
        .iter_mut()
        .map(|c| c.ends_within(Duration::from_millis(200)))
        .collect();
    assert_eq!(ended.iter().filter(|&&e| e).count(), 1, "{ended:?}");
    let open = ended.iter().position(|&e| !e).unwrap();
    assert_eq!(kept[open].get("/healthz").status, 200);
}

#[test]
fn shutdown_is_prompt_while_a_kept_connection_idles() {
    let mut server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let mut conn = RawConn::open(&server);
    let r = conn.get("/healthz");
    assert_eq!(r.header("connection"), Some("keep-alive"));
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown waited {took:?} on an idle kept connection"
    );
    assert!(conn.closed_by_server());
}
