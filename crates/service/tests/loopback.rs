//! End-to-end loopback tests: a real server on an ephemeral port, real HTTP
//! requests from client threads.

use mpds_obs::scrape;
use mpds_service::client::{http_get, http_get_accept, http_post, wait_until_healthy, Exchange};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

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

/// `mpds_truncated_worlds_total` from the Prometheus `/metrics` body.
fn truncated_worlds_total(server: &Server) -> Option<f64> {
    let e = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .expect("scrape /metrics");
    let text = String::from_utf8(e.body).unwrap();
    scrape::prom_value(&text, "mpds_truncated_worlds_total", &[])
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
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"computed\":1"), "{metrics}");
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
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(
        metrics.contains(&format!("\"rejected\":{rejected}")),
        "{metrics}"
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
        let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
        let counter = |key: &str| scrape::json_uint(&metrics, key).unwrap();
        (counter("hits"), counter("misses"), counter("coalesced"))
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
    let metrics = String::from_utf8(get(&batched, "/metrics").body).unwrap();
    assert!(metrics.contains("\"worlds_sampled\":100"), "{metrics}");
    assert!(metrics.contains("\"batches\":1"), "{metrics}");
    let metrics = String::from_utf8(get(&standalone, "/metrics").body).unwrap();
    assert!(metrics.contains("\"worlds_sampled\":300"), "{metrics}");

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
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"diffs\":1"), "{metrics}");

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
    let worlds = || {
        let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
        scrape::json_uint(&metrics, "worlds_sampled").unwrap()
    };

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
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"refined\":1"), "{metrics}");

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
