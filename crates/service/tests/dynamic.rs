//! Dynamic-graph serving tests: live updates over the loopback server and
//! reader/writer consistency under concurrency.

use mpds_obs::scrape;
use mpds_service::client::{http_get, http_post, Exchange};
use mpds_service::engine::{QueryRequest, ResponseSource};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn start_server(mutable: bool) -> Server {
    let engine = Arc::new(QueryEngine::new(
        GraphRegistry::with_builtins(),
        &EngineConfig::default(),
    ));
    let cfg = ServerConfig {
        mutable,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, &cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

fn post(server: &Server, path: &str, body: &str) -> Exchange {
    http_post(
        server.local_addr(),
        path,
        body.as_bytes(),
        Duration::from_secs(60),
    )
    .expect("http_post")
}

#[test]
fn query_update_query_roundtrip_over_http() {
    let server = start_server(true);
    let path = "/query?dataset=karate&theta=64&k=3&seed=9";

    // Generation 0: compute, then hit.
    let first = get(&server, path);
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.x_cache.as_deref(), Some("MISS"));
    let cached = get(&server, path);
    assert_eq!(cached.x_cache.as_deref(), Some("HIT"));
    assert_eq!(cached.body, first.body);

    // Apply a decisive update: a certain 6-clique denser than any karate
    // subgraph in any world.
    let mut batch = String::new();
    for a in 200..206u32 {
        for b in (a + 1)..206 {
            batch.push_str(&format!("{a} {b} 1.0\n"));
        }
    }
    let updated = post(&server, "/update?dataset=karate", &batch);
    assert_eq!(
        updated.status,
        200,
        "{}",
        String::from_utf8_lossy(&updated.body)
    );
    let text = String::from_utf8(updated.body).unwrap();
    assert!(text.contains("\"generation\":1"), "{text}");
    assert!(text.contains("\"inserted\":15"), "{text}");
    assert!(text.contains("\"nodes_added\":6"), "{text}");

    // The identical query must recompute under generation 1 — the stale
    // cache entry is never served after the bump.
    let after = get(&server, path);
    assert_eq!(after.status, 200);
    assert_eq!(
        after.x_cache.as_deref(),
        Some("MISS"),
        "post-update read must not hit the generation-0 cache entry"
    );
    assert_ne!(after.body, first.body, "new generation, new answer");
    let after_text = String::from_utf8(after.body.clone()).unwrap();
    assert!(
        after_text.contains("200,201,202,203,204,205"),
        "the inserted certain clique must dominate: {after_text}"
    );
    // And the new generation is cacheable under its own key.
    let again = get(&server, path);
    assert_eq!(again.x_cache.as_deref(), Some("HIT"));
    assert_eq!(again.body, after.body);

    // Observability: /datasets and /metrics surface the dynamic state.
    let datasets = String::from_utf8(get(&server, "/datasets").body).unwrap();
    assert!(datasets.contains("\"name\":\"karate\""), "{datasets}");
    assert!(datasets.contains("\"generation\":1"), "{datasets}");
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    let karate = [("dataset", "karate")];
    let value = |name: &str, labels: &[(&str, &str)]| scrape::prom_value(&metrics, name, labels);
    assert_eq!(value("mpds_updates_total", &[]), Some(1.0), "{metrics}");
    assert_eq!(
        value("mpds_dataset_generation", &karate),
        Some(1.0),
        "{metrics}"
    );
    assert!(
        value("mpds_dataset_overlay_edges", &karate).is_some(),
        "{metrics}"
    );
    assert!(
        value("mpds_dataset_compactions_total", &karate).is_some(),
        "{metrics}"
    );
}

#[test]
fn update_is_gated_and_validated() {
    // Immutable server (the default): /update is forbidden.
    let server = start_server(false);
    let e = post(&server, "/update?dataset=karate", "0 1 0.5\n");
    assert_eq!(e.status, 403, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("--mutable"));
    drop(server);

    let server = start_server(true);
    // GET on /update is a method error, POST elsewhere too.
    assert_eq!(get(&server, "/update?dataset=karate").status, 405);
    assert_eq!(post(&server, "/query?dataset=karate", "").status, 405);
    // Missing dataset parameter, unknown dataset, bad batches.
    assert_eq!(post(&server, "/update", "0 1 0.5\n").status, 400);
    assert_eq!(
        post(&server, "/update?dataset=ghost", "0 1 0.5\n").status,
        400
    );
    let bad = post(&server, "/update?dataset=karate", "0 0 0.5\n");
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8_lossy(&bad.body).contains("self-loop"));
    let dup = post(&server, "/update?dataset=karate", "0 1 0.5\n1 0 0.6\n");
    assert_eq!(dup.status, 400);
    assert!(String::from_utf8_lossy(&dup.body).contains("line 2"));
    // A repeated or unknown parameter is rejected before anything mutates,
    // never resolved to its first value.
    for path in [
        "/update?dataset=karate&dataset=intel-lab",
        "/update?dataset=karate&bogus=1",
    ] {
        let e = post(&server, path, "0 1 0.5\n");
        assert_eq!(
            e.status,
            400,
            "{path}: {}",
            String::from_utf8_lossy(&e.body)
        );
    }
    assert_eq!(get(&server, "/dataset?name=karate&name=karate").status, 400);
    // Rejected batches never bump the generation.
    let ok = post(&server, "/update?dataset=karate", "0 1 0.5\n");
    assert!(String::from_utf8_lossy(&ok.body).contains("\"generation\":1"));
}

/// Sends raw bytes and returns (status, body) — for requests `http_post`
/// cannot produce (malformed headers, truncated heads).
fn raw(server: &Server, bytes: &[u8]) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (status, text)
}

#[test]
fn malformed_and_truncated_requests_are_handled() {
    let server = start_server(true);
    // A malformed Content-Length must be a 400, never silently zero (which
    // would apply an empty batch and claim success).
    let (status, text) = raw(
        &server,
        b"POST /update?dataset=karate HTTP/1.1\r\nContent-Length: 10x\r\n\r\n0 1 0.5\n",
    );
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("Content-Length"), "{text}");
    assert!(
        !String::from_utf8_lossy(&get(&server, "/datasets").body).contains("\"generation\":1"),
        "the malformed update must not have bumped anything"
    );
    // A head that ends at EOF without \r\n\r\n still routes correctly.
    let (status, _) = raw(&server, b"GET /healthz HTTP/1.1\r\nHost: x");
    assert_eq!(status, 200);
    // Empty update bodies are a no-op, not a version bump.
    let ok = post(&server, "/update?dataset=karate", "# nothing\n");
    assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
    assert!(String::from_utf8_lossy(&ok.body).contains("\"generation\":0"));
    // An immutable server still delivers its 403 when the POST has a body
    // (drained, not buffered).
    drop(server);
    let server = start_server(false);
    let e = post(&server, "/update?dataset=karate", &"0 1 0.5\n".repeat(500));
    assert_eq!(e.status, 403);
}

/// The probability the writer assigns edge (0, 1) at generation `g` — the
/// readers' consistency oracle: a snapshot claiming generation `g` must
/// carry exactly this probability, anything else is a torn read.
fn prob_at(generation: u64) -> f64 {
    (generation % 9 + 1) as f64 / 10.0
}

#[test]
fn readers_see_consistent_monotone_snapshots_while_writer_updates() {
    let registry = GraphRegistry::with_builtins();
    let registry = &registry;
    let rounds = 40u64;
    let readers = 6;
    let base_prob = registry.get("karate").unwrap().graph.edge_prob(0, 1);

    std::thread::scope(|s| {
        // One writer: each batch re-weights (0, 1) to prob_at(g) where g is
        // the generation the batch produces, plus churn on a side edge.
        s.spawn(move || {
            for i in 0..rounds {
                let g = i + 1;
                let side = if i % 2 == 0 {
                    "900 901 0.5\n"
                } else {
                    "900 901 -\n"
                };
                let batch = format!("0 1 {}\n{side}", prob_at(g));
                let out = registry
                    .apply_update("karate", batch.as_bytes())
                    .expect("writer batch");
                assert_eq!(out.generation, g, "writer generations are sequential");
            }
        });
        // N readers: snapshots must be internally consistent (the edge
        // probability matches the generation stamp) and generations must be
        // monotone per reader.
        for _ in 0..readers {
            s.spawn(move || {
                let mut last_gen = 0u64;
                let mut observed_new = 0usize;
                while observed_new < 200 && last_gen < rounds {
                    let snap = registry.get("karate").unwrap();
                    assert!(
                        snap.generation >= last_gen,
                        "generation went backwards: {} < {last_gen}",
                        snap.generation
                    );
                    last_gen = snap.generation;
                    let p = snap.graph.edge_prob(0, 1);
                    if snap.generation == 0 {
                        assert_eq!(p, base_prob, "generation 0 must be the base");
                    } else {
                        assert_eq!(
                            p,
                            Some(prob_at(snap.generation)),
                            "torn read: generation {} with wrong probability",
                            snap.generation
                        );
                    }
                    observed_new += 1;
                }
            });
        }
    });
}

#[test]
fn inflight_query_keyed_to_old_generation_completes_after_update() {
    let engine = Arc::new(QueryEngine::new(
        GraphRegistry::with_builtins(),
        &EngineConfig::default(),
    ));
    let mut req = QueryRequest::new("karate");
    req.theta = 500; // slow enough in a debug build to overlap the update
    req.k = 3;

    let (leader, follower) = std::thread::scope(|s| {
        let leader = s.spawn(|| engine.execute(&req).unwrap());
        // Let the leader register as in-flight, then join it and update.
        std::thread::sleep(Duration::from_millis(200));
        let follower = s.spawn(|| engine.execute(&req).unwrap());
        std::thread::sleep(Duration::from_millis(100));
        engine
            .apply_update("karate", "0 1 0.9\n".as_bytes())
            .unwrap();
        (leader.join().unwrap(), follower.join().unwrap())
    });
    // Both the generation-0 leader and its coalesced follower completed
    // despite the mid-flight generation bump, with identical bytes.
    assert_eq!(leader.1, ResponseSource::Miss);
    assert_eq!(leader.0, follower.0);
    // A fresh request now computes against generation 1 — different key.
    let (gen1, src) = engine.execute(&req).unwrap();
    assert_eq!(src, ResponseSource::Miss);
    assert!(!Arc::ptr_eq(&gen1, &leader.0));
}
