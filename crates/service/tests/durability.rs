//! End-to-end durability tests: kill a durable server mid-churn, restart it
//! from the same `--data-dir`, and hold it to the uninterrupted twin's
//! bytes.
//!
//! Most tests simulate the crash by dropping the in-process [`Server`] (and
//! its registry) without any checkpoint or graceful flush — with
//! fsync-on-commit the WAL already contains every acknowledged batch, so a
//! drop and a SIGKILL leave the same on-disk state.
//! `sigkilled_serve_process_recovers_exact_generation_and_bytes` kills a
//! real `mpds-cli serve` process to hold that claim.

use mpds_obs::scrape;
use mpds_service::client::{http_get, http_post, Exchange};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use mpds_store::{Store, SyncPolicy};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const QUERY: &str = "/query?dataset=karate&theta=48&k=3&seed=7";
const BATCH_EDGES: usize = 6;

fn start_server(data_dir: Option<&Path>, mutable: bool) -> Server {
    let mut registry = GraphRegistry::with_builtins();
    if let Some(dir) = data_dir {
        registry.set_store(Store::create(dir, SyncPolicy::Commit).expect("create store"));
        // The serve command's boot sequence: recover every dataset with
        // on-disk state before the listener accepts traffic.
        for (name, outcome) in registry.recover_on_boot() {
            outcome.unwrap_or_else(|e| panic!("recover {name:?}: {e}"));
        }
    }
    let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
    let cfg = ServerConfig {
        mutable,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, &cfg).expect("bind ephemeral port")
}

fn get(addr: SocketAddr, path: &str) -> Exchange {
    http_get(addr, path, Duration::from_secs(60)).expect("http_get")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Exchange {
    http_post(addr, path, body.as_bytes(), Duration::from_secs(60)).expect("http_post")
}

/// The deterministic mutation batch of churn round `round`: inserts
/// `batch_edges` fresh label-pair edges, and from round 1 on re-weights the
/// first half of the previous round's pairs and deletes the second half —
/// all three mutation kinds per round, bounded graph growth, and entirely
/// dataset-agnostic (fresh labels start at 1 000 000).
fn churn_batch(round: usize, batch_edges: usize) -> String {
    let pair = |r: usize, j: usize| {
        let u = 1_000_000u64 + ((r * batch_edges + j) as u64) * 2;
        (u, u + 1)
    };
    let mut out = String::new();
    for j in 0..batch_edges {
        let (u, v) = pair(round, j);
        let p = 0.2 + 0.1 * (j % 6) as f64;
        out.push_str(&format!("{u} {v} {p:.1}\n"));
    }
    if round > 0 {
        for j in 0..batch_edges {
            let (u, v) = pair(round - 1, j);
            if j < batch_edges / 2 {
                out.push_str(&format!("{u} {v} 0.9\n"));
            } else {
                out.push_str(&format!("{u} {v} -\n"));
            }
        }
    }
    out
}

#[test]
fn churn_batches_are_deterministic_and_disjoint() {
    let b0 = churn_batch(0, 4);
    assert_eq!(b0, churn_batch(0, 4));
    // Round 0: inserts only.
    assert_eq!(b0.lines().count(), 4);
    assert!(!b0.contains(" -"));
    // Round 1: 4 inserts + 2 re-weights + 2 deletes of round 0's pairs.
    let b1 = churn_batch(1, 4);
    assert_eq!(b1.lines().count(), 8);
    assert_eq!(b1.matches(" -").count(), 2);
    assert_eq!(b1.matches(" 0.9").count(), 2);
    // No line may repeat an edge key within one batch (the server
    // rejects duplicates): all first-two-token pairs distinct.
    let keys: Vec<&str> = b1.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
    let unique: std::collections::HashSet<&&str> = keys.iter().collect();
    assert_eq!(unique.len(), keys.len(), "{b1}");
}

/// Applies churn round `round` to the server at `addr`, asserting the
/// acknowledged generation.
fn apply(addr: SocketAddr, round: usize, expect_generation: u64) {
    let e = post(
        addr,
        "/update?dataset=karate",
        &churn_batch(round, BATCH_EDGES),
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let body = String::from_utf8_lossy(&e.body);
    assert!(
        body.contains(&format!("\"generation\":{expect_generation}")),
        "round {round}: expected generation {expect_generation}: {body}"
    );
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpds-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_recover_matches_uninterrupted_twin() {
    let dir = temp_dir("twin");

    // The twin never crashes and never persists — the reference run.
    let twin = start_server(None, true);
    // Server A persists every acknowledged batch under `dir`.
    let server_a = start_server(Some(&dir), true);

    for round in 0..3 {
        apply(server_a.local_addr(), round, round as u64 + 1);
        apply(twin.local_addr(), round, round as u64 + 1);
    }
    // Both sides answer the canonical query identically before the crash
    // (same base graph, same batches, deterministic estimator).
    let read_a = get(server_a.local_addr(), QUERY);
    let read_twin = get(twin.local_addr(), QUERY);
    assert_eq!(read_a.status, 200);
    assert_eq!(read_a.body, read_twin.body, "pre-crash twin divergence");

    // Crash: no checkpoint was ever taken, so recovery is WAL-only.
    drop(server_a);

    let server_b = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(server_b.local_addr(), "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":3"), "{listing}");
    assert!(listing.contains("\"replayed_records\":3"), "{listing}");
    let read_b = get(server_b.local_addr(), QUERY);
    assert_eq!(
        read_b.body, read_twin.body,
        "recovered server must serve byte-identical query responses"
    );

    // Checkpoint, then keep churning on both sides. Generation continuity:
    // the first post-restart ack is exactly pre-crash + 1.
    let ckpt = post(
        server_b.local_addr(),
        "/admin/checkpoint?dataset=karate",
        "",
    );
    assert_eq!(ckpt.status, 200, "{}", String::from_utf8_lossy(&ckpt.body));
    let ckpt_body = String::from_utf8_lossy(&ckpt.body);
    assert!(ckpt_body.contains("\"generation\":3"), "{ckpt_body}");
    assert!(ckpt_body.contains("\"wal_records\":0"), "{ckpt_body}");
    for round in 3..5 {
        apply(server_b.local_addr(), round, round as u64 + 1);
        apply(twin.local_addr(), round, round as u64 + 1);
    }

    // Second crash: recovery is now checkpoint + WAL tail.
    drop(server_b);
    let server_c = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(server_c.local_addr(), "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":5"), "{listing}");
    assert!(
        listing.contains("\"last_checkpoint_generation\":3"),
        "{listing}"
    );
    assert!(listing.contains("\"replayed_records\":2"), "{listing}");
    let read_c = get(server_c.local_addr(), QUERY);
    let read_twin = get(twin.local_addr(), QUERY);
    assert_eq!(
        read_c.body, read_twin.body,
        "checkpoint+tail recovery must serve byte-identical query responses"
    );

    // And the recovered server keeps accepting updates at the next
    // generation.
    apply(server_c.local_addr(), 5, 6);

    drop(server_c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_endpoint_is_gated() {
    // Immutable servers refuse the admin endpoint outright.
    let server = start_server(None, false);
    let e = post(server.local_addr(), "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 403, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("--mutable"));
    drop(server);

    // Mutable but non-durable: a clear 400 pointing at --data-dir.
    let server = start_server(None, true);
    let e = post(server.local_addr(), "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 400, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("--data-dir"));
    // Missing dataset parameter.
    let e = post(server.local_addr(), "/admin/checkpoint", "");
    assert_eq!(e.status, 400);
    drop(server);

    // Durable and mutable: the happy path, visible in /metrics.
    let dir = temp_dir("gate");
    let server = start_server(Some(&dir), true);
    apply(server.local_addr(), 0, 1);
    let e = post(server.local_addr(), "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let metrics = String::from_utf8(get(server.local_addr(), "/metrics").body).unwrap();
    let karate = [("dataset", "karate")];
    let value = |name: &str, labels: &[(&str, &str)]| scrape::prom_value(&metrics, name, labels);
    assert_eq!(value("mpds_checkpoints_total", &[]), Some(1.0), "{metrics}");
    assert_eq!(
        value("mpds_dataset_wal_records", &karate),
        Some(0.0),
        "{metrics}"
    );
    assert_eq!(
        value("mpds_dataset_last_checkpoint_generation", &karate),
        Some(1.0),
        "{metrics}"
    );
    assert!(
        value("mpds_dataset_recovery_milliseconds", &karate).is_some(),
        "{metrics}"
    );
    // The checkpoint is filed under its own endpoint label.
    assert_eq!(
        value(
            "mpds_http_request_duration_microseconds_count",
            &[("endpoint", "checkpoint"), ("status", "2xx")]
        ),
        Some(1.0),
        "{metrics}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_sync_interval_mode_still_recovers_acknowledged_batches_on_clean_drop() {
    // Interval mode coalesces fsyncs but still *writes* every record before
    // the ack; a clean process exit (drop flushes OS buffers via File drop +
    // the page cache) must still recover everything. This pins the weaker
    // guarantee the README documents for `--wal-sync interval`.
    let dir = temp_dir("interval");
    {
        let mut registry = GraphRegistry::with_builtins();
        registry.set_store(Store::create(&dir, SyncPolicy::Interval).expect("create store"));
        let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
        let cfg = ServerConfig {
            mutable: true,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", engine, &cfg).expect("bind");
        apply(server.local_addr(), 0, 1);
        apply(server.local_addr(), 1, 2);
    }
    let server = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(server.local_addr(), "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":2"), "{listing}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `mpds-cli serve --mutable --data-dir` child process. Dropping it
/// kills the process — SIGKILL on Unix: no flush, no graceful shutdown —
/// and waits for it.
struct ServeProcess {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl ServeProcess {
    fn spawn(data_dir: &Path) -> ServeProcess {
        let child = Command::new(env!("CARGO_BIN_EXE_mpds-cli"))
            .args(["serve", "--bind", "127.0.0.1:0", "--threads", "2"])
            .arg("--mutable")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mpds-cli serve");
        // Own the child before reading its output, so a server that never
        // listens is still killed.
        let mut process = ServeProcess {
            child,
            stdout_drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = process.child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        // Recovery runs before the listener binds, so the address line
        // means the data directory has been replayed.
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            let rest = line.split("listening on http://").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        });
        // Keep draining stdout so the server never blocks on a full pipe.
        process.stdout_drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        process.addr = addr.expect("serve printed no listening address");
        process
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

#[test]
fn sigkilled_serve_process_recovers_exact_generation_and_bytes() {
    let dir = temp_dir("sigkill");
    let server = ServeProcess::spawn(&dir);
    for round in 0..4 {
        apply(server.addr, round, round as u64 + 1);
        // Every update moves the canonical read to a new cache key: it
        // recomputes once under the new generation, then serves from cache.
        let miss = get(server.addr, QUERY);
        assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
        assert_eq!(miss.x_cache.as_deref(), Some("MISS"), "round {round}");
        let hit = get(server.addr, QUERY);
        assert_eq!(hit.x_cache.as_deref(), Some("HIT"), "round {round}");
        assert_eq!(hit.body, miss.body);
    }
    let before = get(server.addr, QUERY).body;
    drop(server);

    let server = ServeProcess::spawn(&dir);
    let listing = String::from_utf8(get(server.addr, "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":4"), "{listing}");
    let after = get(server.addr, QUERY);
    assert_eq!(after.status, 200);
    assert_eq!(
        after.body, before,
        "the restarted process must serve the pre-kill bytes"
    );
    // The next update is acknowledged at exactly pre-kill + 1.
    apply(server.addr, 4, 5);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
