//! Thread-pool HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! Hand-rolled on purpose: the workspace vendors no HTTP or async stack,
//! and the protocol surface a deterministic query API needs is tiny — GET
//! with a query string (or a `Content-Length` POST body) in, JSON out, over
//! persistent HTTP/1.1 connections. What matters is the concurrency shape:
//!
//! * one acceptor thread + N worker threads over a **bounded** connection
//!   queue — the admission-control point. A full queue is answered `503`
//!   immediately from the acceptor instead of queueing unbounded work;
//! * keep-alive on that same pool: a worker serves a connection's requests
//!   in order (pipelined ones included, one trace each) and answers
//!   `Connection: keep-alive` only to an HTTP/1.1 request that did not ask
//!   to close or send `Transfer-Encoding`, whose body was fully read, while
//!   no queued connection lacks a worker to take it and the server is not
//!   stopping. Between requests it waits for the next one in short slices
//!   and **yields** the connection — taking the queued one itself — as soon
//!   as a queued one has no parked worker to take it, at shutdown, or after
//!   [`ServerConfig::read_timeout`] of idleness. Workers on idle kept
//!   connections yield before busy ones, so idle clients can never pin
//!   every worker, with no keep-alive count to tune;
//! * graceful shutdown: the shutdown flag doubles as the engine's
//!   cancellation flag, so in-flight estimator loops stop cooperatively at
//!   their next sampled world.
//!
//! ## Endpoints
//!
//! | Path | Reply |
//! |---|---|
//! | `GET /healthz` | `{"status":"ok"}` |
//! | `GET /datasets` | registry listing (name, loaded, shape, generation) |
//! | `GET /dataset?name=D` | dataset stats (forces construction) |
//! | `GET /query?dataset=D&…` | MPDS/NDS query (see [`crate::engine`]); anytime knobs: `stop=stable&window=N` early-stops when the top-k settles, `budget_ms=N` returns the best estimate so far (200, never 504) and refines in the background |
//! | `POST /batch` | many queries over one shared world stream (JSON body of member specs; per-member cache keys, misses computed in a single [`mpds::QuerySet`] pass) |
//! | `GET /diff?dataset=A&against=B&…` | one query over two datasets under common random numbers, diffed (A is the *after* side, B the baseline) |
//! | `POST /update?dataset=D` | apply a mutation batch (body: `u v p` / `u v -` lines); gated by [`ServerConfig::mutable`]; with `serve --data-dir` the batch is WAL-logged before the ack |
//! | `POST /admin/checkpoint?dataset=D` | force a compaction + durable checkpoint (requires `--mutable` and `--data-dir`); truncates the covered WAL prefix |
//! | `GET /metrics` | Prometheus text exposition (whatever the `Accept` header says): latency histograms per endpoint × cache source × status class, cache/engine/server counters, per-stage totals, SLO burn rates, and per-dataset generation/overlay/compactions (plus wal/checkpoint/recovery state on durable servers) |
//!
//! ## Observability
//!
//! Every request is timed end-to-end (read → route → write) into the
//! [`crate::obs::HttpObs`] histogram bank, labeled by endpoint, cache
//! source, and status class. With [`ServerConfig::access_log`] set, each
//! request also appends one JSON line (see [`crate::obs::AccessRecord`]);
//! with [`ServerConfig::slow_ms`] set, requests at or past the threshold
//! are echoed to stderr. `/query?profile=1` returns the response with a
//! spliced `"profile"` block of per-stage timings — the parameter is not
//! part of the cache key and the cached bytes are never mutated.

use crate::engine::{
    Algo, BatchMember, BatchRequest, HelperPool, QueryEngine, QueryError, QueryRequest, StopSpec,
    DEFAULT_STABLE_WINDOW, MAX_BATCH_MEMBERS,
};
use crate::json::JsonValue;
use crate::json::{error_body, JsonWriter};
use crate::obs::{render_access_record, AccessRecord, Endpoint, HttpObs, SourceLabel, StatusClass};
use crate::registry::DatasetInfo;
use mpds_obs::flight::{format_trace_id, parse_trace_id};
use mpds_obs::{
    scrape, FlightRecorder, PromText, Recorder, SloEngine, SloObjective, Stage, TraceIdGen,
    TraceRecord, TraceState,
};
use std::collections::VecDeque;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// `Content-Type` of every JSON response.
const CONTENT_TYPE_JSON: &str = "application/json";

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub threads: usize,
    /// Bounded accepted-connection queue; a full queue answers `503`.
    pub queue_capacity: usize,
    /// Per-connection read timeout (slowloris guard).
    pub read_timeout: Duration,
    /// Deadline applied to queries that supply no `timeout_ms` of their
    /// own. Without a ceiling, a handful of `theta=1000000` requests could
    /// pin every worker indefinitely and 503 all later traffic — the
    /// compute-side counterpart of the bounded queue. `None` disables it.
    pub default_timeout: Option<Duration>,
    /// Whether `POST /update` is served (the CLI's `serve --mutable`).
    /// Immutable servers (the default) answer it `403` without touching the
    /// registry, so a fleet can expose read-only replicas safely.
    pub mutable: bool,
    /// Append one JSON line per request to this file (the CLI's
    /// `serve --access-log PATH`). `None` disables access logging.
    pub access_log: Option<PathBuf>,
    /// Echo requests whose wall time reaches this many milliseconds to
    /// stderr (the CLI's `serve --slow-ms N`). `None` disables the slow log.
    /// This threshold also decides slow-query-ring promotion; when unset the
    /// ring uses [`DEFAULT_SLOW_THRESHOLD_MS`].
    pub slow_ms: Option<u64>,
    /// Whether the per-request flight recorder runs (the CLI's
    /// `serve --no-flight` turns it off). Trace ids are minted and returned
    /// as `X-Trace-Id` either way; disabling only stops record retention and
    /// per-stage timing of unprofiled requests.
    pub flight: bool,
    /// Completed-request ring capacity (the CLI's `serve --flight-capacity`).
    pub flight_capacity: usize,
    /// Slow-query ring capacity (the CLI's `serve --slow-capacity`).
    pub slow_capacity: usize,
    /// Service-level objectives scored on every request (the CLI's
    /// repeatable `serve --slo SPEC`; see [`SloObjective::parse_spec`]).
    pub slo: Vec<SloObjective>,
}

/// Slow-query-ring promotion threshold when [`ServerConfig::slow_ms`] is
/// unset: one second.
pub const DEFAULT_SLOW_THRESHOLD_MS: u64 = 1_000;

/// The SLOs a server scores when none are configured: p99 of `/query`
/// under 250 ms, 99.9% availability on `/query` and `/update`.
pub fn default_slo_objectives() -> Vec<SloObjective> {
    [
        "query:latency:250:0.99",
        "query:availability:0.999",
        "update:availability:0.999",
    ]
    .iter()
    .map(|s| SloObjective::parse_spec(s).expect("default SLO spec"))
    .collect()
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            default_timeout: Some(Duration::from_secs(120)),
            mutable: false,
            access_log: None,
            slow_ms: None,
            flight: true,
            flight_capacity: 256,
            slow_capacity: 64,
            slo: default_slo_objectives(),
        }
    }
}

/// Accepted connections waiting for a worker (each with when it was
/// queued), how many workers are parked waiting for one, how many hold a
/// kept connection that has been idle for at least one [`IDLE_POLL`]
/// slice, and how many helpers running MISSes have borrowed (one per
/// parked worker at the time; see [`HelperPool`]).
#[derive(Default)]
struct AdmissionQueue {
    conns: VecDeque<(TcpStream, Instant)>,
    idle_workers: usize,
    idle_kept: usize,
    lent: usize,
}

impl AdmissionQueue {
    /// Pops a queued connection for a worker to serve in place of its kept
    /// one, when no parked worker is going to take it. A worker whose client
    /// is busy (`busy`, checked right after a response) also leaves it to
    /// the workers on idle kept connections, and to any worker about to
    /// free up, by yielding only to a connection that has waited a whole
    /// [`IDLE_POLL`]: an idle client is dropped before a busy one. Popping
    /// under the lock means only as many workers yield as such connections
    /// wait.
    fn pop_unclaimed(&mut self, busy: bool) -> Option<TcpStream> {
        let claimed = self.idle_workers + if busy { self.idle_kept } else { 0 };
        let (_, queued) = self.conns.get(claimed)?;
        if busy && queued.elapsed() < IDLE_POLL {
            return None;
        }
        self.conns.pop_front().map(|(conn, _)| conn)
    }
}

struct ServerState {
    engine: Arc<QueryEngine>,
    queue: Mutex<AdmissionQueue>,
    queue_capacity: usize,
    work_ready: Condvar,
    shutdown: AtomicBool,
    read_timeout: Duration,
    default_timeout: Option<Duration>,
    mutable: bool,
    /// Connections answered 503 at the admission gate. Shed connections
    /// never reach the request histogram bank, so they are counted here.
    rejected: AtomicU64,
    /// Connections admitted to the worker queue (shed ones count in
    /// `rejected` instead); requests served over this is requests per
    /// connection.
    connections_accepted: AtomicU64,
    /// Live rejection-drain threads (bounded; see `acceptor_loop`).
    rejecters: AtomicU64,
    /// Latency histogram bank + in-flight gauge.
    http_obs: HttpObs,
    /// Open access-log sink, when configured. One line per request,
    /// flushed per line so `tail -f` (and the smoke test) see it live.
    access_log: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Slow-query threshold in milliseconds, when configured.
    slow_ms: Option<u64>,
    /// Monotonic request-id source for access-log lines.
    next_request_id: AtomicU64,
    /// Process-unique trace-id source (`X-Trace-Id`).
    trace_ids: TraceIdGen,
    /// Per-request flight recorder backing `/debug/*`.
    flight: FlightRecorder,
    /// Burn-rate tracking for the configured objectives.
    slo: SloEngine,
}

/// A MISS borrows one helper per parked worker that no other MISS has
/// borrowed. A parked worker stays parked, so it still takes the next
/// queued connection; until the MISS returns, its CPU is then shared.
impl HelperPool for ServerState {
    fn lend(&self) -> usize {
        let mut queue = self.queue.lock().unwrap();
        let helpers = queue.idle_workers.saturating_sub(queue.lent);
        queue.lent += helpers;
        helpers
    }

    fn release(&self, helpers: usize) {
        self.queue.lock().unwrap().lent -= helpers;
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops the
/// acceptor, drains the workers, and cancels in-flight estimator loops.
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor + worker threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<QueryEngine>,
        cfg: &ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Open (or create) the access log before spawning anything: a bad
        // path should fail the bind, not lose lines silently at runtime.
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))),
            None => None,
        };
        let state = Arc::new(ServerState {
            engine,
            queue: Mutex::new(AdmissionQueue::default()),
            queue_capacity: cfg.queue_capacity.max(1),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            read_timeout: cfg.read_timeout,
            default_timeout: cfg.default_timeout,
            mutable: cfg.mutable,
            rejected: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            rejecters: AtomicU64::new(0),
            http_obs: HttpObs::new(),
            access_log,
            slow_ms: cfg.slow_ms,
            next_request_id: AtomicU64::new(0),
            trace_ids: TraceIdGen::from_entropy(),
            flight: FlightRecorder::new(
                cfg.flight,
                cfg.flight_capacity,
                cfg.slow_capacity,
                cfg.slow_ms
                    .unwrap_or(DEFAULT_SLOW_THRESHOLD_MS)
                    .saturating_mul(1_000),
            ),
            slo: SloEngine::new(cfg.slo.clone()),
        });
        let workers = (0..cfg.threads.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mpds-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("mpds-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &state))
                .expect("spawn acceptor")
        };
        Ok(Server {
            local_addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, cancels in-flight queries, drains and joins all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Cancel running estimator loops cooperatively.
        self.state
            .engine
            .cancel_flag()
            .store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a loopback connect.
        // An unspecified bind address (0.0.0.0 / ::) is not connectable on
        // every platform, so target the loopback interface on our port.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
        // Notify while holding the queue mutex: a worker that just checked
        // the shutdown flag under this lock is either still before its
        // wait() (blocked on the mutex we hold, so it will re-check) or
        // already waiting (so it receives this notification). Notifying
        // without the lock could fire in that check-to-wait window and be
        // lost, leaving the worker asleep forever.
        {
            let _queue = self.state.queue.lock().unwrap();
            self.state.work_ready.notify_all();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (e.g. EMFILE under a connection
                // flood) would otherwise hard-spin the acceptor at 100%
                // CPU; back off briefly and let descriptors free up.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let accepted = Instant::now();
        let mut queue = state.queue.lock().unwrap();
        if queue.conns.len() >= state.queue_capacity {
            drop(queue);
            state.rejected.fetch_add(1, Ordering::Relaxed);
            // Answer the rejection off-thread: draining the request head
            // does blocking reads, and a stalled acceptor at exactly the
            // overload moment would turn load-shedding into a slowloris
            // amplifier. The drain threads are themselves bounded — past
            // the cap (or on spawn failure) the connection is dropped
            // without a body, which is the right overload behavior: a
            // flood must not buy one 2s-lived thread per connection.
            const MAX_REJECTERS: u64 = 32;
            if state.rejecters.fetch_add(1, Ordering::AcqRel) >= MAX_REJECTERS {
                state.rejecters.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            let drain_timeout = state.read_timeout.min(Duration::from_secs(2));
            let thread_state = Arc::clone(state);
            // Even a shed connection gets a trace id: the 503 body is
            // anonymous, but the header lets the client report something.
            let trace_hex = format_trace_id(state.trace_ids.mint());
            let spawned = std::thread::Builder::new()
                .name("mpds-reject".to_string())
                .spawn(move || {
                    respond_overloaded(stream, drain_timeout, &trace_hex);
                    thread_state.rejecters.fetch_sub(1, Ordering::AcqRel);
                });
            if spawned.is_err() {
                state.rejecters.fetch_sub(1, Ordering::AcqRel);
            }
            continue;
        }
        // Counted before a worker can pop (and serve) it.
        state.connections_accepted.fetch_add(1, Ordering::Relaxed);
        queue.conns.push_back((stream, accepted));
        drop(queue);
        state.work_ready.notify_one();
    }
}

/// Answers a connection rejected at the admission gate. The request head is
/// drained first (bounded by a short timeout): closing a socket with unread
/// received data sends RST, which would destroy the 503 before the client
/// reads it.
fn respond_overloaded(mut stream: TcpStream, drain_timeout: Duration, trace_hex: &str) {
    let _ = stream.set_read_timeout(Some(drain_timeout));
    let _ = stream.set_write_timeout(Some(drain_timeout));
    let _ = read_request(&mut stream, &mut Vec::new(), |_, _| false);
    let resp = Response::json(
        503,
        "Service Unavailable",
        Body::Text(error_body(
            "overloaded",
            "server overloaded: connection queue full",
        )),
    );
    let _ = write_response(&mut stream, &resp, trace_hex, false);
}

fn worker_loop(state: &Arc<ServerState>) {
    // A queued connection this worker took over when it gave up a kept one.
    let mut taken = None;
    loop {
        let stream = if let Some(s) = taken.take() {
            s
        } else {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some((s, _)) = queue.conns.pop_front() {
                    break s;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue.idle_workers += 1;
                queue = state.work_ready.wait(queue).unwrap();
                queue.idle_workers -= 1;
            }
        };
        taken = handle_connection(stream, state);
    }
}

/// A response body: owned text for small/metadata replies, owned bytes for
/// per-request variants (profile splices), or the engine's shared cache
/// bytes written without copying.
enum Body {
    Text(String),
    Bytes(Vec<u8>),
    Shared(std::sync::Arc<Vec<u8>>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Text(s) => s.as_bytes(),
            Body::Bytes(b) => b,
            Body::Shared(b) => b,
        }
    }
}

/// One routed response plus the provenance the observability layer wants:
/// the `X-Cache` header, the dataset/generation the route resolved (for
/// access-log lines), and the negotiated content type.
struct Response {
    status: u16,
    reason: &'static str,
    body: Body,
    x_cache: Option<&'static str>,
    content_type: &'static str,
    dataset: Option<String>,
    generation: Option<u64>,
}

impl Response {
    /// A JSON response with no cache or dataset provenance.
    fn json(status: u16, reason: &'static str, body: Body) -> Response {
        Response {
            status,
            reason,
            body,
            x_cache: None,
            content_type: CONTENT_TYPE_JSON,
            dataset: None,
            generation: None,
        }
    }
}

/// How long one idle wait for a kept connection's next request lasts
/// before the worker re-checks the admission queue and the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// What a worker does with its connection after a request or an idle wait.
enum Next {
    /// Serve the connection's next request.
    Continue,
    /// Drop the connection and go back to the admission queue.
    Close,
    /// Drop the connection and serve this queued one, which no parked worker
    /// was going to take.
    Yield(TcpStream),
}

/// Serves one connection's requests in order until one of them (or the
/// idle wait between them) gives the connection up. Returns the queued
/// connection the worker gave it up for, if any.
fn handle_connection(mut stream: TcpStream, state: &ServerState) -> Option<TcpStream> {
    // Reads time out every IDLE_POLL, so the idle wait between requests
    // needs no second timeout; a request read retries its slices (`Patient`)
    // until `read_timeout` passes with no byte read.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(state.read_timeout));
    // Each response is one write; without Nagle's algorithm it leaves at
    // once instead of waiting for the client's delayed ACK of the last one.
    let _ = stream.set_nodelay(true);
    // Bytes read past the current request: the start of a pipelined next one.
    let mut carry = Vec::new();
    loop {
        let next = match serve_request(&mut stream, &mut carry, state) {
            Next::Continue => next_request_arrives(&stream, &carry, state),
            done => done,
        };
        match next {
            Next::Continue => {}
            Next::Close => return None,
            Next::Yield(queued) => return Some(queued),
        }
    }
}

/// Reads, routes, and answers one request. The connection continues only
/// when the response said `Connection: keep-alive` and was written in full.
fn serve_request(stream: &mut TcpStream, carry: &mut Vec<u8>, state: &ServerState) -> Next {
    let started = Instant::now();
    state.http_obs.inflight.inc();
    let id = state.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    // Every request gets a process-unique trace id, returned as
    // `X-Trace-Id` even on parse failures — a client report quoting the
    // header is enough to find the request in the flight recorder.
    let trace_id = state.trace_ids.mint();
    let trace_hex = format_trace_id(trace_id);
    // The request's own stage recorder; enabled with the flight recorder so
    // /debug/trace shows per-stage breakdowns without ?profile=1.
    let rec = Arc::new(Recorder::new(state.flight.is_enabled()));
    // Buffer a request body only for POSTs this server will actually route:
    // /update (when mutable) and /batch. Everything else gets its rejection
    // without the server reading (and holding) up to MAX_BODY
    // attacker-supplied bytes first.
    let accept_body = |method: &str, path: &str| {
        method == "POST" && (path == "/batch" || (path == "/update" && state.mutable))
    };
    let mut patient = Patient {
        stream,
        patience: state.read_timeout,
    };
    let (resp, method, endpoint, keep_alive) = match read_request(&mut patient, carry, accept_body)
    {
        Ok(request) => {
            let endpoint = Endpoint::classify(request.target.split('?').next().unwrap_or(""));
            state.flight.begin(
                trace_id,
                endpoint.as_str(),
                &request.method,
                &request.target,
                started,
                Arc::clone(&rec),
            );
            let resp = route(&request, state, &rec);
            (resp, Some(request.method), endpoint, request.keep_alive)
        }
        // A request that does not parse leaves the stream at an unknown
        // offset: answer it and close.
        Err(msg) => (
            Response::json(
                400,
                "Bad Request",
                Body::Text(error_body("bad_request", &msg)),
            ),
            None,
            Endpoint::Other,
            false,
        ),
    };
    let next = if !keep_alive || state.shutdown.load(Ordering::SeqCst) {
        Next::Close
    } else if let Some(queued) = state.queue.lock().unwrap().pop_unclaimed(true) {
        Next::Yield(queued)
    } else {
        Next::Continue
    };
    let keep_alive = matches!(next, Next::Continue);
    let written = write_response(stream, &resp, &trace_hex, keep_alive).is_ok();
    observe_request(
        state,
        id,
        trace_id,
        started,
        method.as_deref(),
        endpoint,
        &resp,
    );
    state.http_obs.inflight.dec();
    match next {
        Next::Continue if !written => Next::Close,
        next => next,
    }
}

/// A connection's socket, whose reads time out every [`IDLE_POLL`], read as
/// if its read timeout were `patience`: a read that times out is retried
/// until `patience` has passed since the read began with no byte read.
struct Patient<'a> {
    stream: &'a mut TcpStream,
    patience: Duration,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let began = Instant::now();
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && began.elapsed() < self.patience => {}
                read => return read,
            }
        }
    }
}

/// Waits for the first byte of a kept connection's next request, in
/// [`IDLE_POLL`] slices (the socket's read timeout). The worker drops the connection when the client
/// closes it, at shutdown, after `read_timeout` of idleness, or — yielding —
/// as soon as a queued connection has no parked worker to take it.
fn next_request_arrives(stream: &TcpStream, carry: &[u8], state: &ServerState) -> Next {
    if !carry.is_empty() {
        return Next::Continue;
    }
    let idle_since = Instant::now();
    // Whether this worker counts in the queue's `idle_kept`, which it joins
    // after its first slice without a request.
    let mut counted = false;
    let mut probe = [0u8; 1];
    let next = loop {
        match stream.peek(&mut probe) {
            Ok(0) => break Next::Close,
            Ok(_) => break Next::Continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break Next::Close,
        }
        if state.shutdown.load(Ordering::SeqCst) || idle_since.elapsed() >= state.read_timeout {
            release_idle(stream);
            break Next::Close;
        }
        let mut queue = state.queue.lock().unwrap();
        if !counted {
            queue.idle_kept += 1;
            counted = true;
        }
        if let Some(queued) = queue.pop_unclaimed(false) {
            queue.idle_kept -= 1;
            counted = false;
            drop(queue);
            release_idle(stream);
            break Next::Yield(queued);
        }
    };
    if counted {
        state.queue.lock().unwrap().idle_kept -= 1;
    }
    next
}

/// Closes our side of an idle kept connection and discards, for at most
/// one [`IDLE_POLL`] read, a request the client may be sending right now,
/// so that client reads end-of-stream rather than a reset.
fn release_idle(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(
        &mut stream.take(MAX_REJECTED_DRAIN as u64),
        &mut std::io::sink(),
    );
}

/// Records one finished request: latency (with the trace id as the bucket
/// exemplar) into the histogram bank, SLO verdicts, the flight-recorder
/// completion, an optional access-log line, and an optional stderr echo
/// past the slow threshold. `/query` successes are enriched with
/// `stop_reason` and `worlds_sampled` scraped back out of the response body
/// through the shared [`mpds_obs::scrape`] parser.
fn observe_request(
    state: &ServerState,
    id: u64,
    trace_id: u64,
    started: Instant,
    method: Option<&str>,
    endpoint: Endpoint,
    resp: &Response,
) {
    let wall_us = mpds_obs::micros_since(started);
    let source = SourceLabel::from_header(resp.x_cache);
    state
        .http_obs
        .record_traced(endpoint, source, resp.status, wall_us, trace_id);
    state.slo.record(endpoint.as_str(), resp.status, wall_us);
    // Self-observation traffic (/metrics scrapes, /debug reads) completes
    // its flight record but never competes for the slow-query ring.
    state.flight.finish(
        trace_id,
        resp.status,
        wall_us,
        !endpoint.is_self_observation(),
    );
    let slow = state
        .slow_ms
        .is_some_and(|t| wall_us >= t.saturating_mul(1_000));
    if state.access_log.is_none() && !slow {
        return;
    }
    let (stop_reason, worlds_sampled) = if endpoint == Endpoint::Query && resp.status == 200 {
        let text = std::str::from_utf8(resp.body.as_bytes()).unwrap_or("");
        (
            scrape::json_str(text, "stop_reason"),
            scrape::json_uint(text, "worlds_sampled"),
        )
    } else {
        (None, None)
    };
    let trace_hex = format_trace_id(trace_id);
    let line = render_access_record(&AccessRecord {
        id,
        trace_id: Some(&trace_hex),
        endpoint: endpoint.as_str(),
        method,
        status: resp.status,
        source: resp.x_cache,
        dataset: resp.dataset.as_deref(),
        generation: resp.generation,
        stop_reason,
        worlds_sampled,
        wall_us,
    });
    if let Some(log) = &state.access_log {
        let mut sink = log.lock().unwrap();
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
        let _ = sink.flush();
    }
    if slow {
        eprintln!("mpds-service slow_query {line}");
    }
}

/// One parsed HTTP request: method, target (path + query), for POST the
/// `Content-Length`-delimited body, and whether the connection may carry
/// another request after it.
struct Request {
    method: String,
    target: String,
    body: Vec<u8>,
    /// HTTP/1.1, no `Connection: close` or `Transfer-Encoding`, and the body
    /// fully consumed, so the next byte on the stream starts the next
    /// request.
    keep_alive: bool,
}

/// Largest accepted `/update` body; mutation batches beyond this are
/// overload, not traffic.
const MAX_BODY: usize = 8 * 1024 * 1024;

/// How much of a *rejected* request's body gets drained (discarded, never
/// buffered) so the error response survives the close — closing a socket
/// with substantial unread data RSTs the reply away. Abuse-sized bodies
/// past this simply are not read, and their connection is closed.
const MAX_REJECTED_DRAIN: usize = 64 * 1024;

/// Reads one request head and, when `accept_body(method, path)` approves
/// the route, its `Content-Length`-delimited body. Rejected routes get the
/// body drained (bounded) but never buffered.
///
/// `carry` holds the connection's bytes already read past the previous
/// request and is consumed first; on return it holds whatever was read past
/// this one (the start of a pipelined next request).
fn read_request<R: Read>(
    stream: &mut R,
    carry: &mut Vec<u8>,
    accept_body: impl Fn(&str, &str) -> bool,
) -> Result<Request, String> {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    let mut eof = false;
    let header_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        if buf.len() > 64 * 1024 {
            return Err("request head too large".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            // EOF with no terminator: the whole buffer is the head.
            eof = true;
            break buf.len();
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request")?.to_string();
    let target = parts.next().ok_or("missing request target")?.to_string();
    let mut keep_alive = parts.next() == Some("HTTP/1.1") && !eof;
    let mut content_length = None;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim();
            if k.eq_ignore_ascii_case("content-length") {
                let n: usize = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {:?}", v.trim()))?;
                if content_length.is_some_and(|c| c != n) {
                    return Err("conflicting Content-Length headers".to_string());
                }
                content_length = Some(n);
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                // Bodies are delimited by Content-Length only. A body in any
                // other framing would be read as the next request, so the
                // connection closes after this one.
                keep_alive = false;
            } else if k.eq_ignore_ascii_case("connection")
                && v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
            {
                keep_alive = false;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    // What was read past the head: body bytes, then maybe the next request.
    let mut rest = buf.split_off((header_end + 4).min(buf.len()));
    let path = target.split('?').next().unwrap_or("");
    if !accept_body(&method, path) {
        if rest.len() >= content_length {
            *carry = rest.split_off(content_length);
        } else {
            // Drain (bounded, discarded) so the rejection response survives.
            // Reads never go past the body, so the stream is left at the
            // next request only when the whole body fit the bound.
            let missing = content_length - rest.len();
            keep_alive &= missing <= MAX_REJECTED_DRAIN;
            let mut remaining = missing.min(MAX_REJECTED_DRAIN);
            while remaining > 0 {
                let want = remaining.min(chunk.len());
                match stream.read(&mut chunk[..want]) {
                    Ok(0) | Err(_) => {
                        keep_alive = false;
                        break;
                    }
                    Ok(n) => remaining -= n,
                }
            }
        }
        return Ok(Request {
            method,
            target,
            body: Vec::new(),
            keep_alive,
        });
    }
    if content_length > MAX_BODY {
        return Err(format!("request body too large ({content_length} bytes)"));
    }
    while rest.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("request body truncated".to_string());
        }
        rest.extend_from_slice(&chunk[..n]);
    }
    *carry = rest.split_off(content_length);
    Ok(Request {
        method,
        target,
        body: rest,
        keep_alive,
    })
}

/// Dispatches one request to a [`Response`]. `rec` is the request's flight
/// recorder (disabled when the flight recorder is off) — compute- and
/// store-side stages are timed into it so `/debug/trace/<id>` can show a
/// full breakdown.
fn route(request: &Request, state: &ServerState, rec: &Arc<Recorder>) -> Response {
    let (path, query) = match request.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.target.as_str(), ""),
    };
    let bad = |msg: String| {
        Response::json(
            400,
            "Bad Request",
            Body::Text(error_body("bad_request", &msg)),
        )
    };
    match (request.method.as_str(), path) {
        ("GET", "/update") => Response::json(
            405,
            "Method Not Allowed",
            Body::Text(error_body(
                "method_not_allowed",
                "POST a mutation batch to /update",
            )),
        ),
        ("POST", "/update") => {
            if !state.mutable {
                return Response::json(
                    403,
                    "Forbidden",
                    Body::Text(error_body(
                        "forbidden",
                        "server is immutable (start it with serve --mutable)",
                    )),
                );
            }
            match single_param(query, "dataset") {
                Err(msg) => bad(msg),
                Ok(dataset) => match state.engine.apply_update_traced(
                    &dataset,
                    request.body.as_slice(),
                    Some(rec),
                ) {
                    Ok(outcome) => {
                        let body = crate::engine::render_update_response(&dataset, &outcome);
                        Response {
                            generation: Some(outcome.generation),
                            dataset: Some(dataset),
                            ..Response::json(200, "OK", Body::Text(body))
                        }
                    }
                    Err(e) => query_error_response(&e),
                },
            }
        }
        // Checkpointing mutates on-disk state, so it sits behind the same
        // gate as /update; the persistence requirement itself surfaces as a
        // 400 from the registry when the server has no --data-dir. The
        // endpoint takes no request body.
        ("POST", "/admin/checkpoint") => {
            if !state.mutable {
                return Response::json(
                    403,
                    "Forbidden",
                    Body::Text(error_body(
                        "forbidden",
                        "server is immutable (start it with serve --mutable)",
                    )),
                );
            }
            match single_param(query, "dataset") {
                Err(msg) => bad(msg),
                Ok(dataset) => match state.engine.checkpoint_traced(&dataset, Some(rec)) {
                    Ok(outcome) => {
                        let body = crate::engine::render_checkpoint_response(&dataset, &outcome);
                        Response {
                            generation: Some(outcome.generation),
                            dataset: Some(dataset),
                            ..Response::json(200, "OK", Body::Text(body))
                        }
                    }
                    Err(e) => query_error_response(&e),
                },
            }
        }
        ("GET", "/batch") => Response::json(
            405,
            "Method Not Allowed",
            Body::Text(error_body(
                "method_not_allowed",
                "POST a JSON body of query specs to /batch",
            )),
        ),
        ("POST", "/batch") => match parse_batch_request(&request.body) {
            Err(msg) => bad(msg),
            Ok(mut req) => {
                // Same compute ceiling as /query: a batch without its own
                // deadline gets the configured default.
                if req.timeout_ms.is_none() {
                    req.timeout_ms = state.default_timeout.map(|d| d.as_millis() as u64);
                }
                match state.engine.execute_batch(&req) {
                    Ok(outcome) => {
                        let body = crate::engine::render_batch_response(&req, &outcome);
                        Response {
                            dataset: Some(req.dataset),
                            ..Response::json(200, "OK", Body::Text(body))
                        }
                    }
                    Err(e) => query_error_response(&e),
                }
            }
        },
        ("GET", "/diff") => match parse_diff_request(query) {
            Err(msg) => bad(msg),
            Ok((mut req, against)) => {
                // A diff runs the query twice (before + after), so it gets
                // the same default ceiling as any other computation.
                if req.timeout_ms.is_none() {
                    req.timeout_ms = state.default_timeout.map(|d| d.as_millis() as u64);
                }
                match state.engine.execute_diff(&req, &against) {
                    Ok(body) => Response {
                        dataset: Some(req.dataset),
                        ..Response::json(200, "OK", Body::Shared(Arc::new(body)))
                    },
                    Err(e) => query_error_response(&e),
                }
            }
        },
        ("POST", _) => Response::json(
            405,
            "Method Not Allowed",
            Body::Text(error_body(
                "method_not_allowed",
                "POST is only accepted on /update, /batch, and /admin/checkpoint",
            )),
        ),
        ("GET", "/") | ("GET", "/healthz") => {
            let mut w = JsonWriter::new();
            w.begin_object().field_str("status", "ok").end_object();
            Response::json(200, "OK", Body::Text(w.finish()))
        }
        ("GET", "/datasets") => Response::json(200, "OK", Body::Text(render_datasets(state))),
        ("GET", "/dataset") => match single_param(query, "name") {
            Err(msg) => bad(msg),
            Ok(name) => match state.engine.registry().get(&name) {
                Err(msg) => bad(msg),
                Ok(g) => {
                    let body = crate::engine::render_stats(&name, &g.graph);
                    Response {
                        generation: Some(g.generation),
                        dataset: Some(name),
                        ..Response::json(200, "OK", Body::Text(body))
                    }
                }
            },
        },
        ("GET", "/query") => match parse_query_request(query) {
            Err(msg) => bad(msg),
            Ok(mut req) => {
                // Server-side compute ceiling: queries without their own
                // deadline get the configured default so no request can
                // pin a worker indefinitely.
                if req.timeout_ms.is_none() {
                    req.timeout_ms = state.default_timeout.map(|d| d.as_millis() as u64);
                }
                match state
                    .engine
                    .execute_traced_with(&req, Some(rec), Some(state))
                {
                    Ok(t) => {
                        // A profiled response splices the stage timings
                        // into a fresh buffer; the cached `Arc` keeps
                        // serving byte-identical unprofiled bodies.
                        let body = match &t.profile {
                            Some(totals) => Body::Bytes(crate::engine::splice_profile(
                                &t.body, totals, t.source,
                            )),
                            None => Body::Shared(t.body),
                        };
                        Response {
                            x_cache: Some(t.source.as_str()),
                            dataset: Some(req.dataset),
                            generation: Some(t.generation),
                            ..Response::json(200, "OK", body)
                        }
                    }
                    Err(e) => query_error_response(&e),
                }
            }
        },
        ("GET", "/metrics") => Response {
            content_type: mpds_obs::prom::CONTENT_TYPE,
            ..Response::json(200, "OK", Body::Text(render_metrics_prom(state)))
        },
        ("GET", "/debug/requests") => Response::json(
            200,
            "OK",
            Body::Text(render_trace_list("requests", &state.flight.in_flight())),
        ),
        ("GET", "/debug/slow") => Response::json(
            200,
            "OK",
            Body::Text(render_trace_list("slow", &state.flight.slow())),
        ),
        ("GET", p) if p.starts_with("/debug/trace/") => {
            let raw = &p["/debug/trace/".len()..];
            match parse_trace_id(raw) {
                None => bad(format!(
                    "bad trace id {raw:?} (expected 16 lowercase hex digits)"
                )),
                Some(id) => match state.flight.lookup(id) {
                    Some(r) => {
                        let mut w = JsonWriter::new();
                        w.begin_object();
                        render_trace_record(&mut w, &r);
                        w.end_object();
                        Response::json(200, "OK", Body::Text(w.finish()))
                    }
                    None => Response::json(
                        404,
                        "Not Found",
                        Body::Text(error_body(
                            "not_found",
                            &format!(
                                "trace {raw} is not in flight and no longer retained by the \
                                 completed or slow rings"
                            ),
                        )),
                    ),
                },
            }
        }
        ("GET", _) => Response::json(
            404,
            "Not Found",
            Body::Text(error_body("not_found", "no such endpoint")),
        ),
        (method, _) => bad(format!("method {method} not supported (GET or POST)")),
    }
}

fn query_error_response(e: &QueryError) -> Response {
    let (status, reason, code) = match e {
        QueryError::BadRequest(_) => (400, "Bad Request", "bad_request"),
        QueryError::DeadlineExceeded { .. } => (504, "Gateway Timeout", "deadline_exceeded"),
        QueryError::Cancelled => (503, "Service Unavailable", "cancelled"),
        QueryError::Internal(_) => (500, "Internal Server Error", "internal"),
    };
    Response::json(status, reason, Body::Text(error_body(code, &e.to_string())))
}

/// Renders `{"<key>":[{record},…]}` for `/debug/requests` and
/// `/debug/slow`.
fn render_trace_list(key: &str, records: &[TraceRecord]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key(key).begin_array();
    for r in records {
        w.begin_object();
        render_trace_record(&mut w, r);
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Writes one flight record's fields (the caller brackets the object):
/// identity, state, latency, and the per-stage breakdown in the shape
/// `?profile=1` splices into a response body.
fn render_trace_record(w: &mut JsonWriter, r: &TraceRecord) {
    w.field_str("trace_id", &format_trace_id(r.trace_id))
        .field_str("state", r.state.as_str())
        .field_str("endpoint", r.endpoint)
        .field_str("method", &r.method)
        .field_str("target", &r.target);
    if r.state == TraceState::Completed {
        w.field_uint("status", r.status as u64);
    }
    w.field_uint("wall_us", r.wall_us)
        .field_bool("slow", r.slow);
    if let Some(stage) = r.current_stage {
        w.field_str("current_stage", stage.as_str());
    }
    if r.endpoint == Endpoint::Query.as_str() {
        w.field_uint("helpers", r.helpers);
    }
    crate::engine::write_stages(w, &r.totals);
}

fn render_datasets(state: &ServerState) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("datasets").begin_array();
    for d in state.engine.registry().list() {
        w.begin_object()
            .field_str("name", &d.name)
            .field_bool("loaded", d.loaded);
        if let Some((n, m)) = d.shape {
            w.field_uint("nodes", n as u64)
                .field_uint("edges", m as u64);
        }
        if let Some(g) = d.generation {
            w.field_uint("generation", g);
        }
        // Durability state, present only when the server persists this
        // dataset (serve --data-dir).
        if let Some(r) = d.wal_records {
            w.field_uint("wal_records", r);
        }
        if let Some(b) = d.wal_bytes {
            w.field_uint("wal_bytes", b);
        }
        if let Some(g) = d.last_checkpoint_generation {
            w.field_uint("last_checkpoint_generation", g);
        }
        if let Some(n) = d.replayed_records {
            w.field_uint("replayed_records", n);
        }
        if let Some(ms) = d.recovery_ms {
            w.field_uint("recovery_ms", ms);
        }
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// The `/metrics` body: Prometheus text exposition, whatever the request's
/// `Accept` header says.
///
/// Latency histograms render one series per `(endpoint, source, status)`
/// combination that has seen traffic, with all 64 cumulative buckets —
/// so a scraper can reconstruct exact per-window snapshots with
/// [`mpds_obs::scrape::prom_histogram`]. The request counters
/// (`mpds_served_total` and the per-endpoint success counters) are read off
/// the same snapshot, so every request is counted in one place and a scrape
/// agrees with itself.
fn render_metrics_prom(state: &ServerState) -> String {
    let s = state.engine.stats();
    let eobs = state.engine.obs();
    let series = state.http_obs.series();
    let succeeded = |endpoint: Endpoint| -> u64 {
        series
            .iter()
            .filter(|(e, _, c, _)| *e == endpoint && *c == StatusClass::Success)
            .map(|(_, _, _, snap)| snap.count())
            .sum()
    };
    let mut p = PromText::new();

    p.family(
        "mpds_http_request_duration_microseconds",
        "histogram",
        "End-to-end request wall time by endpoint, cache source, and status class.",
    );
    for (endpoint, source, class, snap) in &series {
        // Each bucket line carries the most recent trace id that landed in
        // it, in Prometheus exemplar syntax — resolvable while retained via
        // GET /debug/trace/<id>.
        p.histogram_with_exemplars(
            "mpds_http_request_duration_microseconds",
            &[
                ("endpoint", endpoint.as_str()),
                ("source", source.as_str()),
                ("status", class.as_str()),
            ],
            snap,
            &state.http_obs.exemplars(*endpoint, *source, *class),
        );
    }

    p.family(
        "mpds_inflight_requests",
        "gauge",
        "Requests currently being read, routed, or written (includes this scrape).",
    );
    p.sample_i64(
        "mpds_inflight_requests",
        &[],
        state.http_obs.inflight.value(),
    );
    p.family(
        "mpds_admission_queue_depth",
        "gauge",
        "Accepted connections waiting for a worker (503 past capacity).",
    );
    p.sample_u64(
        "mpds_admission_queue_depth",
        &[],
        state.queue.lock().unwrap().conns.len() as u64,
    );

    p.family(
        "mpds_refine_queue_depth",
        "gauge",
        "Background refinement jobs queued or running (0 when drained).",
    );
    p.sample_i64(
        "mpds_refine_queue_depth",
        &[],
        eobs.refine_queue_depth.value(),
    );
    p.family(
        "mpds_refine_duration_microseconds",
        "histogram",
        "Wall time of completed background refinement runs.",
    );
    p.histogram(
        "mpds_refine_duration_microseconds",
        &[],
        &eobs.refine_hist.snapshot(),
    );
    p.family(
        "mpds_refine_runs_total",
        "counter",
        "Background refinement runs by outcome.",
    );
    p.sample_u64(
        "mpds_refine_runs_total",
        &[("outcome", "ok")],
        eobs.refine_ok.value(),
    );
    p.sample_u64(
        "mpds_refine_runs_total",
        &[("outcome", "failed")],
        eobs.refine_failed.value(),
    );
    p.family(
        "mpds_truncated_worlds_total",
        "counter",
        "Sampled worlds whose densest-subgraph enumeration hit the cap, over computed misses.",
    );
    p.sample_u64(
        "mpds_truncated_worlds_total",
        &[],
        eobs.truncated_worlds.value(),
    );

    let totals = eobs.stage_totals.totals();
    p.family(
        "mpds_stage_duration_nanoseconds_total",
        "counter",
        "Per-stage wall time aggregated over profiled (?profile=1) requests and background refinement runs.",
    );
    for stage in Stage::ALL {
        p.sample_u64(
            "mpds_stage_duration_nanoseconds_total",
            &[("stage", stage.as_str())],
            totals.total_ns(stage),
        );
    }
    p.family(
        "mpds_stage_invocations_total",
        "counter",
        "Per-stage invocation counts aggregated over profiled (?profile=1) requests and background refinement runs.",
    );
    for stage in Stage::ALL {
        p.sample_u64(
            "mpds_stage_invocations_total",
            &[("stage", stage.as_str())],
            totals.count(stage),
        );
    }
    p.family(
        "mpds_profiled_requests_total",
        "counter",
        "Requests served with ?profile=1.",
    );
    p.sample_u64("mpds_profiled_requests_total", &[], eobs.profiled.value());

    p.family(
        "mpds_slow_queries_total",
        "counter",
        "Requests promoted into the slow-query ring (wall time past the threshold).",
    );
    p.sample_u64("mpds_slow_queries_total", &[], state.flight.slow_promoted());
    p.family(
        "mpds_inflight_traces",
        "gauge",
        "Requests currently registered in the flight recorder.",
    );
    p.sample_u64(
        "mpds_inflight_traces",
        &[],
        state.flight.in_flight().len() as u64,
    );

    // SLO burn-rate families: one series per configured objective.
    let slo_snaps = state.slo.snapshots();
    p.family(
        "mpds_slo_requests_total",
        "counter",
        "Requests scored against each SLO, by verdict (excluded requests are not counted).",
    );
    for s in &slo_snaps {
        p.sample_u64(
            "mpds_slo_requests_total",
            &[("slo", &s.objective.name), ("verdict", "good")],
            s.good_total,
        );
        p.sample_u64(
            "mpds_slo_requests_total",
            &[("slo", &s.objective.name), ("verdict", "bad")],
            s.bad_total,
        );
    }
    p.family(
        "mpds_slo_burn_rate",
        "gauge",
        "Error-budget burn rate per objective (1.0 = burning exactly the budget), over fast and slow windows.",
    );
    for s in &slo_snaps {
        p.sample_f64(
            "mpds_slo_burn_rate",
            &[("slo", &s.objective.name), ("window", "5m")],
            s.burn_fast,
        );
        p.sample_f64(
            "mpds_slo_burn_rate",
            &[("slo", &s.objective.name), ("window", "1h")],
            s.burn_slow,
        );
    }
    p.family(
        "mpds_slo_target",
        "gauge",
        "Configured good-fraction target per objective.",
    );
    for s in &slo_snaps {
        p.sample_f64(
            "mpds_slo_target",
            &[("slo", &s.objective.name)],
            s.objective.target,
        );
    }

    p.family(
        "mpds_cache_requests_total",
        "counter",
        "Result-cache lookups by outcome.",
    );
    p.sample_u64(
        "mpds_cache_requests_total",
        &[("result", "hit")],
        s.cache.hits,
    );
    p.sample_u64(
        "mpds_cache_requests_total",
        &[("result", "miss")],
        s.cache.misses,
    );
    p.family("mpds_cache_entries", "gauge", "Live result-cache entries.");
    p.sample_u64("mpds_cache_entries", &[], s.cache.entries as u64);
    p.family("mpds_cache_capacity", "gauge", "Result-cache capacity.");
    p.sample_u64("mpds_cache_capacity", &[], s.cache.capacity as u64);

    for (name, help, value) in [
        (
            "mpds_queries_computed_total",
            "Queries that ran an estimator (cache misses).",
            s.computed,
        ),
        (
            "mpds_queries_coalesced_total",
            "Queries that joined an identical in-flight computation.",
            s.coalesced,
        ),
        (
            "mpds_queries_refined_total",
            "Budget-truncated answers refined and republished.",
            s.refined,
        ),
        (
            "mpds_worlds_sampled_total",
            "Possible worlds fully sampled across all computed queries.",
            s.worlds_sampled,
        ),
        (
            "mpds_helper_worlds_total",
            "Possible worlds solved by helpers lent from parked workers (part of mpds_worlds_sampled_total).",
            eobs.helper_worlds.value(),
        ),
        (
            "mpds_worlds_requested_total",
            "Possible worlds requested (theta summed) across computed queries.",
            s.worlds_requested,
        ),
        (
            "mpds_rejected_total",
            "Connections answered 503 at the admission gate.",
            state.rejected.load(Ordering::Relaxed),
        ),
        (
            "mpds_connections_accepted_total",
            "Connections admitted to the worker queue (each may carry many requests).",
            state.connections_accepted.load(Ordering::Relaxed),
        ),
        (
            "mpds_served_total",
            "Requests fully served (any status).",
            series.iter().map(|(_, _, _, snap)| snap.count()).sum(),
        ),
        (
            "mpds_updates_total",
            "Mutation batches applied through /update.",
            succeeded(Endpoint::Update),
        ),
        (
            "mpds_checkpoints_total",
            "Durable checkpoints forced through /admin/checkpoint.",
            succeeded(Endpoint::Checkpoint),
        ),
        (
            "mpds_batches_total",
            "Query batches served through /batch.",
            succeeded(Endpoint::Batch),
        ),
        (
            "mpds_diffs_total",
            "Diffs served through /diff.",
            succeeded(Endpoint::Diff),
        ),
    ] {
        p.family(name, "counter", help);
        p.sample_u64(name, &[], value);
    }

    // Per-dataset state (loaded datasets only — a scrape must never force
    // construction). The durability families sample only persistent
    // datasets, so non-durable servers expose them with no series.
    type Field = fn(&DatasetInfo) -> Option<u64>;
    let per_dataset: [(&str, &str, &str, Field); 8] = [
        (
            "mpds_dataset_generation",
            "gauge",
            "Current generation of each loaded dataset.",
            |d| d.generation,
        ),
        (
            "mpds_dataset_overlay_edges",
            "gauge",
            "Uncompacted overlay edges per loaded dataset.",
            |d| d.overlay.map(|o| o as u64),
        ),
        (
            "mpds_dataset_compactions_total",
            "counter",
            "Overlay compactions per loaded dataset.",
            |d| d.compactions,
        ),
        (
            "mpds_dataset_wal_records",
            "gauge",
            "Write-ahead-log records not yet covered by a checkpoint, per durable dataset.",
            |d| d.wal_records,
        ),
        (
            "mpds_dataset_wal_bytes",
            "gauge",
            "On-disk write-ahead-log size in bytes, per durable dataset.",
            |d| d.wal_bytes,
        ),
        (
            "mpds_dataset_last_checkpoint_generation",
            "gauge",
            "Generation stamped into the newest durable checkpoint, per durable dataset.",
            |d| d.last_checkpoint_generation,
        ),
        (
            "mpds_dataset_replayed_records",
            "gauge",
            "WAL records replayed during the last recovery, per durable dataset.",
            |d| d.replayed_records,
        ),
        (
            "mpds_dataset_recovery_milliseconds",
            "gauge",
            "Milliseconds the last recovery took (open + replay), per durable dataset.",
            |d| d.recovery_ms,
        ),
    ];
    let listing = state.engine.registry().list();
    for (name, kind, help, field) in per_dataset {
        p.family(name, kind, help);
        for d in listing.iter().filter(|d| d.loaded) {
            if let Some(v) = field(d) {
                p.sample_u64(name, &[("dataset", &d.name)], v);
            }
        }
    }
    p.finish()
}

/// Writes `resp` with its `X-Trace-Id` in a single write (head and body
/// together), announcing whether the connection stays open.
fn write_response(
    stream: &mut impl Write,
    resp: &Response,
    trace: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let body = resp.body.as_bytes();
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason,
        resp.content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(v) = resp.x_cache {
        head.push_str(&format!("X-Cache: {v}\r\n"));
    }
    head.push_str(&format!("X-Trace-Id: {trace}\r\n\r\n"));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Extracts the single parameter `want` from a query string.
fn single_param(query: &str, want: &str) -> Result<String, String> {
    for (k, v) in query_pairs(query)? {
        if k == want {
            return Ok(v);
        }
    }
    Err(format!("missing parameter {want:?}"))
}

/// Splits and percent-decodes `k=v&k=v` pairs.
fn query_pairs(query: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in query.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(out)
}

/// Minimal percent-decoding (`%XX` and `+` for space).
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated percent escape in {s:?}"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| "bad escape".to_string())?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad percent escape %{hex}"))?;
                out.push(byte);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("query parameter {s:?} is not UTF-8"))
}

/// Parses `/query` parameters into a [`QueryRequest`]. Unknown and
/// duplicate parameters are rejected — same contract as the CLI flags.
fn parse_query_request(query: &str) -> Result<QueryRequest, String> {
    parse_query_pairs(&query_pairs(query)?)
}

/// The pairs-based core of [`parse_query_request`], shared with `/diff`
/// (which strips its own parameters off the pair list first).
fn parse_query_pairs(pairs: &[(String, String)]) -> Result<QueryRequest, String> {
    let dataset = pairs
        .iter()
        .find(|(k, _)| k == "dataset")
        .map(|(_, v)| v.clone())
        .ok_or("missing parameter \"dataset\"")?;
    let mut req = QueryRequest::new(&dataset);
    let mut seen = std::collections::HashSet::new();
    let mut stop: Option<String> = None;
    let mut window: Option<u32> = None;
    for (k, v) in pairs {
        // `density` is an alias of `notion`; canonicalize before the
        // duplicate check so `notion=…&density=…` cannot sneak past it.
        let canonical = if k == "density" { "notion" } else { k.as_str() };
        if !seen.insert(canonical.to_string()) {
            return Err(format!("duplicate parameter {canonical:?}"));
        }
        let parse_usize = || v.parse::<usize>().map_err(|e| format!("{k}: {e}"));
        match k.as_str() {
            "dataset" => {}
            "algo" => req.algo = Algo::parse(v)?,
            "notion" | "density" => req.notion = v.clone(),
            "theta" => req.theta = parse_usize()?,
            "k" => req.k = parse_usize()?,
            "lm" => req.lm = parse_usize()?,
            "seed" => req.seed = v.parse().map_err(|e| format!("seed: {e}"))?,
            "heuristic" => {
                req.heuristic = match v.as_str() {
                    "true" | "1" | "" => true,
                    "false" | "0" => false,
                    other => return Err(format!("heuristic: bad boolean {other:?}")),
                }
            }
            "threads" => req.threads = parse_usize()?,
            "timeout_ms" => {
                req.timeout_ms = Some(v.parse().map_err(|e| format!("timeout_ms: {e}"))?)
            }
            "budget_ms" => req.budget_ms = Some(v.parse().map_err(|e| format!("budget_ms: {e}"))?),
            "profile" => {
                req.profile = match v.as_str() {
                    "true" | "1" | "" => true,
                    "false" | "0" => false,
                    other => return Err(format!("profile: bad boolean {other:?}")),
                }
            }
            "stop" => stop = Some(v.clone()),
            "window" => window = Some(v.parse().map_err(|e| format!("window: {e}"))?),
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    req.stop = parse_stop(stop.as_deref(), window)?;
    Ok(req)
}

/// Combines the `stop` and `window` parameters into a [`StopSpec`]: the
/// grammar shared by `/query`, `/batch`, and the CLI flags. `window`
/// without `stop=stable` is rejected (it would silently do nothing).
fn parse_stop(stop: Option<&str>, window: Option<u32>) -> Result<StopSpec, String> {
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

/// Parses `/diff` parameters: the `/query` grammar plus a required
/// `against` (the baseline dataset), minus `threads` (diffs are serial —
/// common random numbers are one per-snapshot stream).
fn parse_diff_request(query: &str) -> Result<(QueryRequest, String), String> {
    let mut against = None;
    let mut rest = Vec::new();
    for (k, v) in query_pairs(query)? {
        match k.as_str() {
            "against" => {
                if against.replace(v).is_some() {
                    return Err("duplicate parameter \"against\"".to_string());
                }
            }
            "threads" => {
                return Err(
                    "diff runs serially (CRN is one per-snapshot stream); drop threads".to_string(),
                )
            }
            "stop" | "window" | "budget_ms" => {
                return Err(format!(
                    "diff supports no {k:?}: common random numbers need the same \
                     fixed-θ stream on both snapshots"
                ))
            }
            "profile" => {
                return Err(
                    "diff supports no \"profile\": stage timings are per-evaluation \
                     and a diff runs two"
                        .to_string(),
                )
            }
            _ => rest.push((k, v)),
        }
    }
    let req = parse_query_pairs(&rest)?;
    let against = against.ok_or("missing parameter \"against\"")?;
    Ok((req, against))
}

/// Parses a `POST /batch` JSON body. Shared stream fields live at the top
/// level; members carry only estimator-side knobs. Unknown and duplicate
/// keys are rejected — same contract as the query-string grammar.
fn parse_batch_request(body: &[u8]) -> Result<BatchRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "batch body is not UTF-8".to_string())?;
    let doc = JsonValue::parse(text).map_err(|e| format!("batch body: {e}"))?;
    let JsonValue::Object(fields) = &doc else {
        return Err("batch body must be a JSON object".to_string());
    };
    let dataset = doc
        .get("dataset")?
        .ok_or("missing field \"dataset\"")?
        .as_str("dataset")?
        .to_string();
    let mut req = BatchRequest::new(&dataset);
    let mut stop: Option<String> = None;
    let mut window: Option<u32> = None;
    for (key, value) in fields {
        match key.as_str() {
            "dataset" => {}
            "theta" => req.theta = value.as_usize("theta")?,
            "seed" => req.seed = value.as_u64("seed")?,
            "timeout_ms" => req.timeout_ms = Some(value.as_u64("timeout_ms")?),
            "budget_ms" => req.budget_ms = Some(value.as_u64("budget_ms")?),
            "stop" => stop = Some(value.as_str("stop")?.to_string()),
            "window" => {
                let raw = value.as_u64("window")?;
                window = Some(
                    raw.try_into()
                        .map_err(|_| format!("window: {raw} does not fit in 32 bits"))?,
                )
            }
            "members" => {
                for (i, m) in value.as_array("members")?.iter().enumerate() {
                    req.members.push(parse_batch_member(m, i)?);
                }
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    req.stop = parse_stop(stop.as_deref(), window)?;
    // Trip the duplicate-key check for every known top-level field.
    for key in [
        "dataset",
        "theta",
        "seed",
        "timeout_ms",
        "budget_ms",
        "stop",
        "window",
        "members",
    ] {
        doc.get(key)?;
    }
    if req.members.is_empty() {
        return Err("batch has no members (provide a non-empty \"members\" array)".to_string());
    }
    if req.members.len() > MAX_BATCH_MEMBERS {
        return Err(format!(
            "batch has {} members (limit {MAX_BATCH_MEMBERS})",
            req.members.len()
        ));
    }
    Ok(req)
}

fn parse_batch_member(value: &JsonValue, index: usize) -> Result<BatchMember, String> {
    let JsonValue::Object(fields) = value else {
        return Err(format!("member {index}: expected a JSON object"));
    };
    let mut m = BatchMember::default();
    for (key, v) in fields {
        let what = |name: &str| format!("member {index}: {name}");
        match key.as_str() {
            "algo" => m.algo = Algo::parse(v.as_str(&what("algo"))?)?,
            "notion" | "density" => m.notion = v.as_str(&what("notion"))?.to_string(),
            "k" => m.k = v.as_usize(&what("k"))?,
            "lm" => m.lm = v.as_usize(&what("lm"))?,
            "heuristic" => m.heuristic = v.as_bool(&what("heuristic"))?,
            other => return Err(format!("member {index}: unknown field {other:?}")),
        }
    }
    for key in ["algo", "notion", "k", "lm", "heuristic"] {
        value.get(key).map_err(|e| format!("member {index}: {e}"))?;
    }
    // `notion`/`density` aliasing cannot slip a duplicate past `get`.
    if value.get("notion")?.is_some() && value.get("density")?.is_some() {
        return Err(format!("member {index}: duplicate key \"notion\""));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").unwrap(), "a b c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("bad%2").is_err());
        assert!(percent_decode("bad%zz").is_err());
    }

    #[test]
    fn query_request_parsing() {
        let req = parse_query_request("dataset=karate&theta=100&k=2&seed=7&algo=nds&lm=3").unwrap();
        assert_eq!(req.dataset, "karate");
        assert_eq!(req.theta, 100);
        assert_eq!(req.k, 2);
        assert_eq!(req.seed, 7);
        assert_eq!(req.algo, Algo::Nds);
        assert_eq!(req.lm, 3);
        assert!(!req.heuristic);
        assert_eq!(req.threads, 1);
    }

    #[test]
    fn threads_parameter_is_parsed_and_bounded() {
        let req = parse_query_request("dataset=karate&threads=4").unwrap();
        assert_eq!(req.threads, 4);
        assert!(req.validate().is_ok());
        let req = parse_query_request("dataset=karate&threads=0").unwrap();
        assert!(req.validate().unwrap_err().contains("threads"));
        assert!(parse_query_request("dataset=karate&threads=x").is_err());
        assert!(parse_query_request("dataset=karate&threads=2&threads=3")
            .unwrap_err()
            .contains("duplicate parameter"));
    }

    #[test]
    fn query_request_rejects_unknown_and_duplicates() {
        assert!(parse_query_request("theta=5")
            .unwrap_err()
            .contains("dataset"));
        assert!(parse_query_request("dataset=karate&bogus=1")
            .unwrap_err()
            .contains("unknown parameter"));
        assert!(parse_query_request("dataset=karate&theta=1&theta=2")
            .unwrap_err()
            .contains("duplicate parameter"));
        // `density` aliases `notion`: mixing them is a duplicate too.
        assert!(
            parse_query_request("dataset=karate&notion=edge&density=2star")
                .unwrap_err()
                .contains("duplicate parameter \"notion\"")
        );
    }

    #[test]
    fn diff_request_parsing() {
        let (req, against) =
            parse_diff_request("dataset=after&against=before&theta=200&k=3&seed=9").unwrap();
        assert_eq!(req.dataset, "after");
        assert_eq!(against, "before");
        assert_eq!(req.theta, 200);
        assert_eq!(req.k, 3);
        assert_eq!(req.seed, 9);
        assert!(parse_diff_request("dataset=a&theta=5")
            .unwrap_err()
            .contains("against"));
        assert!(parse_diff_request("dataset=a&against=b&against=c")
            .unwrap_err()
            .contains("duplicate parameter \"against\""));
        assert!(parse_diff_request("dataset=a&against=b&threads=2")
            .unwrap_err()
            .contains("serially"));
        assert!(parse_diff_request("dataset=a&against=b&bogus=1")
            .unwrap_err()
            .contains("unknown parameter"));
    }

    #[test]
    fn batch_request_parsing() {
        let body = br#"{"dataset":"karate","theta":150,"seed":11,
            "members":[{"algo":"mpds","notion":"edge","k":2},
                       {"algo":"nds","k":3,"lm":2,"heuristic":true}]}"#;
        let req = parse_batch_request(body).unwrap();
        assert_eq!(req.dataset, "karate");
        assert_eq!(req.theta, 150);
        assert_eq!(req.seed, 11);
        assert_eq!(req.timeout_ms, None);
        assert_eq!(req.members.len(), 2);
        assert_eq!(req.members[0].algo, Algo::Mpds);
        assert_eq!(req.members[0].k, 2);
        assert_eq!(req.members[1].algo, Algo::Nds);
        assert_eq!(req.members[1].lm, 2);
        assert!(req.members[1].heuristic);
    }

    #[test]
    fn batch_request_defaults_and_validation() {
        // Members fall back to the same defaults as /query parameters.
        let req = parse_batch_request(br#"{"dataset":"d","members":[{}]}"#).unwrap();
        assert_eq!(req.theta, 320);
        assert_eq!(req.seed, 42);
        assert_eq!(req.members[0].algo, Algo::Mpds);
        assert_eq!(req.members[0].notion, "edge");
        assert_eq!(req.members[0].k, 5);
    }

    #[test]
    fn batch_request_rejections() {
        let err = |body: &str| parse_batch_request(body.as_bytes()).unwrap_err();
        assert!(err(r#"{"members":[{}]}"#).contains("dataset"));
        assert!(err(r#"{"dataset":"d"}"#).contains("members"));
        assert!(err(r#"{"dataset":"d","members":[]}"#).contains("no members"));
        assert!(err(r#"{"dataset":"d","members":[{}],"bogus":1}"#).contains("unknown field"));
        assert!(
            err(r#"{"dataset":"d","members":[{"bogus":1}]}"#).contains("member 0: unknown field")
        );
        assert!(err(r#"{"dataset":"d","theta":1,"theta":2,"members":[{}]}"#).contains("duplicate"));
        assert!(err(r#"{"dataset":"d","members":[{"k":1},{"k":2,"k":3}]}"#).contains("member 1:"));
        assert!(
            err(r#"{"dataset":"d","members":[{"notion":"edge","density":"edge"}]}"#)
                .contains("duplicate key \"notion\"")
        );
        assert!(err("not json").contains("batch body"));
        let too_many = format!(
            r#"{{"dataset":"d","members":[{}]}}"#,
            vec!["{}"; MAX_BATCH_MEMBERS + 1].join(",")
        );
        assert!(err(&too_many).contains("limit"));
    }

    #[test]
    fn stop_and_budget_parameters() {
        let req = parse_query_request("dataset=karate&stop=stable&window=16").unwrap();
        assert_eq!(req.stop, StopSpec::Stable { window: 16 });
        let req = parse_query_request("dataset=karate&stop=stable").unwrap();
        assert_eq!(
            req.stop,
            StopSpec::Stable {
                window: DEFAULT_STABLE_WINDOW
            }
        );
        let req = parse_query_request("dataset=karate&stop=fixed").unwrap();
        assert_eq!(req.stop, StopSpec::Fixed);
        let req = parse_query_request("dataset=karate&budget_ms=250").unwrap();
        assert_eq!(req.budget_ms, Some(250));
        assert_eq!(req.stop, StopSpec::Fixed);
        // window without stop=stable would silently do nothing — reject.
        assert!(parse_query_request("dataset=karate&window=8")
            .unwrap_err()
            .contains("stop=stable"));
        assert!(parse_query_request("dataset=karate&stop=fixed&window=8")
            .unwrap_err()
            .contains("stop=stable"));
        assert!(parse_query_request("dataset=karate&stop=sideways")
            .unwrap_err()
            .contains("unknown policy"));
        assert!(
            parse_query_request("dataset=karate&stop=stable&stop=stable")
                .unwrap_err()
                .contains("duplicate parameter")
        );
    }

    #[test]
    fn diff_rejects_anytime_parameters() {
        for p in ["stop=stable", "window=8", "budget_ms=100"] {
            let err = parse_diff_request(&format!("dataset=a&against=b&{p}")).unwrap_err();
            assert!(err.contains("common random numbers"), "{p}: {err}");
        }
    }

    #[test]
    fn profile_parameter_forms() {
        assert!(
            parse_query_request("dataset=karate&profile=1")
                .unwrap()
                .profile
        );
        assert!(
            parse_query_request("dataset=karate&profile=true")
                .unwrap()
                .profile
        );
        assert!(
            !parse_query_request("dataset=karate&profile=0")
                .unwrap()
                .profile
        );
        assert!(!parse_query_request("dataset=karate").unwrap().profile);
        assert!(parse_query_request("dataset=karate&profile=maybe").is_err());
        assert!(parse_query_request("dataset=karate&profile=1&profile=1")
            .unwrap_err()
            .contains("duplicate parameter"));
        assert!(parse_diff_request("dataset=a&against=b&profile=1")
            .unwrap_err()
            .contains("profile"));
    }

    #[test]
    fn batch_stop_and_budget_fields() {
        let req = parse_batch_request(
            br#"{"dataset":"d","stop":"stable","window":12,"budget_ms":500,"members":[{}]}"#,
        )
        .unwrap();
        assert_eq!(req.stop, StopSpec::Stable { window: 12 });
        assert_eq!(req.budget_ms, Some(500));
        let req =
            parse_batch_request(br#"{"dataset":"d","stop":"stable","members":[{}]}"#).unwrap();
        assert_eq!(
            req.stop,
            StopSpec::Stable {
                window: DEFAULT_STABLE_WINDOW
            }
        );
        assert!(
            parse_batch_request(br#"{"dataset":"d","window":5,"members":[{}]}"#)
                .unwrap_err()
                .contains("stop=stable")
        );
        assert!(
            parse_batch_request(br#"{"dataset":"d","stop":"nope","members":[{}]}"#)
                .unwrap_err()
                .contains("unknown policy")
        );
    }

    /// A reader that hands out at most `step` bytes per call, like a socket
    /// receiving a request in pieces.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_request_keeps_a_pipelined_request_after_a_body() {
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
                    GET /healthz HTTP/1.1\r\nAccept: text/plain\r\n\r\n";
        let mut src = &raw[..];
        let mut carry = Vec::new();
        let first = read_request(&mut src, &mut carry, |_, _| true).unwrap();
        assert_eq!(
            (first.method.as_str(), first.target.as_str()),
            ("POST", "/batch")
        );
        assert_eq!(first.body, b"hello");
        assert!(first.keep_alive);
        assert!(carry.starts_with(b"GET /healthz"), "{carry:?}");
        let second = read_request(&mut src, &mut carry, |_, _| true).unwrap();
        assert_eq!(
            (second.method.as_str(), second.target.as_str()),
            ("GET", "/healthz")
        );
        assert!(second.body.is_empty() && second.keep_alive);
        assert!(carry.is_empty());
    }

    #[test]
    fn read_request_drains_a_rejected_body_and_leaves_the_next_request() {
        let body = vec![b'x'; 3000];
        let mut raw = b"POST /update HTTP/1.1\r\nContent-Length: 3000\r\n\r\n".to_vec();
        raw.extend_from_slice(&body);
        raw.extend_from_slice(b"GET /datasets HTTP/1.1\r\n\r\n");
        // In one buffer (the body arrives with the head) and trickled in
        // pieces (the body is drained from the stream).
        for step in [raw.len(), 7] {
            let mut src = Trickle { data: &raw, step };
            let mut carry = Vec::new();
            let rejected = read_request(&mut src, &mut carry, |_, _| false).unwrap();
            assert_eq!(rejected.target, "/update");
            assert!(
                rejected.body.is_empty(),
                "a rejected body is never buffered"
            );
            assert!(rejected.keep_alive, "step {step}");
            let next = read_request(&mut src, &mut carry, |_, _| false).unwrap();
            assert_eq!(
                (next.method.as_str(), next.target.as_str()),
                ("GET", "/datasets")
            );
            assert!(next.keep_alive && carry.is_empty() && src.data.is_empty());
        }
    }

    #[test]
    fn read_request_closes_past_the_rejected_drain_bound() {
        let len = MAX_REJECTED_DRAIN + 2_000;
        let mut raw =
            format!("POST /update HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes();
        raw.resize(raw.len() + len, b'x');
        let mut src = Trickle {
            data: &raw,
            step: 512,
        };
        let r = read_request(&mut src, &mut Vec::new(), |_, _| false).unwrap();
        assert!(
            !r.keep_alive,
            "an undrained body leaves the stream mid-request"
        );
        // The drain stopped at the bound instead of reading the whole body.
        assert!(!src.data.is_empty());
        // A body that ends early (client gone) also closes.
        let mut src = &b"POST /nope HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"[..];
        assert!(
            !read_request(&mut src, &mut Vec::new(), |_, _| false)
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn read_request_keep_alive_follows_version_and_connection_header() {
        let keep = |raw: &[u8]| {
            let mut src = raw;
            read_request(&mut src, &mut Vec::new(), |_, _| false)
                .unwrap()
                .keep_alive
        };
        assert!(keep(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(keep(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep(
            b"GET / HTTP/1.1\r\nconnection: Keep-Alive, CLOSE\r\n\r\n"
        ));
        assert!(!keep(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(!keep(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep(b"GET /\r\n\r\n"));
        // A head cut off by EOF is answered, but nothing can follow it.
        assert!(!keep(b"GET / HTTP/1.1\r\n"));
    }

    #[test]
    fn read_request_never_reads_a_chunked_body_as_the_next_request() {
        // The chunk's payload is a complete request line. The body is not
        // Content-Length framed, so the connection must close after this
        // request instead of running that payload as a second request.
        let raw = b"POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    13\r\nGET /x HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
        for accepted in [true, false] {
            let mut src = &raw[..];
            let r = read_request(&mut src, &mut Vec::new(), |_, _| accepted).unwrap();
            assert_eq!(r.target, "/batch");
            assert!(!r.keep_alive, "accepted route: {accepted}");
        }
        // Content-Length beside Transfer-Encoding closes too.
        let mut src = &b"POST /batch HTTP/1.1\r\nContent-Length: 0\r\n\
                          Transfer-Encoding: chunked\r\n\r\n"[..];
        assert!(
            !read_request(&mut src, &mut Vec::new(), |_, _| true)
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn read_request_rejects_conflicting_content_lengths() {
        let mut src = &b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\
                          Content-Length: 26\r\n\r\nhelloGET /x HTTP/1.1\r\n\r\n"[..];
        let err = read_request(&mut src, &mut Vec::new(), |_, _| true)
            .err()
            .expect("conflicting lengths are a bad request");
        assert!(err.contains("conflicting Content-Length"), "{err}");
        // Repeating the same length is allowed.
        let mut src = &b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\
                          Content-Length: 5\r\n\r\nhello"[..];
        let r = read_request(&mut src, &mut Vec::new(), |_, _| true).unwrap();
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive);
    }

    #[test]
    fn only_connections_no_worker_will_take_are_popped_to_yield() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut queue = AdmissionQueue::default();
        let _clients: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let long_ago = Instant::now() - IDLE_POLL;
        for _ in 0..2 {
            queue
                .conns
                .push_back((listener.accept().unwrap().0, long_ago));
        }
        // Two parked workers take both connections: nobody yields.
        queue.idle_workers = 2;
        assert!(queue.pop_unclaimed(false).is_none());
        // One parked worker and one idle kept connection: the idle one
        // yields, a busy one does not.
        queue.idle_workers = 1;
        queue.idle_kept = 1;
        assert!(queue.pop_unclaimed(true).is_none());
        assert!(queue.pop_unclaimed(false).is_some());
        // Popping under the lock means the next worker to look finds the
        // remaining connection claimed by the parked worker.
        assert!(queue.pop_unclaimed(false).is_none());
        queue.idle_workers = 0;
        queue.idle_kept = 0;
        // A busy worker yields only to a connection that has waited a whole
        // idle slice; an idle one yields at once.
        queue.conns[0].1 = Instant::now();
        assert!(queue.pop_unclaimed(true).is_none());
        queue.conns[0].1 = long_ago;
        assert!(queue.pop_unclaimed(true).is_some());
        assert!(queue.pop_unclaimed(true).is_none());
        let _late = TcpStream::connect(addr).unwrap();
        queue
            .conns
            .push_back((listener.accept().unwrap().0, Instant::now()));
        assert!(queue.pop_unclaimed(false).is_some());
    }

    #[test]
    fn write_response_is_one_buffer_with_the_connection_header() {
        let resp = Response {
            x_cache: Some("HIT"),
            ..Response::json(200, "OK", Body::Text("{}".to_string()))
        };
        let mut out = Vec::new();
        write_response(&mut out, &resp, "00000000000000ab", true).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
              Connection: keep-alive\r\nX-Cache: HIT\r\nX-Trace-Id: 00000000000000ab\r\n\r\n{}"
        );
        let mut out = Vec::new();
        write_response(&mut out, &resp, "00000000000000ab", false).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\r\nConnection: close\r\n"));
    }

    #[test]
    fn heuristic_flag_forms() {
        assert!(
            parse_query_request("dataset=karate&heuristic=true")
                .unwrap()
                .heuristic
        );
        assert!(
            parse_query_request("dataset=karate&heuristic=1")
                .unwrap()
                .heuristic
        );
        assert!(
            !parse_query_request("dataset=karate&heuristic=false")
                .unwrap()
                .heuristic
        );
        assert!(parse_query_request("dataset=karate&heuristic=maybe").is_err());
    }
}
