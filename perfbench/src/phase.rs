//! Set-up and the measured, closed-loop phase of each workload, driven over
//! HTTP against the server child process, plus the correctness oracle that
//! replays served answers in-process.

use crate::client::{Client, Response};
use crate::server::{Options, Server};
use crate::workload::{
    churn_keys, cold_query, query_path, ColdPlan, HotPlan, ScriptGen, Workload, CHECKPOINT_EVERY,
    CHURN_DATASET, CLIENTS, READS_PER_KEY,
};
use mpds::control::RunControl;
use mpds_service::engine::{render_query_response, render_stats, run_query};
use mpds_service::registry::LoadedGraph;
use mpds_service::{GraphRegistry, QueryRequest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use ugraph::{DeltaGraph, UncertainGraph};

/// Per-process scratch directories inside the checkout, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

/// Parent of every run's scratch directory, relative to the checkout root.
const WORK_PARENT: &str = ".perfbench-work";

impl WorkDir {
    pub fn new() -> Result<WorkDir, String> {
        let root = Path::new(WORK_PARENT).join(std::process::id().to_string());
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A new, not yet existing directory path.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only succeeds once no concurrent run still uses the parent.
        let _ = std::fs::remove_dir(WORK_PARENT);
    }
}

/// What a run needs: the server binary, scratch space, and the inputs.
pub struct Ctx {
    pub bin: PathBuf,
    pub work: WorkDir,
    pub workload: Workload,
    pub seed: u64,
    pub inputs: Inputs,
}

/// The seeded inputs of one workload.
pub enum Inputs {
    Cold(ColdPlan),
    Hot(HotPlan),
    Churn {
        keys: Vec<QueryRequest>,
        base: Arc<UncertainGraph>,
    },
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::ColdExact => Inputs::Cold(ColdPlan::new(seed)),
            Workload::HotHit => Inputs::Hot(HotPlan::new(seed)),
            Workload::ChurnDurable => Inputs::Churn {
                keys: churn_keys(seed),
                base: builtin(CHURN_DATASET).graph.clone(),
            },
        }
    }
}

/// A built-in dataset exactly as a fresh server builds it.
pub fn builtin(name: &str) -> Arc<LoadedGraph> {
    GraphRegistry::with_builtins()
        .get(name)
        .expect("built-in dataset")
}

/// Counts operations and failures; keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Marks an already counted operation as failed.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.failed += other.failed;
    }
}

/// How a read was answered, from its `X-Cache` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Hit,
    Miss,
    Coalesced,
    Other,
}

impl Source {
    fn of(r: &Response) -> Source {
        match r.x_cache.as_deref() {
            Some("HIT") => Source::Hit,
            Some("MISS") => Source::Miss,
            Some("COALESCED") => Source::Coalesced,
            _ => Source::Other,
        }
    }
}

/// One completed read. `id` names the generated input: the read index on
/// cold-exact and hot-hit, and
/// `(round × clients + client) × READS_PER_KEY + rep` on churn-durable.
#[derive(Debug, Clone)]
pub struct Read {
    pub id: u64,
    pub ms: f64,
    pub source: Source,
}

/// Everything the measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub reads: Vec<Read>,
    pub writes_ms: Vec<f64>,
    pub checkpoints_ms: Vec<f64>,
    pub wall_s: f64,
    pub connects: u64,
    pub requests: u64,
    pub tally: Tally,
    /// cold-exact: `(read index, body)` of every read, for the oracle.
    pub cold_bodies: Vec<(u64, Vec<u8>)>,
    /// churn-durable: rounds completed, and the MISS body of every
    /// `(round, client key)`.
    pub rounds: usize,
    pub churn_bodies: Vec<Vec<Vec<u8>>>,
    /// churn-durable: `/dataset` stats after the last round.
    pub final_stats: Vec<u8>,
}

impl Phase {
    pub fn reads_per_s(&self) -> f64 {
        self.reads.len() as f64 / self.wall_s
    }

    pub fn read_ms(&self) -> Vec<f64> {
        self.reads.iter().map(|r| r.ms).collect()
    }

    pub fn count(&self, source: Source) -> usize {
        self.reads.iter().filter(|r| r.source == source).count()
    }
}

/// A server after set-up: up, datasets built, caches warmed.
pub struct Setup {
    pub server: Server,
    pub secs: f64,
    /// hot-hit: each key's warm-up body.
    pub warm: Vec<Vec<u8>>,
}

fn http_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Spawn → `/healthz` → datasets built → warm-up done, timed.
pub fn set_up(ctx: &Ctx, no_flight: bool) -> Result<Setup, String> {
    let started = Instant::now();
    let data_dir = (ctx.workload == Workload::ChurnDurable).then(|| ctx.work.fresh("data"));
    let server = Server::spawn(
        &ctx.bin,
        &Options {
            data_dir,
            no_flight,
            cache_capacity: ctx.workload.cache_capacity(),
        },
    )?;
    let mut client = Client::new(server.addr);
    for ds in ctx.workload.datasets() {
        let target = format!("/dataset?name={ds}");
        let r = client.get(&target).map_err(|e| http_err(&target, e))?;
        if r.status != 200 {
            return Err(format!("{target}: status {}", r.status));
        }
    }
    let warm = match &ctx.inputs {
        Inputs::Hot(plan) => warm_up(server.addr, plan)?,
        _ => Vec::new(),
    };
    Ok(Setup {
        server,
        secs: started.elapsed().as_secs_f64(),
        warm,
    })
}

/// Computes every hot-hit key once, from `CLIENTS` connections.
fn warm_up(addr: std::net::SocketAddr, plan: &HotPlan) -> Result<Vec<Vec<u8>>, String> {
    let next = AtomicU64::new(0);
    let bodies = Mutex::new(vec![Vec::new(); plan.keys.len()]);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut client = Client::new(addr);
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(key) = plan.keys.get(j) else {
                            return Ok(());
                        };
                        let target = query_path(key);
                        let r = client.get(&target).map_err(|e| http_err(&target, e))?;
                        if r.status != 200 || Source::of(&r) != Source::Miss {
                            return Err(format!("warm-up {target}: status {}", r.status));
                        }
                        bodies.lock().expect("warm-up lock")[j] = r.body;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })?;
    Ok(bodies.into_inner().expect("warm-up lock"))
}

/// Per-client results, merged after the phase.
#[derive(Default)]
struct ClientOut {
    reads: Vec<Read>,
    writes_ms: Vec<f64>,
    checkpoints_ms: Vec<f64>,
    tally: Tally,
    connects: u64,
    cold_bodies: Vec<(u64, Vec<u8>)>,
    churn_bodies: Vec<(usize, Vec<u8>)>,
    rounds: usize,
    end: Option<Instant>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the workload's closed loop for `secs` seconds against `setup`.
pub fn measure(ctx: &Ctx, setup: &Setup, secs: f64) -> Phase {
    let addr = setup.server.addr;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let next = AtomicU64::new(0);
    let clients = ctx.workload.clients();
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let script = Mutex::new(match &ctx.inputs {
        Inputs::Churn { base, .. } => Some(ScriptGen::new(ctx.seed, base)),
        _ => None,
    });
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (next, barrier, stop, script) = (&next, &barrier, &stop, &script);
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = ClientOut::default();
                    match &ctx.inputs {
                        Inputs::Cold(plan) => {
                            cold_loop(&mut client, &mut out, plan, next, deadline)
                        }
                        Inputs::Hot(plan) => {
                            hot_loop(&mut client, &mut out, plan, &setup.warm, next, deadline)
                        }
                        Inputs::Churn { keys, .. } => {
                            let churn = Churn {
                                client: c,
                                keys,
                                barrier,
                                stop,
                                script,
                                deadline,
                            };
                            churn.run(&mut client, &mut out)
                        }
                    }
                    out.connects = client.connects;
                    out.end = Some(Instant::now());
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let end = outs.iter().filter_map(|o| o.end).max().unwrap_or(started);
    let mut phase = Phase {
        wall_s: (end - started).as_secs_f64(),
        ..Phase::default()
    };
    let mut churn_bodies = Vec::new();
    for out in outs {
        phase.reads.extend(out.reads);
        phase.writes_ms.extend(out.writes_ms);
        phase.checkpoints_ms.extend(out.checkpoints_ms);
        phase.tally.absorb(out.tally);
        phase.connects += out.connects;
        phase.cold_bodies.extend(out.cold_bodies);
        churn_bodies.extend(out.churn_bodies);
        phase.rounds = phase.rounds.max(out.rounds);
    }
    phase.reads.sort_by_key(|r| r.id);
    phase.cold_bodies.sort_by_key(|b| b.0);
    phase.requests = phase.tally.attempted;
    if let Inputs::Churn { .. } = ctx.inputs {
        phase.churn_bodies = vec![vec![Vec::new(); CLIENTS]; phase.rounds];
        for (slot, body) in churn_bodies {
            phase.churn_bodies[slot / CLIENTS][slot % CLIENTS] = body;
        }
        let target = format!("/dataset?name={CHURN_DATASET}");
        match Client::new(addr).get(&target) {
            Ok(r) if r.status == 200 => phase.final_stats = r.body,
            Ok(r) => phase.tally.fail(format!("{target}: status {}", r.status)),
            Err(e) => phase.tally.fail(http_err(&target, e)),
        }
    }
    phase
}

/// Issues one GET and records it; `None` when the request itself failed.
fn timed_get(client: &mut Client, out: &mut ClientOut, id: u64, target: &str) -> Option<Response> {
    let t = Instant::now();
    match client.get(target) {
        Ok(r) => {
            out.reads.push(Read {
                id,
                ms: ms_since(t),
                source: Source::of(&r),
            });
            Some(r)
        }
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.fail(http_err(target, e));
            None
        }
    }
}

fn cold_loop(
    client: &mut Client,
    out: &mut ClientOut,
    plan: &ColdPlan,
    next: &AtomicU64,
    end: Instant,
) {
    while Instant::now() < end {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let target = query_path(&cold_query(plan.slot(i)));
        if let Some(r) = timed_get(client, out, i, &target) {
            let ok = r.status == 200 && Source::of(&r) == Source::Miss;
            if out.tally.check(ok, || {
                format!("{target}: status {} {:?}", r.status, r.x_cache)
            }) {
                out.cold_bodies.push((i, r.body));
            }
        }
    }
}

fn hot_loop(
    client: &mut Client,
    out: &mut ClientOut,
    plan: &HotPlan,
    warm: &[Vec<u8>],
    next: &AtomicU64,
    end: Instant,
) {
    while Instant::now() < end {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let key = plan.read(i);
        let target = query_path(&plan.keys[key]);
        if let Some(r) = timed_get(client, out, i, &target) {
            let ok = r.status == 200 && Source::of(&r) == Source::Hit && r.body == warm[key];
            out.tally
                .check(ok, || format!("{target}: not the warm-up body as a HIT"));
        }
    }
}

/// One churn-durable client. Rounds run in lockstep: client 0 writes (and
/// checkpoints every `CHECKPOINT_EVERY` rounds), then every client reads
/// its own key `READS_PER_KEY` times.
struct Churn<'a> {
    client: usize,
    keys: &'a [QueryRequest],
    barrier: &'a Barrier,
    stop: &'a AtomicBool,
    script: &'a Mutex<Option<ScriptGen>>,
    deadline: Instant,
}

/// `"generation":N` of an update or checkpoint acknowledgement.
pub fn ack_generation(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"generation\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

impl Churn<'_> {
    fn run(&self, client: &mut Client, out: &mut ClientOut) {
        for round in 0.. {
            if self.client == 0 {
                let go = Instant::now() < self.deadline;
                self.stop.store(!go, Ordering::SeqCst);
                if go {
                    self.write(client, out, round);
                }
            }
            self.barrier.wait();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            self.read(client, out, round);
            out.rounds = round + 1;
            self.barrier.wait();
        }
    }

    fn write(&self, client: &mut Client, out: &mut ClientOut, round: usize) {
        if round > 0 && round.is_multiple_of(CHECKPOINT_EVERY) {
            let target = format!("/admin/checkpoint?dataset={CHURN_DATASET}");
            let t = Instant::now();
            let r = client.post(&target, b"");
            out.checkpoints_ms.push(ms_since(t));
            let ok = matches!(&r, Ok(r) if r.status == 200
                && ack_generation(&r.body) == Some(round as u64));
            out.tally
                .check(ok, || format!("{target} at round {round}: {r:?}"));
        }
        let batch = self
            .script
            .lock()
            .expect("script lock")
            .as_mut()
            .expect("churn script")
            .next_batch();
        let target = format!("/update?dataset={CHURN_DATASET}");
        let t = Instant::now();
        let r = client.post(&target, batch.body.as_bytes());
        out.writes_ms.push(ms_since(t));
        // Every acknowledgement advances the generation by exactly one.
        let ok = matches!(&r, Ok(r) if r.status == 200
            && ack_generation(&r.body) == Some(round as u64 + 1));
        out.tally
            .check(ok, || format!("{target} round {round}: {r:?}"));
    }

    fn read(&self, client: &mut Client, out: &mut ClientOut, round: usize) {
        let slot = round * CLIENTS + self.client;
        let target = query_path(&self.keys[self.client]);
        let mut first: Option<Vec<u8>> = None;
        for rep in 0..READS_PER_KEY {
            let id = (slot * READS_PER_KEY + rep) as u64;
            let Some(r) = timed_get(client, out, id, &target) else {
                continue;
            };
            // The first read after a write computes; the rest repeat it.
            let want = if rep == 0 { Source::Miss } else { Source::Hit };
            let same = first.as_ref().is_none_or(|f| *f == r.body);
            let ok = r.status == 200 && Source::of(&r) == want && same;
            out.tally.check(ok, || {
                format!(
                    "{target} round {round} read {rep}: status {} {:?}",
                    r.status, r.x_cache
                )
            });
            if rep == 0 {
                out.churn_bodies.push((slot, r.body.clone()));
                first = Some(r.body);
            }
        }
    }
}

/// The served body `req` must have: the same computation, in-process.
pub fn expected_body(g: &LoadedGraph, req: &QueryRequest) -> Vec<u8> {
    let payload = run_query(g, req, &RunControl::unbounded()).expect("oracle query runs");
    render_query_response(req, &payload).into_bytes()
}

/// Replays every served answer that needs computing and counts each
/// mismatch as a failed operation.
pub fn verify(ctx: &Ctx, setup_warm: &[Vec<u8>], phase: &mut Phase) {
    match &ctx.inputs {
        Inputs::Cold(plan) => {
            // Every read of a query must return its first read's body, and
            // each first read must equal the replay.
            let mut first: BTreeMap<u64, &[u8]> = BTreeMap::new();
            let mut failures = Vec::new();
            for (i, body) in &phase.cold_bodies {
                let slot = plan.slot(*i);
                match first.get(&slot) {
                    Some(f) if *f != body.as_slice() => {
                        failures.push(format!(
                            "cold read {i}: body differs from query {slot}'s first read"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        first.insert(slot, body);
                    }
                }
            }
            let karate = builtin("karate");
            let firsts: Vec<(u64, &[u8])> = first.into_iter().collect();
            for j in mismatched(&firsts, |(slot, body)| {
                expected_body(&karate, &cold_query(*slot)) != *body
            }) {
                failures.push(format!(
                    "cold query {}: body differs from replay",
                    firsts[j].0
                ));
            }
            for f in failures {
                phase.tally.fail(f);
            }
        }
        Inputs::Hot(plan) => {
            let graphs = [builtin("karate"), builtin("intel-lab")];
            for (key, body) in plan.keys.iter().zip(setup_warm) {
                let g = graphs
                    .iter()
                    .find(|g| g.name == key.dataset)
                    .expect("hot dataset");
                let ok = expected_body(g, key) == *body;
                phase.tally.check(ok, || {
                    format!("warm-up {}: body differs from replay", query_path(key))
                });
            }
        }
        Inputs::Churn { keys, base } => verify_churn(ctx.seed, keys, base, phase),
    }
}

/// Indices of `items` for which `mismatch` holds, checked on `CLIENTS`
/// threads.
fn mismatched<T: Sync>(items: &[T], mismatch: impl Fn(&T) -> bool + Sync) -> Vec<usize> {
    let next = AtomicU64::new(0);
    let bad = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(item) = items.get(i) else { return };
                if mismatch(item) {
                    bad.lock().expect("oracle lock").push(i);
                }
            });
        }
    });
    bad.into_inner().expect("oracle lock")
}

fn verify_churn(seed: u64, keys: &[QueryRequest], base: &Arc<UncertainGraph>, phase: &mut Phase) {
    let registry = GraphRegistry::with_builtins();
    let mut script = ScriptGen::new(seed, base);
    let mut delta = DeltaGraph::new(Arc::clone(base));
    for round in 0..phase.rounds {
        let batch = script.next_batch();
        registry
            .apply_update(CHURN_DATASET, batch.body.as_bytes())
            .expect("replayed batch applies");
        delta.apply(&batch.batch).expect("replayed batch applies");
        let g = registry.get(CHURN_DATASET).expect("churn dataset");
        let served = &phase.churn_bodies[round];
        let pairs: Vec<(usize, &QueryRequest)> = keys.iter().enumerate().collect();
        for j in mismatched(&pairs, |(j, key)| expected_body(&g, key) != served[*j]) {
            phase.tally.fail(format!(
                "round {round} key {j}: MISS body differs from replay"
            ));
        }
    }
    // The final state must match a DeltaGraph replay of the script.
    let replayed = render_stats(CHURN_DATASET, delta.snapshot().graph());
    let ok = replayed.as_bytes() == phase.final_stats.as_slice();
    phase.tally.check(ok, || {
        "final dataset state differs from the script replay".to_string()
    });
}
