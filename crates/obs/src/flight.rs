//! Per-request flight recorder: trace ids, in-flight introspection, and
//! retained rings of completed and slow requests.
//!
//! The [`FlightRecorder`] is the request-scoped complement to the
//! fleet-level aggregates in [`crate::hist`]/[`crate::trace`]: every
//! request is minted a process-unique trace id ([`TraceIdGen`]), registered
//! while in flight (so a live `/debug/requests` endpoint can show its age
//! and the stage it is executing right now), and on completion folded into
//! a bounded ring of recent [`TraceRecord`]s. Requests whose wall time
//! crosses a configurable threshold are additionally promoted into a
//! separate slow-query ring that survives much longer than the completed
//! ring under load, so a latency spike stays debuggable after the fact.
//!
//! Concurrency and cost: the in-flight table is split across [`SHARDS`]
//! mutexes, each over a short list of reusable slots. Each thread registers
//! its requests in a home shard of its own (threads take shards
//! round-robin), so a request takes its worker's own shard lock twice
//! (registration and completion) and hashes nothing. The completed and
//! slow rings are each a single mutex around a fixed set of entries,
//! touched once per completion. Registration reuses the start instant the
//! caller already read, and both the in-flight slots and the ring entries
//! are overwritten in place, so in steady state a request costs no
//! allocation, no free and no clock read here.
//!
//! Everything a request writes here — shard locks, slots, ring entries and
//! the text they hold — sits in whole cache lines of its own. Slots and
//! entries are written by whichever worker serves the request, and a
//! 64-byte string buffer shared with one worker's hot per-request data
//! turned every such write into cache-line ping-pong with that worker: on a
//! 2-vCPU host that cost a quarter of a keep-alive cache HIT's throughput.
//!
//! Crucially, in-flight requests live in the shard slots — not the rings —
//! so ring eviction can never drop a request that has not finished (see
//! `tests/flight_prop.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::{Recorder, Stage, StageTotals};

/// Number of in-flight table shards.
pub const SHARDS: usize = 16;

/// Formats a trace id the way every surface of the workspace emits it:
/// 16 lowercase hex digits (`X-Trace-Id` header, access log, `/debug/*`
/// JSON, and Prometheus exemplar labels).
///
/// ```
/// assert_eq!(mpds_obs::flight::format_trace_id(0x2a), "000000000000002a");
/// ```
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a trace id previously rendered by [`format_trace_id`]: exactly 16
/// lowercase hex digits.
///
/// ```
/// use mpds_obs::flight::{format_trace_id, parse_trace_id};
/// assert_eq!(parse_trace_id(&format_trace_id(u64::MAX)), Some(u64::MAX));
/// assert_eq!(parse_trace_id("2a"), None);
/// assert_eq!(parse_trace_id("00000000000000ZZ"), None);
/// ```
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mints process-unique, never-zero trace ids: a seeded counter fed through
/// a splitmix64 mix, so consecutive requests get well-scattered ids (good
/// shard distribution, no cross-restart collisions in practice) while the
/// generator itself is one relaxed `fetch_add`.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    counter: AtomicU64,
}

impl TraceIdGen {
    /// Creates a generator from an explicit seed (tests pass a constant for
    /// reproducible ids).
    pub fn new(seed: u64) -> Self {
        TraceIdGen {
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Creates a generator seeded from the wall clock, so two processes
    /// booted at different instants mint disjoint id streams.
    pub fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        TraceIdGen::new(splitmix64(nanos))
    }

    /// Returns the next trace id (never zero — zero is the "no trace"
    /// sentinel in [`crate::hist::BucketExemplars`]).
    pub fn mint(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// Whether a [`TraceRecord`] describes a request that is still executing or
/// one that has completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceState {
    /// The request is registered but [`FlightRecorder::finish`] has not run.
    InFlight,
    /// The request completed and was retained in a ring.
    Completed,
}

impl TraceState {
    /// Stable snake_case name used in `/debug/*` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceState::InFlight => "in_flight",
            TraceState::Completed => "completed",
        }
    }
}

/// One request's flight record: identity, where it is (or ended up), and
/// its per-stage time breakdown.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// The request's process-unique trace id.
    pub trace_id: u64,
    /// Bounded-cardinality endpoint label (e.g. `query`, `debug`).
    pub endpoint: &'static str,
    /// HTTP method, or empty when the request line never parsed.
    pub method: String,
    /// The raw request target (path + query string).
    pub target: String,
    /// In flight or completed.
    pub state: TraceState,
    /// Response status code; `0` while the request is in flight.
    pub status: u16,
    /// Wall microseconds: total latency once completed, age so far while in
    /// flight.
    pub wall_us: u64,
    /// The stage the request is executing right now (in-flight only, and
    /// only when its recorder is enabled).
    pub current_stage: Option<Stage>,
    /// Whether the record was promoted into the slow-query ring.
    pub slow: bool,
    /// Per-stage wall time and invocation counts recorded so far.
    pub totals: StageTotals,
    /// Helper threads lent to the request's estimator run
    /// ([`Recorder::set_helpers`]).
    pub helpers: u64,
}

/// The calling thread's home in-flight shard. Threads take shards
/// round-robin on first use, so a worker registers and completes its
/// requests in slots no other worker writes.
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    HOME.with(|home| *home)
}

/// Aligns a value to a cache line, so that nothing else shares its lines.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded<T>(T);

/// One cache line of text.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Line([u8; 64]);

/// Text kept in whole cache lines of its own, rewritten in place: an
/// ordinary `String` buffer shares its lines with neighbouring allocations.
#[derive(Debug, Default)]
struct LineText {
    lines: Vec<Line>,
    len: usize,
}

impl LineText {
    fn set(&mut self, text: &str) {
        let chunks = text.as_bytes().chunks(64);
        if self.lines.len() < chunks.len() {
            self.lines.resize(chunks.len(), Line([0; 64]));
        }
        for (line, chunk) in self.lines.iter_mut().zip(chunks) {
            line.0[..chunk.len()].copy_from_slice(chunk);
        }
        self.len = text.len();
    }

    fn copy_from(&mut self, other: &LineText) {
        let used = other.len.div_ceil(64);
        if self.lines.len() < used {
            self.lines.resize(used, Line([0; 64]));
        }
        self.lines[..used].copy_from_slice(&other.lines[..used]);
        self.len = other.len;
    }

    fn to_text(&self) -> String {
        let bytes = self.lines.iter().flat_map(|l| l.0).take(self.len).collect();
        String::from_utf8(bytes).expect("LineText holds what a &str set")
    }
}

/// One in-flight table entry. A slot is free while `recorder` is `None`;
/// freed slots keep their text buffers for the next registration.
#[derive(Debug)]
#[repr(align(64))]
struct Slot {
    trace_id: u64,
    endpoint: &'static str,
    method: LineText,
    target: LineText,
    started: Instant,
    recorder: Option<Arc<Recorder>>,
}

impl Slot {
    fn holds(&self, trace_id: u64) -> bool {
        self.trace_id == trace_id && self.recorder.is_some()
    }

    /// The in-flight view of this slot, or `None` when it is free.
    fn in_flight(&self) -> Option<TraceRecord> {
        let recorder = self.recorder.as_deref()?;
        Some(TraceRecord {
            trace_id: self.trace_id,
            endpoint: self.endpoint,
            method: self.method.to_text(),
            target: self.target.to_text(),
            state: TraceState::InFlight,
            status: 0,
            wall_us: crate::micros_since(self.started),
            current_stage: recorder.current_stage(),
            slow: false,
            totals: recorder.totals(),
            helpers: recorder.helpers(),
        })
    }
}

/// One completed request retained in a ring.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Entry {
    trace_id: u64,
    endpoint: &'static str,
    method: LineText,
    target: LineText,
    status: u16,
    wall_us: u64,
    slow: bool,
    totals: StageTotals,
    helpers: u64,
}

impl Entry {
    /// Overwrites this entry with `slot`'s request, completed.
    fn fill(&mut self, slot: &Slot, status: u16, wall_us: u64, slow: bool, recorder: &Recorder) {
        self.trace_id = slot.trace_id;
        self.endpoint = slot.endpoint;
        self.method.copy_from(&slot.method);
        self.target.copy_from(&slot.target);
        self.status = status;
        self.wall_us = wall_us;
        self.slow = slow;
        self.totals = recorder.totals();
        self.helpers = recorder.helpers();
    }

    fn record(&self) -> TraceRecord {
        TraceRecord {
            trace_id: self.trace_id,
            endpoint: self.endpoint,
            method: self.method.to_text(),
            target: self.target.to_text(),
            state: TraceState::Completed,
            status: self.status,
            wall_us: self.wall_us,
            current_stage: None,
            slow: self.slow,
            totals: self.totals,
            helpers: self.helpers,
        }
    }
}

/// A bounded ring of completed requests. Once full, each push overwrites
/// the oldest entry in place.
#[derive(Debug)]
struct Ring {
    cap: usize,
    entries: Vec<Entry>,
    /// Where the next push lands: the oldest entry once the ring is full.
    next: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            entries: Vec::with_capacity(cap.min(1024)),
            next: 0,
        }
    }

    /// The entry the next completion overwrites, or `None` for a
    /// zero-capacity ring.
    fn push_slot(&mut self) -> Option<&mut Entry> {
        if self.cap == 0 {
            return None;
        }
        let at = self.next;
        self.next = (at + 1) % self.cap;
        if at == self.entries.len() {
            self.entries.push(Entry::default());
        }
        Some(&mut self.entries[at])
    }

    /// The retained entries, newest first.
    fn newest_first(&self) -> impl Iterator<Item = &Entry> {
        let n = self.entries.len();
        (1..=n).map(move |k| &self.entries[(self.next + n - k) % n])
    }

    fn records(&self) -> Vec<TraceRecord> {
        self.newest_first().map(Entry::record).collect()
    }

    fn find(&self, trace_id: u64) -> Option<TraceRecord> {
        self.newest_first()
            .find(|e| e.trace_id == trace_id)
            .map(Entry::record)
    }
}

/// The per-request flight recorder: an in-flight table plus bounded rings
/// of completed and slow requests.
///
/// ```
/// use std::sync::Arc;
/// use mpds_obs::flight::{FlightRecorder, TraceState};
/// use mpds_obs::Recorder;
///
/// let f = FlightRecorder::new(true, 8, 8, 1_000_000);
/// let rec = Arc::new(Recorder::new(true));
/// let started = std::time::Instant::now();
/// f.begin(42, "query", "GET", "/query?dataset=karate", started, Arc::clone(&rec));
/// assert_eq!(f.in_flight().len(), 1);
/// f.finish(42, 200, 123, true);
/// let trace = f.lookup(42).unwrap();
/// assert_eq!(trace.state, TraceState::Completed);
/// assert_eq!(trace.status, 200);
/// assert!(!trace.slow); // 123 us is under the 1 s threshold
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    slow_threshold_us: u64,
    shards: Vec<Padded<Mutex<Vec<Slot>>>>,
    completed: Padded<Mutex<Ring>>,
    slow: Padded<Mutex<Ring>>,
    slow_promoted: AtomicU64,
}

impl FlightRecorder {
    /// Creates a flight recorder.
    ///
    /// `enabled` gates whether the serving layer records at all (a disabled
    /// recorder keeps the `/debug/*` endpoints wired but empty);
    /// `capacity`/`slow_capacity` bound the completed and slow rings;
    /// `slow_threshold_us` is the promotion threshold for the slow ring.
    pub fn new(
        enabled: bool,
        capacity: usize,
        slow_capacity: usize,
        slow_threshold_us: u64,
    ) -> Self {
        FlightRecorder {
            enabled,
            slow_threshold_us,
            shards: (0..SHARDS).map(|_| Padded::default()).collect(),
            completed: Padded(Mutex::new(Ring::new(capacity))),
            slow: Padded(Mutex::new(Ring::new(slow_capacity))),
            slow_promoted: AtomicU64::new(0),
        }
    }

    /// Whether the serving layer should register requests here (and hand
    /// them enabled [`Recorder`]s).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total number of requests ever promoted into the slow ring (a
    /// monotone counter; the ring itself is bounded).
    pub fn slow_promoted(&self) -> u64 {
        self.slow_promoted.load(Ordering::Relaxed)
    }

    /// The shards in search order for the calling thread: its home shard
    /// first, where it registers its own requests.
    fn shards_from_home(&self) -> impl Iterator<Item = &Mutex<Vec<Slot>>> {
        let home = home_shard();
        (0..SHARDS).map(move |k| &self.shards[(home + k) % SHARDS].0)
    }

    /// Registers an in-flight request that started at `started` (the
    /// caller's own clock read, so registering reads no clock). No-op when
    /// the recorder is disabled. `recorder` is the request's own stage
    /// recorder; its live state backs the `current_stage`/partial-totals view
    /// in [`FlightRecorder::in_flight`].
    pub fn begin(
        &self,
        trace_id: u64,
        endpoint: &'static str,
        method: &str,
        target: &str,
        started: Instant,
        recorder: Arc<Recorder>,
    ) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[home_shard()].0.lock().unwrap();
        let at = match shard.iter().position(|s| s.recorder.is_none()) {
            Some(at) => at,
            None => {
                shard.push(Slot {
                    trace_id,
                    endpoint,
                    method: LineText::default(),
                    target: LineText::default(),
                    started,
                    recorder: None,
                });
                shard.len() - 1
            }
        };
        let slot = &mut shard[at];
        slot.trace_id = trace_id;
        slot.endpoint = endpoint;
        slot.method.set(method);
        slot.target.set(target);
        slot.started = started;
        slot.recorder = Some(recorder);
    }

    /// Completes a request: frees its in-flight slot and retains it in the
    /// completed ring (and the slow ring when `slow_eligible` and `wall_us`
    /// crosses the threshold — self-observation traffic like `/debug/*` and
    /// `/metrics` passes `slow_eligible = false`).
    ///
    /// Returns whether the request was promoted as slow. Unknown trace ids
    /// (never registered, e.g. while disabled) are a no-op.
    pub fn finish(&self, trace_id: u64, status: u16, wall_us: u64, slow_eligible: bool) -> bool {
        if !self.enabled {
            return false;
        }
        for shard in self.shards_from_home() {
            let mut shard = shard.lock().unwrap();
            if let Some(slot) = shard.iter_mut().find(|s| s.holds(trace_id)) {
                return self.complete(slot, status, wall_us, slow_eligible);
            }
        }
        false
    }

    /// Frees `slot` and retains its request in the ring(s).
    fn complete(&self, slot: &mut Slot, status: u16, wall_us: u64, slow_eligible: bool) -> bool {
        let recorder = slot
            .recorder
            .take()
            .expect("an occupied slot has a recorder");
        let slow = slow_eligible && wall_us >= self.slow_threshold_us;
        if slow {
            self.slow_promoted.fetch_add(1, Ordering::Relaxed);
            if let Some(e) = self.slow.0.lock().unwrap().push_slot() {
                e.fill(slot, status, wall_us, slow, &recorder);
            }
        }
        if let Some(e) = self.completed.0.lock().unwrap().push_slot() {
            e.fill(slot, status, wall_us, slow, &recorder);
        }
        slow
    }

    /// Every currently in-flight request, sorted by trace id (deterministic
    /// output for `/debug/requests`), each with its age and current stage.
    pub fn in_flight(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.0.lock().unwrap();
            out.extend(shard.iter().filter_map(Slot::in_flight));
        }
        out.sort_by_key(|r| r.trace_id);
        out
    }

    /// The retained completed requests, newest first.
    pub fn completed(&self) -> Vec<TraceRecord> {
        self.completed.0.lock().unwrap().records()
    }

    /// The retained slow requests, newest first.
    pub fn slow(&self) -> Vec<TraceRecord> {
        self.slow.0.lock().unwrap().records()
    }

    /// Looks a trace id up across the in-flight table, then the slow ring,
    /// then the completed ring.
    pub fn lookup(&self, trace_id: u64) -> Option<TraceRecord> {
        for shard in self.shards_from_home() {
            let shard = shard.lock().unwrap();
            if let Some(slot) = shard.iter().find(|s| s.holds(trace_id)) {
                return slot.in_flight();
            }
        }
        if let Some(r) = self.slow.0.lock().unwrap().find(trace_id) {
            return Some(r);
        }
        self.completed.0.lock().unwrap().find(trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Arc<Recorder> {
        Arc::new(Recorder::new(true))
    }

    #[test]
    fn trace_ids_are_unique_nonzero_and_round_trip() {
        let gen = TraceIdGen::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = gen.mint();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
            assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        }
    }

    #[test]
    fn completed_ring_evicts_oldest_only() {
        let f = FlightRecorder::new(true, 2, 2, u64::MAX);
        for id in 1..=3u64 {
            f.begin(id, "query", "GET", "/query", Instant::now(), recorder());
            f.finish(id, 200, id * 10, true);
        }
        let ids: Vec<u64> = f.completed().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, [3, 2]); // newest first; id 1 evicted
        assert!(f.lookup(1).is_none());
        assert_eq!(f.lookup(3).unwrap().wall_us, 30);
    }

    #[test]
    fn slow_ring_promotes_past_threshold_and_respects_eligibility() {
        let f = FlightRecorder::new(true, 4, 4, 1_000);
        f.begin(1, "query", "GET", "/query", Instant::now(), recorder());
        assert!(!f.finish(1, 200, 999, true)); // under threshold
        f.begin(2, "query", "GET", "/query", Instant::now(), recorder());
        assert!(f.finish(2, 200, 1_000, true)); // at threshold
        f.begin(3, "metrics", "GET", "/metrics", Instant::now(), recorder());
        assert!(!f.finish(3, 200, 50_000, false)); // self-traffic excluded
        let slow = f.slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, 2);
        assert!(slow[0].slow);
        assert_eq!(f.slow_promoted(), 1);
        // The excluded request still lands in the completed ring.
        assert_eq!(f.lookup(3).unwrap().status, 200);
    }

    #[test]
    fn slow_records_outlive_completed_ring_churn() {
        let f = FlightRecorder::new(true, 2, 4, 1_000);
        f.begin(
            99,
            "query",
            "GET",
            "/query?slow=1",
            Instant::now(),
            recorder(),
        );
        f.finish(99, 200, 5_000, true);
        for id in 100..110u64 {
            f.begin(id, "query", "GET", "/query", Instant::now(), recorder());
            f.finish(id, 200, 10, true);
        }
        // Churned out of the completed ring, still resolvable via slow ring.
        let r = f.lookup(99).unwrap();
        assert!(r.slow);
        assert_eq!(r.wall_us, 5_000);
    }

    #[test]
    fn in_flight_view_reports_age_stage_and_partial_totals() {
        let f = FlightRecorder::new(true, 4, 4, u64::MAX);
        let rec = recorder();
        f.begin(
            5,
            "update",
            "POST",
            "/update",
            Instant::now(),
            Arc::clone(&rec),
        );
        rec.record_ns(Stage::WalAppend, 1_500);
        let _live = rec.span(Stage::WalFsync);
        let inflight = f.in_flight();
        assert_eq!(inflight.len(), 1);
        let r = &inflight[0];
        assert_eq!(r.state, TraceState::InFlight);
        assert_eq!(r.status, 0);
        assert_eq!(r.current_stage, Some(Stage::WalFsync));
        assert_eq!(r.totals.count(Stage::WalAppend), 1);
        // Same view through lookup.
        let via_lookup = f.lookup(5).unwrap();
        assert_eq!(via_lookup.state, TraceState::InFlight);
    }

    #[test]
    fn ring_entries_are_rewritten_in_place_newest_first() {
        let f = FlightRecorder::new(true, 3, 1, u64::MAX);
        // Targets shorter than, exactly one of, and longer than a cache
        // line, with multi-byte characters straddling a line boundary.
        let target = |id: u64| format!("/query?k={}", "é".repeat((id as usize * 23) % 90));
        for id in 1..=7u64 {
            f.begin(id, "query", "GET", &target(id), Instant::now(), recorder());
            f.finish(id, 200, id, true);
        }
        let kept: Vec<(u64, String)> = f
            .completed()
            .into_iter()
            .map(|r| (r.trace_id, r.target))
            .collect();
        assert_eq!(
            kept,
            [(7, target(7)), (6, target(6)), (5, target(5))],
            "newest first, oldest evicted"
        );
        assert!(f.lookup(4).is_none());
        assert_eq!(f.lookup(6).unwrap().target, target(6));
        // A freed in-flight slot serves the next registration.
        f.begin(8, "debug", "POST", "/x", Instant::now(), recorder());
        let open = f.in_flight();
        assert_eq!(open.len(), 1);
        assert_eq!(
            (open[0].endpoint, open[0].method.as_str()),
            ("debug", "POST")
        );
        assert_eq!(open[0].target, "/x");
    }

    #[test]
    fn finish_on_another_thread_completes_the_request() {
        let f = FlightRecorder::new(true, 4, 4, u64::MAX);
        f.begin(9, "query", "GET", "/query", Instant::now(), recorder());
        std::thread::scope(|s| {
            s.spawn(|| assert!(!f.finish(9, 204, 5, true)));
        });
        assert!(f.in_flight().is_empty());
        assert_eq!(f.lookup(9).unwrap().status, 204);
    }

    #[test]
    fn disabled_recorder_registers_nothing() {
        let f = FlightRecorder::new(false, 4, 4, 0);
        f.begin(1, "query", "GET", "/query", Instant::now(), recorder());
        assert!(f.in_flight().is_empty());
        assert!(!f.finish(1, 200, 10_000, true));
        assert!(f.completed().is_empty());
        assert!(f.slow().is_empty());
        assert!(f.lookup(1).is_none());
    }
}
