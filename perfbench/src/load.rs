//! The load generator: paper-style closed-loop clients over
//! `esr_net::TcpConnection`, one connection per thread. Each client
//! waits for every reply before sending the next request, and retries
//! an aborted or busy-rejected transaction until it commits, as the
//! paper's clients do.

use crate::stats::Interval;
use esr_core::bounds::EpsilonPreset;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_net::{busy_retry_after_micros, is_busy_error, NetClientConfig, TcpConnection};
use esr_obs::HistogramSnapshot;
use esr_server::OpReply;
use esr_tso::Operation;
use esr_txn::{Session, SessionError};
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Initial value of every object (the daemon's `--value` default).
pub const VALUE: i64 = 1000;
/// The paper's hot set: 95% of picks land on 20 objects.
const HOT_SET: u32 = 20;
const HOT_SHARE: f64 = 0.95;
/// A query ET sums this many reads.
const QUERY_READS: usize = 20;
/// An update ET reads this many objects and then read-modify-writes
/// this many more.
const UPDATE_READS: usize = 4;
const UPDATE_RMWS: usize = 2;
/// Largest write delta; small beside the Medium TEL of 5,000.
const MAX_DELTA: i64 = 50;
/// Largest batch the server accepts, used by the full-table reads.
const READ_ALL_CHUNK: u32 = 1000;
/// A logical transaction gives up after this many attempts that
/// failed with an error (aborts and busy rejects retry without limit).
const MAX_ERRORS: u32 = 100;
/// Null-RPC probes in a traced slice run this often per client, each
/// a burst of this many time exchanges.
const PROBE_EVERY: Duration = Duration::from_millis(250);
const PROBE_SAMPLES: u32 = 64;
/// The window is cut into slices this long; end-to-end figures are
/// medians over slices, so a burst of outside load moves one slice,
/// not the run.
pub const SLICE: Duration = Duration::from_millis(500);

/// A small deterministic PRNG (SplitMix64): the workload is a pure
/// function of the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A non-zero write delta in `−MAX_DELTA..=MAX_DELTA`.
    fn delta(&mut self) -> i64 {
        let d = self.below(2 * MAX_DELTA as u32) as i64 - MAX_DELTA;
        if d >= 0 {
            d + 1
        } else {
            d
        }
    }
}

/// What one client thread sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Queries with this probability, updates otherwise.
    Mixed { query_share: f64 },
    /// Updates only, each also bumping the staleness marker.
    MarkerUpdater,
    /// Queries only, each also reading the staleness marker.
    MarkerReader,
}

/// Everything a client needs to know about its workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub addr: SocketAddr,
    pub role: Role,
    /// Objects the client picks from (`0..objects`, marker excluded).
    pub objects: u32,
    /// The staleness marker object, when the workload has one.
    pub marker: Option<u32>,
    /// Pick 95% of keys from the 20-object hot set.
    pub hot: bool,
    /// One `Batch` frame per read set and per write set instead of one
    /// frame per operation.
    pub batched: bool,
    pub seed: u64,
    /// Record client spans in the middle half of the window.
    pub trace: bool,
}

/// A client-side RPC, as a span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    Begin,
    Op,
    Batch,
    Commit,
    Abort,
}

impl RpcKind {
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Begin => "begin",
            RpcKind::Op => "op",
            RpcKind::Batch => "batch",
            RpcKind::Commit => "commit",
            RpcKind::Abort => "abort",
        }
    }
}

/// One client call into `esr-net`, keyed by the client's transaction
/// attempt id. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub txn: u64,
    pub kind: RpcKind,
    /// Sent to a replica rather than the primary.
    pub replica: bool,
    pub at: Interval,
}

/// What one client did inside the measured window.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of committed logical transactions, first begin to
    /// commit reply, microseconds, per [`SLICE`] of the window in which
    /// they committed.
    pub query_us: Vec<Vec<u64>>,
    pub update_us: Vec<Vec<u64>>,
    /// Logical transactions started, and those abandoned on errors.
    pub logical: u64,
    pub logical_failed: u64,
    /// Attempts (begins) and their outcomes.
    pub attempts: u64,
    pub commits_query: u64,
    pub commits_update: u64,
    pub aborts: u64,
    pub busy: u64,
    pub errors: u64,
    /// Operations the server executed, and those inside attempts that
    /// did not commit.
    pub ops: u64,
    pub ops_wasted: u64,
    /// Commits of transactions started in traced / untraced slices.
    pub traced_commits: u64,
    pub untraced_commits: u64,
    /// Every span of the traced slices.
    pub spans: Vec<Span>,
    /// The parent span of every traced attempt, by attempt id: begin
    /// to the end of its last call.
    pub txn_spans: Vec<(u64, Interval)>,
    /// Round trips of null RPCs (time exchanges) made under load.
    pub probe: HistogramSnapshot,
    /// Age of the newest acknowledged update a replica read saw, µs.
    pub staleness_us: Vec<u64>,
    /// The first error text, for the report.
    pub first_error: Option<String>,
}

/// State shared by the clients of one run.
pub struct Shared {
    /// Time zero for spans.
    pub epoch: Instant,
    /// Ack time (ns since `epoch`) of the k-th committed marker bump,
    /// at index k−1.
    pub marker_acks: Mutex<Vec<u64>>,
}

/// One round of the window: fresh client threads and connections.
pub struct Round {
    /// Load before this round's window (the first round only).
    pub warmup: Duration,
    pub window: Duration,
    /// Global index of this round's first slice.
    pub first_slice: usize,
    /// Clients and the coordinator meet here before and after the
    /// coordinator marks the window's start.
    pub barrier: Barrier,
    /// Set by the coordinator between the two barrier meetings.
    pub window_start: OnceLock<Instant>,
}

/// The result of one client thread.
pub struct Outcome {
    pub tally: Tally,
    /// Committed delta per object since boot (warm-up included).
    pub deltas: Vec<i64>,
    /// The client read from a replica rather than the primary.
    pub to_replica: bool,
}

/// How one attempt ended, short of committing.
enum Failure {
    Aborted,
    Busy(u64),
    Error(String),
}

fn classify(e: SessionError) -> Failure {
    match e {
        SessionError::Aborted(_) | SessionError::WouldBlock => Failure::Aborted,
        SessionError::Backend(m) if is_busy_error(&m) => {
            Failure::Busy(busy_retry_after_micros(&m).unwrap_or(1000))
        }
        other => Failure::Error(other.to_string()),
    }
}

pub fn client_config(seed: u64) -> NetClientConfig {
    NetClientConfig {
        // Count every busy reject and transport failure ourselves
        // instead of letting the client resend behind our back.
        call_attempts: 1,
        // A reply later than 10 s is an error, not a slow result.
        reply_attempts: 20,
        retry_seed: seed,
        ..NetClientConfig::default()
    }
}

struct Client<'a> {
    plan: &'a Plan,
    shared: &'a Shared,
    conn: TcpConnection,
    rng: Rng,
    deltas: Vec<i64>,
    tally: Tally,
    /// Count into `tally` (false during warm-up).
    recording: bool,
    /// Spans of the current attempt are being recorded.
    tracing: bool,
    /// Client-local attempt id, unique across clients.
    attempt_id: u64,
    /// Successful operations of the current attempt.
    attempt_ops: u64,
    next_probe: Instant,
    window_start: Instant,
    first_slice: usize,
}

impl<'a> Client<'a> {
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn to_replica(&self) -> bool {
        self.plan.role == Role::MarkerReader
    }

    /// Run one call into the connection, recording its span when
    /// tracing.
    fn call<T>(
        &mut self,
        kind: RpcKind,
        f: impl FnOnce(&mut TcpConnection) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        if !self.tracing {
            return f(&mut self.conn);
        }
        let start = self.now_ns();
        let r = f(&mut self.conn);
        let end = self.now_ns();
        self.tally.spans.push(Span {
            txn: self.attempt_id,
            kind,
            replica: self.to_replica(),
            at: Interval { start, end },
        });
        r
    }

    /// Distinct keys: 95% from the hot set when `hot`, else uniform.
    fn pick(&mut self, n: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = Vec::with_capacity(n);
        while keys.len() < n {
            let k = if self.plan.hot && self.rng.chance(HOT_SHARE) {
                self.rng.below(HOT_SET)
            } else {
                self.rng.below(self.plan.objects)
            };
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// Read `keys` inside the current attempt.
    fn read(&mut self, keys: &[u32]) -> Result<Vec<i64>, Failure> {
        if !self.plan.batched {
            let mut values = Vec::with_capacity(keys.len());
            for &k in keys {
                let v = self
                    .call(RpcKind::Op, |c| c.read(ObjectId(k)))
                    .map_err(classify)?;
                self.attempt_ops += 1;
                values.push(v);
            }
            return Ok(values);
        }
        let ops = keys.iter().map(|&k| Operation::Read(ObjectId(k))).collect();
        let replies = self
            .call(RpcKind::Batch, |c| c.batch(ops))
            .map_err(classify)?;
        let mut values = Vec::with_capacity(keys.len());
        for r in replies {
            match r {
                OpReply::Value(v) => {
                    self.attempt_ops += 1;
                    values.push(v);
                }
                other => return Err(op_failure(other)),
            }
        }
        Ok(values)
    }

    /// Write `(key, value)` pairs inside the current attempt.
    fn write(&mut self, writes: &[(u32, i64)]) -> Result<(), Failure> {
        if !self.plan.batched {
            for &(k, v) in writes {
                self.call(RpcKind::Op, |c| c.write(ObjectId(k), v))
                    .map_err(classify)?;
                self.attempt_ops += 1;
            }
            return Ok(());
        }
        let ops = writes
            .iter()
            .map(|&(k, v)| Operation::Write(ObjectId(k), v))
            .collect();
        for r in self
            .call(RpcKind::Batch, |c| c.batch(ops))
            .map_err(classify)?
        {
            match r {
                OpReply::Written => self.attempt_ops += 1,
                other => return Err(op_failure(other)),
            }
        }
        Ok(())
    }

    /// One attempt of a query ET over `keys`; the marker, if any, is
    /// read last and kept out of the sum.
    fn query(&mut self, keys: &[u32]) -> Result<(), Failure> {
        let bounds = TxnBounds::preset(EpsilonPreset::Medium, TxnKind::Query);
        self.call(RpcKind::Begin, |c| c.begin(TxnKind::Query, bounds))
            .map_err(classify)?;
        let mut read_set = keys.to_vec();
        read_set.extend(self.plan.marker);
        let values = self.read(&read_set)?;
        let read_at = self.now_ns();
        let sum: i64 = values[..keys.len()].iter().sum();
        std::hint::black_box(sum);
        self.call(RpcKind::Commit, |c| c.commit())
            .map_err(classify)?;
        if self.plan.marker.is_some() && self.recording {
            let seen = (values[keys.len()] - VALUE) as usize;
            if seen > 0 {
                let acks = self
                    .shared
                    .marker_acks
                    .lock()
                    .expect("marker log poisoned by a panicked client");
                // Visible before its ack reached the writer: age 0.
                let age = acks.get(seen - 1).map_or(0, |&t| read_at.saturating_sub(t));
                drop(acks);
                self.tally.staleness_us.push(age / 1000);
            }
        }
        Ok(())
    }

    /// One attempt of an update ET: read four objects, then
    /// read-modify-write two more (and bump the marker, if any).
    fn update(&mut self, keys: &[u32], deltas: &[i64]) -> Result<(), Failure> {
        let bounds = TxnBounds::preset(EpsilonPreset::Medium, TxnKind::Update);
        self.call(RpcKind::Begin, |c| c.begin(TxnKind::Update, bounds))
            .map_err(classify)?;
        let mut read_set = keys.to_vec();
        read_set.extend(self.plan.marker);
        let values = self.read(&read_set)?;
        let mut writes: Vec<(u32, i64)> = (UPDATE_READS..keys.len())
            .map(|i| (keys[i], values[i] + deltas[i - UPDATE_READS]))
            .collect();
        if let Some(m) = self.plan.marker {
            writes.push((m, values[keys.len()] + 1));
        }
        self.write(&writes)?;
        self.call(RpcKind::Commit, |c| c.commit())
            .map_err(classify)?;
        let acked = self.now_ns();
        for (i, &d) in deltas.iter().enumerate() {
            self.deltas[keys[UPDATE_READS + i] as usize] += d;
        }
        if let Some(m) = self.plan.marker {
            self.deltas[m as usize] += 1;
            self.shared
                .marker_acks
                .lock()
                .expect("marker log poisoned by a panicked client")
                .push(acked);
        }
        Ok(())
    }

    /// One logical transaction, retried until it commits.
    fn transaction(&mut self, traced_slice: bool) {
        let is_query = match self.plan.role {
            Role::Mixed { query_share } => self.rng.chance(query_share),
            Role::MarkerUpdater => false,
            Role::MarkerReader => true,
        };
        let keys = if is_query {
            self.pick(QUERY_READS)
        } else {
            self.pick(UPDATE_READS + UPDATE_RMWS)
        };
        let deltas: Vec<i64> = (0..UPDATE_RMWS).map(|_| self.rng.delta()).collect();
        let t0 = Instant::now();
        self.tracing = traced_slice;
        if self.recording {
            self.tally.logical += 1;
        }
        let mut errors = 0u32;
        loop {
            self.attempt_id += 1;
            self.attempt_ops = 0;
            let start = self.now_ns();
            let r = if is_query {
                self.query(&keys)
            } else {
                self.update(&keys, &deltas)
            };
            if let Err(Failure::Busy(_) | Failure::Error(_)) = &r {
                if self.conn.in_txn() {
                    let _ = self.call(RpcKind::Abort, |c| c.abort());
                }
            }
            if self.tracing {
                let at = Interval {
                    start,
                    end: self.now_ns(),
                };
                self.tally.txn_spans.push((self.attempt_id, at));
            }
            if self.recording {
                self.tally.attempts += 1;
                self.tally.ops += self.attempt_ops;
                if r.is_err() {
                    self.tally.ops_wasted += self.attempt_ops;
                }
            }
            match r {
                Ok(()) => {
                    if self.recording {
                        let us = t0.elapsed().as_micros() as u64;
                        let slice = self.first_slice
                            + (self.window_start.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
                        let samples = if is_query {
                            self.tally.commits_query += 1;
                            &mut self.tally.query_us
                        } else {
                            self.tally.commits_update += 1;
                            &mut self.tally.update_us
                        };
                        if samples.len() <= slice {
                            samples.resize(slice + 1, Vec::new());
                        }
                        samples[slice].push(us);
                        if traced_slice {
                            self.tally.traced_commits += 1;
                        } else {
                            self.tally.untraced_commits += 1;
                        }
                    }
                    break;
                }
                Err(Failure::Aborted) => {
                    if self.recording {
                        self.tally.aborts += 1;
                    }
                }
                Err(Failure::Busy(hint)) => {
                    if self.recording {
                        self.tally.busy += 1;
                    }
                    std::thread::sleep(Duration::from_micros(hint));
                }
                Err(Failure::Error(e)) => {
                    if self.recording {
                        self.tally.errors += 1;
                    }
                    self.tally.first_error.get_or_insert(e);
                    errors += 1;
                    if errors >= MAX_ERRORS {
                        if self.recording {
                            self.tally.logical_failed += 1;
                        }
                        break;
                    }
                }
            }
        }
        self.tracing = false;
    }

    /// Measure null round trips under the current load: the clock
    /// handshake of a fresh connection is a burst of time exchanges,
    /// which the server answers without queueing or kernel work.
    fn probe(&mut self) {
        let config = NetClientConfig {
            clock_samples: PROBE_SAMPLES,
            ..client_config(self.plan.seed)
        };
        if let Ok(c) = TcpConnection::connect_with(self.plan.addr, config) {
            self.tally.probe.merge(&c.rpc_latency());
        }
    }

    /// Run logical transactions until `until`. In a traced run, the
    /// transactions that start in the middle half of `[from, until)`
    /// are traced.
    fn run(&mut self, from: Instant, until: Instant) {
        let len = until.saturating_duration_since(from);
        let (trace_from, trace_to) = (from + len / 4, from + len * 3 / 4);
        loop {
            let now = Instant::now();
            if now >= until {
                return;
            }
            let traced = self.recording && self.plan.trace && now >= trace_from && now < trace_to;
            if traced && now >= self.next_probe {
                self.probe();
                self.next_probe = now + PROBE_EVERY;
            }
            self.transaction(traced);
        }
    }
}

fn op_failure(reply: OpReply) -> Failure {
    match reply {
        OpReply::Aborted(_) => Failure::Aborted,
        OpReply::Error(m) if is_busy_error(&m) => {
            Failure::Busy(busy_retry_after_micros(&m).unwrap_or(1000))
        }
        other => Failure::Error(format!("unexpected op reply {other:?}")),
    }
}

/// One client thread of one round: connect, warm up, meet the
/// coordinator twice at the barrier (it marks the window's start in
/// between), then run the round's window.
pub fn run_client(
    plan: &Plan,
    shared: &Shared,
    round: &Round,
    table_size: u32,
) -> Result<Outcome, String> {
    let conn = match TcpConnection::connect_with(plan.addr, client_config(plan.seed)) {
        Ok(c) => c,
        Err(e) => {
            // Still meet the coordinator, or it would wait forever.
            round.barrier.wait();
            round.barrier.wait();
            return Err(format!("connect {}: {e}", plan.addr));
        }
    };
    let mut client = Client {
        plan,
        shared,
        conn,
        rng: Rng::new(plan.seed),
        deltas: vec![0; table_size as usize],
        tally: Tally::default(),
        recording: false,
        tracing: false,
        attempt_id: plan.seed << 32,
        attempt_ops: 0,
        next_probe: Instant::now(),
        window_start: Instant::now(),
        first_slice: round.first_slice,
    };
    let t = Instant::now();
    client.run(t, t + round.warmup);
    round.barrier.wait();
    round.barrier.wait();
    client.recording = true;
    client.window_start = *round
        .window_start
        .get()
        .expect("the coordinator sets the window start before releasing clients");
    client.run(client.window_start, client.window_start + round.window);
    Ok(Outcome {
        to_replica: client.to_replica(),
        tally: client.tally,
        deltas: client.deltas,
    })
}

/// Read every object of a `table_size`-object table with all-zero
/// bounds (serializable reads), in chunked query transactions. Aborts
/// and busy rejects retry until `deadline`.
pub fn read_all(addr: SocketAddr, table_size: u32, deadline: Instant) -> Result<Vec<i64>, String> {
    let mut conn = TcpConnection::connect_with(addr, client_config(1))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = Vec::with_capacity(table_size as usize);
    let mut lo = 0;
    while lo < table_size {
        let hi = (lo + READ_ALL_CHUNK).min(table_size);
        let ops = (lo..hi).map(|k| Operation::Read(ObjectId(k))).collect();
        match read_chunk(&mut conn, ops) {
            Ok(values) => {
                out.extend(values);
                lo = hi;
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("reading objects {lo}..{hi} at {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Ok(out)
}

fn read_chunk(conn: &mut TcpConnection, ops: Vec<Operation>) -> Result<Vec<i64>, String> {
    conn.begin(TxnKind::Query, TxnBounds::serializable(TxnKind::Query))
        .map_err(|e| e.to_string())?;
    let replies = conn.batch(ops).map_err(|e| e.to_string());
    let values: Result<Vec<i64>, String> = replies.and_then(|rs| {
        rs.into_iter()
            .map(|r| match r {
                OpReply::Value(v) => Ok(v),
                other => Err(format!("{other:?}")),
            })
            .collect()
    });
    if conn.in_txn() {
        if values.is_ok() {
            conn.commit().map_err(|e| e.to_string())?;
        } else {
            let _ = conn.abort();
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn rng_ranges() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.below(20) < 20);
            let d = r.delta();
            assert!(d != 0 && d.abs() <= MAX_DELTA);
        }
    }
}
