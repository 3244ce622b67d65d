//! `mixed_open`: an open loop replaying `derived_analytics(OD, seed,
//! DagSpec::default())` against a live server, time-compressed by
//! [`K`]: λu and λt and `ips` are multiplied by K; slack, α,
//! `mean_update_age`, `compute_mean`/`sd`, the duration and the quantum
//! are divided by K. The server keeps a WAL with stripd's `--wal`
//! defaults (group commit every 1 ms, a snapshot every 5 s).
//!
//! Two load-generator threads, both sleep-paced (no spinning): the main thread
//! sends the seeded update and transaction arrivals, batching every
//! update due at a wake-up into `UpdateBatch` frames within the credit
//! window; a second thread sends point `Query` and `DerivedQuery`
//! requests at [`QUERY_RATE`] on its own connection. Every request is
//! timed from its due time, so a stall also delays the requests behind
//! it. Live transactions carry view reads only, so `DerivedQuery` is the
//! one live path into OD's recursive DAG refresh.
//!
//! Generation timestamps are stamped on the server's clock, estimated
//! from `Query` replies (server now = `generation + age`, ± RTT/2)
//! before the stream starts.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use strip_core::config::{Policy, SimConfig};
use strip_core::report::RunReport;
use strip_core::sources::{TxnSource, UpdateSource, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::dag::DagSpec;
use strip_db::staleness::StalenessSpec;
use strip_live::protocol::{
    read_msg, write_msg, Msg, WireDerivedQuery, WireQuery, WireStats, WireTxn, WireUpdate,
};
use strip_live::server::serve;
use strip_live::wal::DurabilityConfig;
use strip_live::LiveConfig;
use strip_sim::rng::SplitMix64;
use strip_workload::generators::{PoissonTxns, PoissonUpdates};
use strip_workload::scenarios::derived_analytics;

use crate::ingest_bulk::{batch_frame, next_chunk, BATCH};
use crate::layers;
use crate::procfs;
use crate::spans::{Tracer, NONE};
use crate::stats::{median, quantile, quiet_median, windowed_tail};
use crate::{Args, Outcome};

/// Time-compression factor.
pub const K: f64 = 50.0;
/// Point and derived queries per second; every fourth is derived.
const QUERY_RATE: f64 = 2_000.0;
/// A request unanswered (or a credit grant not arriving) for this long
/// counts as failed.
const STALL: Duration = Duration::from_secs(5);
/// Set-ups measured before the replay and again after it, besides the
/// replay's own, [`SETUP_GAP`] apart; the median of all of them is
/// reported. Spreading them over a few seconds on both sides of the
/// replay keeps a burst of stolen host time at one moment from setting
/// the figure.
const SETUP_REPS: usize = 15;
/// Pause between two set-ups.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// `Query` round trips used for the clock estimate (the fastest wins).
const CLOCK_PROBES: usize = 9;

/// `cfg` with time compressed `k`-fold: rates and instruction speed
/// multiplied, every time constant divided. `k = 1` is the identity.
#[must_use]
pub fn compress(cfg: &SimConfig, k: f64) -> SimConfig {
    let mut c = cfg.clone();
    c.lambda_u *= k;
    c.lambda_t *= k;
    c.costs.ips *= k;
    c.slack_min /= k;
    c.slack_max /= k;
    c.max_age /= k;
    c.mean_update_age /= k;
    c.compute_mean /= k;
    c.compute_sd /= k;
    c.duration /= k;
    c.warmup /= k;
    c.timeline_window = c.timeline_window.map(|w| w / k);
    c.staleness = match c.staleness {
        StalenessSpec::MaxAge { alpha } => StalenessSpec::MaxAge { alpha: alpha / k },
        StalenessSpec::Either { alpha } => StalenessSpec::Either { alpha: alpha / k },
        StalenessSpec::UnappliedUpdate => StalenessSpec::UnappliedUpdate,
    };
    c
}

/// The replayed configuration for a run of `seconds` wall seconds.
fn workload_config(seed: u64, seconds: u64) -> SimConfig {
    let mut base = derived_analytics(Policy::OnDemand, seed, DagSpec::default());
    base.duration = seconds as f64 * K;
    compress(&base, K)
}

fn live_config(sim: &SimConfig, wal_dir: &Path) -> LiveConfig {
    LiveConfig::with_quantum(sim.clone(), LiveConfig::DEFAULT_QUANTUM / K)
        .expect("derived analytics runs live")
        .with_durability(DurabilityConfig::new(wal_dir))
}

/// Offset of the server's clock from a local instant, from one `Query`
/// round trip: the reply's `generation + age` is the server's clock at
/// some moment between send and receipt; the midpoint is assumed, so
/// the error is at most half the round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockEstimate {
    /// Local instant the estimate refers to.
    pub at: Instant,
    /// Server clock at `at`, microseconds.
    pub server_us: f64,
    /// Round-trip time of the probe, microseconds.
    pub rtt_us: f64,
}

impl ClockEstimate {
    /// Estimate from a probe sent at `sent`, answered at `received`
    /// with `generation_micros` and `age_micros`.
    #[must_use]
    pub fn from_reply(
        sent: Instant,
        received: Instant,
        generation_micros: i64,
        age_micros: i64,
    ) -> Self {
        let rtt = received.saturating_duration_since(sent);
        ClockEstimate {
            at: sent + rtt / 2,
            server_us: (generation_micros + age_micros) as f64,
            rtt_us: rtt.as_secs_f64() * 1e6,
        }
    }

    /// The server's clock at local instant `t`, microseconds.
    #[must_use]
    pub fn server_at(&self, t: Instant) -> f64 {
        let dt = if t >= self.at {
            t.duration_since(self.at).as_secs_f64()
        } else {
            -self.at.duration_since(t).as_secs_f64()
        };
        self.server_us + dt * 1e6
    }
}

fn expect_reply(sock: &mut TcpStream) -> io::Result<Msg> {
    loop {
        match read_msg(sock)? {
            Some(Msg::Credit(_)) => {}
            Some(m) => return Ok(m),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ))
            }
        }
    }
}

fn probe_clock(sock: &mut TcpStream) -> io::Result<ClockEstimate> {
    let sent = Instant::now();
    write_msg(sock, &Msg::Query(WireQuery { class: 0, index: 0 }))?;
    match expect_reply(sock)? {
        Msg::QueryResponse(r) => Ok(ClockEstimate::from_reply(
            sent,
            Instant::now(),
            r.generation_micros,
            r.age_micros,
        )),
        other => Err(io::Error::other(format!(
            "expected QueryResponse, got {other:?}"
        ))),
    }
}

/// One set-up: serve, connect, first answered `Query`; then shut down,
/// whether or not the query was answered.
fn setup_once(sim: &SimConfig, wal_dir: &Path) -> io::Result<f64> {
    let _ = std::fs::remove_dir_all(wal_dir);
    let started = Instant::now();
    let handle = serve(
        &live_config(sim, wal_dir),
        TcpListener::bind("127.0.0.1:0")?,
    )?;
    let probed = TcpStream::connect(handle.addr()).and_then(|mut sock| {
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(STALL))?;
        probe_clock(&mut sock)
    });
    let secs = started.elapsed().as_secs_f64();
    let shut = handle.shutdown();
    let _ = std::fs::remove_dir_all(wal_dir);
    probed?;
    shut?;
    Ok(secs)
}

fn wire_txn(t: &TxnSpec) -> WireTxn {
    WireTxn {
        id: t.id,
        class: t.class.index() as u8,
        value: t.value,
        slack_micros: (t.slack * 1e6).round().max(0.0) as u64,
        compute_micros: (t.compute_time * 1e6).round().max(0.0) as u64,
        reads: t
            .reads
            .iter()
            .map(|r| (r.class.index() as u8, r.index))
            .collect(),
    }
}

/// The query thread's results.
#[derive(Debug, Default)]
struct QueryResults {
    /// `(due time since the origin in s, latency in µs)` per query.
    query_us: Vec<(f64, f64)>,
    dquery_us: Vec<(f64, f64)>,
    late_us: Vec<f64>,
    /// Share of CPU time the host stole in each second of the replay.
    steal: Vec<f64>,
    sent: u64,
    unanswered: u64,
    cpu_ns: u64,
    tracer: Option<Tracer>,
}

/// Sends queries at [`QUERY_RATE`] from `origin` until `end`.
fn query_loop(
    addr: std::net::SocketAddr,
    origin: Instant,
    end: Instant,
    seed: u64,
    shape: (u32, u32, u32),
    mut tracer: Tracer,
) -> QueryResults {
    let cpu0 = procfs::this_thread();
    let mut res = QueryResults::default();
    let mut sock = match TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(STALL))?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mixed_open: query connection failed: {e}");
            res.unanswered = 1;
            return res;
        }
    };
    let (n_low, n_high, nodes) = shape;
    let mut rng = SplitMix64::new(seed ^ 0x51_7E_11);
    let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let mut i = 0u32;
    let mut steal_at = procfs::cpu_steal();
    let mut read_steal = |res: &mut QueryResults, upto: usize| {
        if res.steal.len() >= upto {
            return;
        }
        let now = procfs::cpu_steal();
        let share = (now.0 - steal_at.0) as f64 / (now.1 - steal_at.1).max(1) as f64;
        steal_at = now;
        res.steal.resize(upto, share);
    };
    loop {
        let due = origin + interval * i;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        res.late_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let r = rng.next_u64();
        let derived = i % 4 == 3;
        let msg = if derived {
            Msg::DerivedQuery(WireDerivedQuery {
                node: (r % u64::from(nodes)) as u32,
            })
        } else {
            let object = (r % u64::from(n_low + n_high)) as u32;
            let (class, index) = if object < n_low {
                (0, object)
            } else {
                (1, object - n_low)
            };
            Msg::Query(WireQuery { class, index })
        };
        res.sent += 1;
        let answered = write_msg(&mut sock, &msg).and_then(|()| expect_reply(&mut sock));
        let done = Instant::now();
        let ok = matches!(
            (&answered, derived),
            (Ok(Msg::DerivedQueryResponse(d)), true) if d.stale != 2
        ) || matches!((&answered, derived), (Ok(Msg::QueryResponse(q)), false) if q.uu_stale != 2);
        if !ok {
            eprintln!("mixed_open: query {i} unanswered: {answered:?}");
            res.unanswered += 1;
            break;
        }
        let us = done.saturating_duration_since(due).as_secs_f64() * 1e6;
        let at = due.duration_since(origin).as_secs_f64();
        read_steal(&mut res, at as usize);
        if derived {
            res.dquery_us.push((at, us));
            tracer.record("live.derived_query", due, done, u64::from(i));
        } else {
            res.query_us.push((at, us));
            tracer.record("live.query", due, done, u64::from(i));
        }
        i += 1;
    }
    read_steal(&mut res, (end - origin).as_secs_f64().ceil() as usize);
    let _ = sock.shutdown(Shutdown::Both);
    res.cpu_ns = procfs::this_thread().cpu_ns.saturating_sub(cpu0.cpu_ns);
    res.tracer = Some(tracer);
    res
}

/// The update/transaction generator's results.
#[derive(Debug, Default)]
struct StreamResults {
    updates: u64,
    txns: u64,
    late_us: Vec<f64>,
    hung: bool,
    gen_ns: u128,
    kept: Vec<WireUpdate>,
    grants: u64,
    credit_wait_s: f64,
    write_s: f64,
}

/// Updates kept for the layer replays of the traced pass.
const KEEP_UPDATES: usize = 50_000;

/// Client-side state of the credit window on the update connection.
struct Sender<'a> {
    sock: &'a mut TcpStream,
    granted: u64,
    sent: u64,
    body: Vec<u8>,
    frame: Vec<u8>,
}

impl Sender<'_> {
    /// Sends `pending` in credit-safe chunks; false when a grant never
    /// came.
    fn send_updates(
        &mut self,
        pending: &[WireUpdate],
        res: &mut StreamResults,
    ) -> io::Result<bool> {
        let mut off = 0;
        while off < pending.len() {
            let k = next_chunk(self.granted, self.sent, (pending.len() - off) as u64, BATCH);
            if k == 0 {
                let t0 = Instant::now();
                match read_msg(self.sock) {
                    Ok(Some(Msg::Credit(g))) => {
                        self.granted += g;
                        res.grants += 1;
                    }
                    other => {
                        eprintln!("mixed_open: no credit grant: {other:?}");
                        return Ok(false);
                    }
                }
                res.credit_wait_s += t0.elapsed().as_secs_f64();
                continue;
            }
            let t0 = Instant::now();
            batch_frame(&mut self.frame, &mut self.body, &pending[off..off + k])?;
            self.sock.write_all(&self.frame)?;
            res.write_s += t0.elapsed().as_secs_f64();
            self.sent += k as u64;
            off += k;
        }
        Ok(true)
    }
}

/// Replays the merged arrival stream, sleeping until each wake-up and
/// sending everything due at it.
fn stream_loop(
    sock: &mut TcpStream,
    sim: &SimConfig,
    origin: Instant,
    clock: &ClockEstimate,
    tracer: &mut Tracer,
) -> io::Result<StreamResults> {
    let mut res = StreamResults::default();
    // Server clock at the schedule origin: generation times are stamped
    // on the server's axis, not on the generator's.
    let origin_us = clock.server_at(origin);
    let mut updates = PoissonUpdates::from_config(sim);
    let mut txns = PoissonTxns::from_config(sim);
    let t0 = Instant::now();
    let mut next_u: Option<UpdateSpec> = updates.next_update();
    let mut next_t: Option<TxnSpec> = txns.next_txn();
    res.gen_ns += t0.elapsed().as_nanos();
    let mut sender = Sender {
        sock,
        granted: 0,
        sent: 0,
        body: Vec::new(),
        frame: Vec::new(),
    };
    write_msg(sender.sock, &Msg::CreditRequest)?;
    match read_msg(sender.sock)? {
        Some(Msg::Credit(g)) => sender.granted = g,
        other => return Err(io::Error::other(format!("expected Credit, got {other:?}"))),
    }
    let mut pending: Vec<WireUpdate> = Vec::new();
    let mut dues: Vec<f64> = Vec::new();
    let mut wake = 0u64;
    loop {
        let now = origin.elapsed().as_secs_f64();
        // Every eighth wake-up is traced, which keeps the span file small.
        let span = if wake.is_multiple_of(8) {
            tracer.begin("live.wake", NONE, wake)
        } else {
            NONE
        };
        // Everything due now, in arrival order; a transaction flushes
        // the updates due before it.
        loop {
            let u_at = next_u.as_ref().map(|u| u.arrival.as_secs());
            let t_at = next_t.as_ref().map(|t| t.arrival.as_secs());
            let take_update = match (u_at, t_at) {
                (Some(u), Some(t)) => u <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let at = if take_update { u_at } else { t_at }.unwrap_or(f64::INFINITY);
            if at > now {
                break;
            }
            let g0 = Instant::now();
            if take_update {
                let u = next_u.take().expect("peeked update");
                next_u = updates.next_update();
                res.gen_ns += g0.elapsed().as_nanos();
                let w = WireUpdate {
                    class: u.object.class.index() as u8,
                    index: u.object.index,
                    generation_micros: (origin_us + u.generation_ts.as_secs() * 1e6).round() as i64,
                    payload: u.payload,
                    attr_mask: u.attr_mask,
                };
                if res.kept.len() < KEEP_UPDATES {
                    res.kept.push(w);
                }
                pending.push(w);
                dues.push(at);
            } else {
                let t = next_t.take().expect("peeked txn");
                next_t = txns.next_txn();
                res.gen_ns += g0.elapsed().as_nanos();
                if !sender.send_updates(&pending, &mut res)? {
                    res.hung = true;
                    return Ok(res);
                }
                res.updates += pending.len() as u64;
                pending.clear();
                let w0 = Instant::now();
                write_msg(sender.sock, &Msg::Txn(wire_txn(&t)))?;
                res.write_s += w0.elapsed().as_secs_f64();
                res.txns += 1;
                dues.push(at);
            }
        }
        if !sender.send_updates(&pending, &mut res)? {
            res.hung = true;
            return Ok(res);
        }
        res.updates += pending.len() as u64;
        pending.clear();
        let sent_at = origin.elapsed().as_secs_f64();
        res.late_us
            .extend(dues.drain(..).map(|at| (sent_at - at).max(0.0) * 1e6));
        tracer.end(span);
        wake += 1;
        let next = match (&next_u, &next_t) {
            (None, None) => break,
            (Some(u), None) => u.arrival.as_secs(),
            (None, Some(t)) => t.arrival.as_secs(),
            (Some(u), Some(t)) => u.arrival.as_secs().min(t.arrival.as_secs()),
        };
        let gap = next - origin.elapsed().as_secs_f64();
        if gap > 0.0 {
            thread::sleep(Duration::from_secs_f64(gap));
        }
    }
    Ok(res)
}

/// Everything one replay measured.
#[derive(Debug, Default)]
struct Replay {
    ok: bool,
    setup_s: f64,
    clock: Option<ClockEstimate>,
    skew_us: f64,
    stream: StreamResults,
    queries: QueryResults,
    stats: WireStats,
    report: RunReport,
    server: procfs::SchedStat,
    exec: procfs::SchedStat,
    wal: procfs::SchedStat,
    gen_cpu_ns: u64,
    wall_s: f64,
}

/// The replay against a freshly served server. The server is shut down
/// on every path, a client-side I/O error included.
fn replay(args: &Args, sim: &SimConfig, wal_dir: &Path, tracer: &mut Tracer) -> io::Result<Replay> {
    let mut r = Replay::default();
    let _ = std::fs::remove_dir_all(wal_dir);
    let started = Instant::now();
    let handle = serve(
        &live_config(sim, wal_dir),
        TcpListener::bind("127.0.0.1:0")?,
    )?;
    let driven = drive(args, sim, handle.addr(), started, tracer, &mut r);
    let shut = handle.shutdown();
    let _ = std::fs::remove_dir_all(wal_dir);
    driven?;
    r.report = shut?;
    Ok(r)
}

/// The client side of the replay: clock probes, the two driver threads
/// and the `StatsRequest` barrier.
#[allow(clippy::too_many_lines)]
fn drive(
    args: &Args,
    sim: &SimConfig,
    addr: SocketAddr,
    started: Instant,
    tracer: &mut Tracer,
    r: &mut Replay,
) -> io::Result<()> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(STALL))?;
    let mut best = probe_clock(&mut sock)?;
    r.setup_s = started.elapsed().as_secs_f64();
    for _ in 1..CLOCK_PROBES {
        let c = probe_clock(&mut sock)?;
        if c.rtt_us < best.rtt_us {
            best = c;
        }
    }
    r.clock = Some(best);

    let nodes = DagSpec::default().depth * DagSpec::default().width;
    let origin = Instant::now() + Duration::from_millis(20);
    // A generator stamping generation times on its own clock would be off
    // by the server's clock reading at the schedule origin.
    r.skew_us = best.server_at(origin);
    let end = origin + Duration::from_secs_f64(sim.duration);
    let before = procfs::threads();
    let cpu0 = procfs::this_thread();
    let q_tracer = Tracer::with_origin(tracer.enabled(), tracer.origin());
    let seed = args.seed;
    let shape = (sim.n_low, sim.n_high, nodes);
    let q_thread = thread::Builder::new()
        .name("bench-query".into())
        .spawn(move || query_loop(addr, origin, end, seed, shape, q_tracer))?;
    let now = Instant::now();
    if origin > now {
        thread::sleep(origin - now);
    }
    let streamed = stream_loop(&mut sock, sim, origin, &best, tracer);
    // Let the horizon pass, then take the barrier.
    let now = Instant::now();
    if end > now {
        thread::sleep(end - now);
    }
    let queries = q_thread
        .join()
        .map_err(|_| io::Error::other("query thread panicked"))?;
    r.stream = streamed?;
    r.gen_cpu_ns = procfs::this_thread().cpu_ns.saturating_sub(cpu0.cpu_ns) + queries.cpu_ns;
    r.wall_s = origin.elapsed().as_secs_f64();
    r.ok = !r.stream.hung && queries.unanswered == 0;
    r.queries = queries;
    if let Some(t) = r.queries.tracer.take() {
        tracer.absorb(t);
    }
    if r.ok {
        write_msg(&mut sock, &Msg::StatsRequest)?;
        match expect_reply(&mut sock) {
            Ok(Msg::StatsResponse(s)) => r.stats = s,
            other => {
                eprintln!("mixed_open: barrier unanswered: {other:?}");
                r.ok = false;
            }
        }
    }
    let after = procfs::threads();
    r.server = procfs::delta(&before, &after, "stripd-");
    r.exec = procfs::delta(&before, &after, "stripd-exec");
    r.wal = procfs::delta(&before, &after, "stripd-wal");
    let _ = sock.shutdown(Shutdown::Both);
    Ok(())
}

/// Output checks of one replay; returns the number of broken laws.
fn violations(r: &Replay) -> u64 {
    let s = &r.stats;
    let rep = &r.report;
    let d = &rep.dag;
    let checks = [
        (
            s.ingested == s.applied + s.superseded + s.shed + s.queued,
            "barrier update conservation",
        ),
        (
            s.ingested == r.stream.updates,
            "every sent update ingested at the barrier",
        ),
        (
            s.txns_arrived == r.stream.txns,
            "every sent transaction arrived at the barrier",
        ),
        (
            rep.updates.terminal_total() == rep.updates.arrived,
            "shutdown update conservation",
        ),
        (
            rep.updates.arrived == r.stream.updates,
            "every sent update ingested at shutdown",
        ),
        (
            d.enqueued == d.applied + d.coalesced + d.shed + d.pending_at_end,
            "DAG delta conservation",
        ),
        (d.enqueued > 0, "deltas flowed"),
        (
            rep.durability.wal_appended == rep.updates.arrived,
            "every ingested update reached the WAL",
        ),
        (
            r.queries.unanswered == 0 && r.queries.sent > 0,
            "every query answered",
        ),
    ];
    let mut bad = 0;
    for (ok, what) in checks {
        if !ok {
            eprintln!("mixed_open: check failed: {what}");
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!(
            "mixed_open: sent {} updates, {} txns; barrier {s:?}; shutdown {:?}",
            r.stream.updates, r.stream.txns, rep.updates
        );
    }
    bad
}

/// Runs the workload.
#[allow(clippy::too_many_lines)]
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sim = workload_config(args.seed, args.seconds);
    let out_dir: PathBuf = args.bench_dir.join("out");
    let wal_dir = out_dir.join(format!("wal-mixed-{}-{}", args.seed, std::process::id()));
    let mut setups = Vec::new();
    let mut set_up = |out: &mut Outcome| {
        if args.trace {
            return;
        }
        for _ in 0..SETUP_REPS {
            thread::sleep(SETUP_GAP);
            match setup_once(&sim, &wal_dir) {
                Ok(s) => {
                    setups.push(s);
                    out.attempt(1, 0);
                }
                Err(e) => {
                    eprintln!("mixed_open: set-up failed: {e}");
                    out.attempt(1, 1);
                }
            }
        }
    };
    set_up(&mut out);
    let mut tracer = Tracer::new(args.trace);
    let replayed = replay(args, &sim, &wal_dir, &mut tracer);
    set_up(&mut out);
    let r = match replayed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mixed_open: replay failed: {e}");
            out.attempt(1, 1);
            return out;
        }
    };
    let queries = r.queries.query_us.len() + r.queries.dquery_us.len();
    out.attempt(r.queries.sent + 1, r.queries.unanswered + u64::from(!r.ok));
    out.attempt(9, violations(&r));
    let mut q: Vec<f64> = r.queries.query_us.iter().map(|s| s.1).collect();
    let mut dq: Vec<f64> = r.queries.dquery_us.iter().map(|s| s.1).collect();
    q.sort_by(f64::total_cmp);
    dq.sort_by(f64::total_cmp);
    let mut late = r.stream.late_us.clone();
    late.extend(&r.queries.late_us);
    late.sort_by(f64::total_cmp);
    // The tail is taken per second of the replay (the highest percentile
    // with 10 samples beyond, p99.3 at 1500 queries) and the median
    // over seconds is reported.
    let q_tail = windowed_tail(&r.queries.query_us, 1.0, 10);
    let dq_tail = windowed_tail(&r.queries.dquery_us, 1.0, 10);
    out.note(format!(
        "mixed_open: query p90 {:.1} p95 {:.1} p99 {:.1} p99.9 {:.1} us; derived query p90 {:.1} p99 {:.1} us",
        quantile(&q, 0.9),
        quantile(&q, 0.95),
        quantile(&q, 0.99),
        quantile(&q, 0.999),
        quantile(&dq, 0.9),
        quantile(&dq, 0.99)
    ));
    let rep = &r.report;
    let arrivals = r.stream.updates + r.stream.txns + queries as u64;
    out.note(format!(
        "mixed_open: K={K}, {} updates, {} txns, {} queries, {} derived queries over {:.3} s; clock rtt {:.1} us",
        r.stream.updates,
        r.stream.txns,
        q.len(),
        dq.len(),
        r.wall_s,
        r.clock.map_or(0.0, |c| c.rtt_us),
    ));
    let m = &mut out.sheet;
    m.set("txn_success_ratio", rep.txns.p_success(), "ratio");
    m.set("fold_high", rep.fold_high, "ratio");
    m.set("query_p50_us", quantile(&q, 0.5), "us");
    m.set("query_tail_us", q_tail, "us");
    m.set("dquery_p50_us", quantile(&dq, 0.5), "us");
    m.set("dquery_tail_us", dq_tail, "us");
    m.set("queries", q.len() as f64, "count");
    m.set("dqueries", dq.len() as f64, "count");
    m.set("gen.late_p50_us", quantile(&late, 0.5), "us");
    m.set("gen.late_p99_us", quantile(&late, 0.99), "us");
    m.set("gen.clock_skew_us", r.skew_us, "us");
    m.set("gen.cpu_s", r.gen_cpu_ns as f64 * 1e-9, "s");
    m.set("exec.cpu_s", r.exec.cpu_ns as f64 * 1e-9, "s");
    m.set("exec.runq_wait_s", r.exec.wait_ns as f64 * 1e-9, "s");
    m.set("exec.rho_u", rep.cpu.rho_u(), "ratio");
    m.set("exec.rho_t", rep.cpu.rho_t(), "ratio");
    m.set("wal.appends", rep.durability.wal_appended as f64, "count");
    m.set("wal.fsyncs", rep.durability.wal_fsyncs as f64, "count");
    m.set(
        "wal.group_max",
        rep.durability.wal_group_max as f64,
        "count",
    );
    m.set("wal.cpu_s", r.wal.cpu_ns as f64 * 1e-9, "s");
    m.set("dag.deltas", rep.dag.enqueued as f64, "count");
    m.set("dag.applied", rep.dag.applied as f64, "count");
    m.set(
        "dag.coalesce_ratio",
        rep.dag.coalesced as f64 / rep.dag.enqueued.max(1) as f64,
        "ratio",
    );
    m.set("dag.od_refreshes", rep.dag.od_refreshes as f64, "count");
    m.set("dag.lag_mean_us", rep.dag.lag_mean * 1e6, "us");
    m.set("credit.grants", r.stream.grants as f64, "count");
    m.set("credit.wait_s", r.stream.credit_wait_s, "s");
    m.set("client.write_s", r.stream.write_s, "s");
    m.set("protocol.updates", r.stream.updates as f64, "count");
    let u = &rep.updates;
    let uq_ops = u.enqueued + u.installed_background + u.installed_on_demand;
    m.set("uq.ops", uq_ops as f64, "count");
    m.set("install.ops", u.installed_total() as f64, "count");
    m.set(
        "install.superseded_ratio",
        u.superseded_skips as f64 / u.arrived.max(1) as f64,
        "ratio",
    );
    m.set(
        "workload.arrivals",
        (r.stream.updates + r.stream.txns) as f64,
        "count",
    );
    m.set(
        "workload.gen_ns_per_arrival",
        r.stream.gen_ns as f64 / (r.stream.updates + r.stream.txns).max(1) as f64,
        "ns",
    );
    m.set("latency_tail_us", q_tail, "us");
    if !args.trace {
        setups.push(r.setup_s);
        m.set("setup_s", median(&setups), "s");
        m.set("peak_rss_mib", procfs::peak_rss_mib(), "MiB");
        m.set(
            "goodput_per_s",
            rep.txns.committed_fresh as f64 / r.wall_s,
            "1/s",
        );
        m.set(
            "cpu_ns_per_op",
            r.server.cpu_ns as f64 / arrivals.max(1) as f64,
            "ns",
        );
        // Per second of the replay, the quieter half by stolen CPU time:
        // this open loop keeps the executor about 85 % busy, so a second
        // in which the host steals a fifth of the CPU queues every query
        // behind it (the whole-run p50 is printed as `query_p50_us`).
        m.set(
            "latency_p50_us",
            quiet_median(&r.queries.query_us, 1.0, &r.queries.steal),
            "us",
        );
        m.set("success_ratio", rep.txns.p_success(), "ratio");
        return out;
    }

    // Traced pass: price the server-side layers on this run's updates.
    let kept = &r.stream.kept;
    let updates: Vec<_> = kept
        .iter()
        .enumerate()
        .map(|(i, w)| layers::to_update(i as u64, w))
        .collect();
    let (encode_ns, bodies) = layers::encode_ns_per_update(kept, BATCH);
    let decode_ns = layers::decode_ns_per_update(&bodies);
    let spsc_ns = layers::spsc_ns_per_update(kept, strip_live::server::RING_CAPACITY);
    let (install_ns, _) =
        layers::install_ns_per_update(&updates, sim.n_low, sim.n_high, sim.max_age);
    let os_ns = layers::os_deliver_ns_per_update(&updates, sim.os_max);
    let uq_ns = layers::update_queue_ns_per_op(&updates, sim.uq_max, sim.indexed_queue, 64);
    let dag_ns = sim.dag.as_ref().map_or(0.0, |spec| {
        layers::dag_ns_per_apply(&sim, spec, &updates, 64)
    });
    let wal_ns = match layers::wal_ns_per_update(
        kept,
        &out_dir.join(format!("wal-price-{}", std::process::id())),
    ) {
        Ok(ns) => ns,
        Err(e) => {
            eprintln!("mixed_open: WAL pricing failed: {e}");
            0.0
        }
    };
    // Span recording cost, from a throwaway tracer.
    let mut probe = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..100_000 {
        let s = probe.begin("x", NONE, i);
        probe.end(s);
    }
    let span_ns = t0.elapsed().as_nanos() as f64 / 100_000.0;
    let m = &mut out.sheet;
    m.set("protocol.encode_ns_per_update", encode_ns, "ns");
    m.set("protocol.decode_ns_per_update", decode_ns, "ns");
    m.set("spsc.ns_per_update", spsc_ns, "ns");
    m.set("install.ns_per_update", install_ns, "ns");
    m.set("os.deliver_ns_per_update", os_ns, "ns");
    m.set("uq.ns_per_op", uq_ns, "ns");
    m.set("dag.apply_ns_per_delta", dag_ns, "ns");
    m.set("wal.append_ns_per_update", wal_ns, "ns");
    m.set(
        "obs.trace_overhead_ratio",
        tracer.spans().len() as f64 * span_ns / r.gen_cpu_ns.max(1) as f64,
        "ratio",
    );
    // The modelled CPU burn is the executor's largest "layer".
    let burn_ns = (rep.cpu.busy_txn + rep.cpu.busy_update) * 1e9;
    let explained = burn_ns
        + (decode_ns + spsc_ns + os_ns + wal_ns) * u.arrived as f64
        + install_ns * u.installed_total() as f64
        + uq_ns * uq_ops as f64
        + dag_ns * rep.dag.applied as f64;
    m.set(
        "layers.unexplained_ratio",
        1.0 - explained / r.server.cpu_ns.max(1) as f64,
        "ratio",
    );
    out.finish_trace(args, "mixed_open", tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_by_one_is_the_identity() {
        let cfg = derived_analytics(Policy::OnDemand, 3, DagSpec::default());
        assert_eq!(compress(&cfg, 1.0), cfg);
    }

    #[test]
    fn compression_scales_rates_up_and_times_down() {
        let cfg = derived_analytics(Policy::OnDemand, 3, DagSpec::default());
        let c = compress(&cfg, 50.0);
        assert_eq!(c.lambda_u, cfg.lambda_u * 50.0);
        assert_eq!(c.lambda_t, cfg.lambda_t * 50.0);
        assert_eq!(c.costs.ips, cfg.costs.ips * 50.0);
        assert_eq!(c.max_age, cfg.max_age / 50.0);
        assert_eq!(c.staleness.alpha(), Some(cfg.max_age / 50.0));
        assert_eq!(c.slack_max, cfg.slack_max / 50.0);
        assert_eq!(c.compute_mean, cfg.compute_mean / 50.0);
        assert_eq!(c.mean_update_age, cfg.mean_update_age / 50.0);
        assert_eq!(c.duration, cfg.duration / 50.0);
        // Instruction costs are untouched: faster `ips` shrinks them.
        assert_eq!(c.costs.x_update, cfg.costs.x_update);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn clock_estimate_takes_the_round_trip_midpoint() {
        let sent = Instant::now();
        let received = sent + Duration::from_micros(200);
        // The server read 1_000_000 us (generation 900_000 + age 100_000).
        let c = ClockEstimate::from_reply(sent, received, 900_000, 100_000);
        assert_eq!(c.rtt_us, 200.0);
        assert_eq!(c.at, sent + Duration::from_micros(100));
        assert!((c.server_at(sent) - 999_900.0).abs() < 1e-6);
        assert!((c.server_at(received + Duration::from_millis(1)) - 1_001_100.0).abs() < 1e-6);
    }

    #[test]
    fn wire_txn_keeps_view_reads() {
        use strip_db::object::{Importance, ViewObjectId};
        use strip_sim::time::SimTime;
        let t = TxnSpec {
            id: 9,
            class: Importance::High,
            value: 2.0,
            arrival: SimTime::from_secs(0.5),
            slack: 0.002,
            compute_time: 0.0016,
            reads: vec![ViewObjectId::new(Importance::Low, 4)],
            derived_reads: vec![1],
        };
        let w = wire_txn(&t);
        assert_eq!(
            (w.id, w.class, w.slack_micros, w.compute_micros),
            (9, 1, 2_000, 1_600)
        );
        assert_eq!(w.reads, vec![(0, 4)]);
    }
}
