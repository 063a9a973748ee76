//! `serve-hot` and `serve-churn`: `parapre-netd` in-process, driven over
//! TCP by the benchmark's own clients.

use crate::check::{self, Reply};
use crate::inputs::{self, stream};
use crate::layers::{self, KeyLayers, Reps};
use crate::probe::{self, LayerCase};
use crate::util::{mean, median, quantile, quietest, Deck, Figures, Rng, StealMonitor};
use crate::{Opts, Outcome, RANKS};
use parapre_core::{build_case_sized, CaseId, PrecondKind};
use parapre_engine::session::partition_matrix;
use parapre_engine::{matrix_graph, parse_job_line, ServiceConfig, SessionConfig, SolverSession};
use parapre_grid::Adjacency;
use parapre_net::{write_frame, NetConfig, NetServer};
use parapre_sparse::Csr;
use parapre_trace::flatjson::{parse_flat_object, JsonValue};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Worker threads of the served solve pool. Each solve runs `RANKS` rank
/// threads, so one worker fills the 2-core reference host; more would
/// only time-slice rank threads against each other.
const POOL: usize = 1;
/// Times the server set-up is repeated; `setup_s` is the median. The
/// set-up includes the first connection, which waits for the server's
/// accept poll, so it is repeated often enough for a steady median
/// (serve-churn; serve-hot makes `HOT_SETUPS` in each of its rounds).
const SETUPS: usize = 30;
/// Side set-ups in each serve-hot round.
const HOT_SETUPS: usize = 1;
/// Requests per key before anything is timed.
const WARMUP: usize = 5;
/// serve-hot open-loop arrival rate (requests per second), about 30% of
/// the seed program's closed-loop capacity on the 2-core reference host
/// (at half of it, the queue multiplied host stalls into the latencies).
pub const OPEN_RATE: f64 = 200.0;
/// Shares of each serve-hot round's window given to the closed loop on
/// one connection and to the closed loop on two (the open loop has the
/// rest).
const SINGLE_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.25;
/// Rounds of the serve-hot run (see `run_hot`).
const HOT_ROUNDS: usize = 40;
/// serve-churn writer puts per second, each followed by one cold solve.
/// The writer keeps to a seeded schedule at this rate, so a run stores
/// the same number of matrices however fast the host is.
const WRITER_RATE: f64 = 8.0;
/// Share of serve-churn writer puts that reuse an earlier pattern.
const REUSE_SHARE: f64 = 0.5;
/// serve-churn writer solves that make `outer_iters` and are checked
/// against a library solve of the same matrix.
const WRITER_CHECKED: usize = 96;
/// Session (and problem) cache capacity of serve-churn: fewer keys than
/// the writer creates, so both caches evict.
const CHURN_CACHE: usize = 4;
/// Share of serve-hot rounds (the least disturbed by host CPU steal) its
/// open-loop tail comes from.
const QUIET_SHARE: f64 = 0.5;

// ---------------------------------------------------------------------
// Client side of the wire protocol
// ---------------------------------------------------------------------

/// Starts `parapre-netd` in this process on a free loopback port.
pub fn start_server(cache_capacity: usize) -> (NetServer, SocketAddr) {
    let server = NetServer::start(
        NetConfig {
            service: ServiceConfig {
                pool_size: POOL,
                queue_capacity: 256,
                cache_capacity,
            },
            max_inflight: 256,
            ..NetConfig::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound");
    (server, addr)
}

/// Drains and stops a server through its last open connection.
pub fn stop_server(server: NetServer, mut conn: Conn) {
    conn.send(b"{\"cmd\":\"shutdown\"}");
    while conn.recv().is_some() {}
    server.wait();
}

/// One client connection: framed requests out, reply lines in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// A connection the server has accepted: one `stats` round trip, so
    /// the accept poll is not charged to the first timed request.
    pub fn ready(addr: SocketAddr) -> Conn {
        let mut conn = Conn::connect(addr);
        conn.stats();
        conn
    }

    /// Sends one frame; returns the bytes put on the wire.
    pub fn send(&mut self, payload: &[u8]) -> usize {
        send_frame(&mut self.writer, payload)
    }

    pub fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    /// One job round trip: `(reply, rtt ms, request bytes, reply bytes)`.
    pub fn request(&mut self, line: &str) -> (Result<Reply, String>, f64, usize, usize) {
        let t = Instant::now();
        let sent = self.send(line.as_bytes());
        let resp = self.recv();
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        match resp {
            Some(r) => (check::parse_reply(&r), rtt, sent, r.len() + 1),
            None => (Err("connection closed".into()), rtt, sent, 0),
        }
    }

    /// Uploads Matrix Market text: `(fingerprint hex, rtt ms, bytes)`.
    pub fn put(&mut self, mtx: &str) -> (Result<String, String>, f64, usize) {
        let mut payload = Vec::with_capacity(mtx.len() + 16);
        payload.extend_from_slice(b"{\"cmd\":\"put\"}\n");
        payload.extend_from_slice(mtx.as_bytes());
        let t = Instant::now();
        let sent = self.send(&payload);
        let resp = self.recv().unwrap_or_default();
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        let fp = parse_flat_object(&resp)
            .ok()
            .and_then(|f| f.get("fp").and_then(JsonValue::as_str).map(str::to_string))
            .ok_or_else(|| format!("put refused: {resp}"));
        (fp, rtt, sent)
    }

    /// The server's `stats` line as numbers.
    pub fn stats(&mut self) -> HashMap<String, f64> {
        self.send(b"{\"cmd\":\"stats\"}");
        let line = self.recv().unwrap_or_default();
        parse_flat_object(&line)
            .map(|f| {
                f.iter()
                    .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn send_frame(w: &mut TcpStream, payload: &[u8]) -> usize {
    let mut buf = Vec::with_capacity(payload.len() + 24);
    write_frame(&mut buf, payload).expect("in-memory frame");
    w.write_all(&buf).and_then(|()| w.flush()).expect("send frame");
    buf.len()
}

fn job_line(id: &str, fp: u64, precond: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"fp\":\"{fp:016x}\",\"precond\":\"{precond}\",\
         \"ranks\":{RANKS},\"rhs\":\"rowsum\"}}"
    )
}

/// Hot-request samples: the wire share of each round trip, its queue wait
/// and its bytes.
#[derive(Default)]
pub struct NetSamples {
    wire: Vec<f64>,
    queue: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

impl NetSamples {
    pub fn push(&mut self, r: &Reply, rtt_ms: f64, req_bytes: usize, resp_bytes: usize) {
        self.wire.push(rtt_ms - r.queue_ms - r.build_ms - r.solve_ms);
        self.queue.push(r.queue_ms);
        self.req_bytes.push(req_bytes as f64);
        self.resp_bytes.push(resp_bytes as f64);
    }

    /// `net.*` wire/bytes figures and the queue percentiles.
    pub fn fill(&self, fig: &mut Figures) {
        fig.set("net.wire_ms", median(&self.wire));
        fig.set("net.req_bytes", mean(&self.req_bytes));
        fig.set("net.resp_bytes", mean(&self.resp_bytes));
        fig.set("engine.queue_p50_ms", median(&self.queue));
        fig.set("engine.queue_p99_ms", quantile(&self.queue, 0.99));
    }
}

/// Median of `SolveService::submit_solve` → `wait` minus the job's own
/// session solve and queue wait, over `lines` submitted one at a time
/// straight to the server's service (no wire). Each answer is checked.
pub fn service_self_ms(server: &NetServer, lines: &[String], out: &mut Outcome, want: usize) -> f64 {
    let samples: Vec<f64> = lines
        .iter()
        .map(|line| {
            let job = parse_job_line(line, 0).expect("valid job line");
            let t = Instant::now();
            let ticket = server.service().submit_solve(job).expect("queue has room");
            let res = ticket.wait();
            let wall = t.elapsed().as_secs_f64() * 1e3;
            out.count(check::parse_reply(&res.to_json()).and_then(|r| check::check_reply(&r, want)));
            wall - res.solve_ms - res.queue_ms
        })
        .collect();
    median(&samples)
}

/// Cache and store figures from a `stats` line, plus the net rejection
/// counters of the in-process registry.
pub fn fill_engine_stats(stats: &HashMap<String, f64>, store_bytes: f64, fig: &mut Figures) {
    use parapre_metrics::names;
    let get = |k: &str| stats.get(k).copied().unwrap_or(f64::NAN);
    let (hits, misses) = (get("cache_hits"), get("cache_misses"));
    fig.set("engine.cache_hit_ratio", hits / (hits + misses));
    fig.set("engine.cache_evictions", get("cache_evictions"));
    fig.set("engine.store_entries", get("store_len"));
    fig.set("engine.store_bytes", store_bytes);
    let snap = parapre_metrics::snapshot();
    let rejected = snap.counter(names::NET_FRAMES_REJECTED_TOTAL)
        + snap.counter(names::NET_ADMISSION_REJECTS_TOTAL);
    fig.set("net.rejected", rejected as f64);
}

fn csr_bytes(a: &Csr) -> f64 {
    (a.nnz() * 16 + (a.n_rows() + 1) * 8) as f64
}

// ---------------------------------------------------------------------
// Served matrices and keys
// ---------------------------------------------------------------------

/// A matrix as the server holds it after a `put`, with the benchmark's
/// library reference of how it is partitioned.
struct Served {
    a: Csr,
    text: String,
    fp: u64,
    a_sym: Csr,
    owner: Vec<u32>,
    adj: Adjacency,
    b: Vec<f64>,
}

impl Served {
    fn new(a: Csr) -> Served {
        let (a_sym, owner) = partition_matrix(&a, RANKS, SessionConfig::paper(PrecondKind::Block2, RANKS).partition_seed);
        let b = inputs::rowsum(&a_sym);
        Served {
            text: inputs::to_mtx(&a),
            fp: a.fingerprint(),
            adj: matrix_graph(&a_sym),
            a,
            a_sym,
            owner,
            b,
        }
    }
}

/// One (matrix, preconditioner) key with its library reference solve.
struct Key {
    mat: usize,
    precond: &'static str,
    cfg: SessionConfig,
    session: SolverSession,
    want: usize,
}

impl Key {
    fn new(mats: &[Served], mat: usize, kind: PrecondKind, out: &mut Outcome) -> Key {
        let m = &mats[mat];
        let cfg = SessionConfig::paper(kind, RANKS);
        let session = SolverSession::from_matrix(&m.a, &cfg).expect("library session");
        let rep = session.solve(&m.b).expect("library solve");
        out.count(check::check_solution(&m.a_sym, &m.b, &rep.x, rep.converged));
        Key { mat, precond: kind.key(), cfg, session, want: rep.iterations }
    }

    fn line(&self, mats: &[Served], id: &str) -> String {
        job_line(id, mats[self.mat].fp, self.precond)
    }

    fn layer_case<'a>(&'a self, mats: &'a [Served]) -> LayerCase<'a> {
        let m = &mats[self.mat];
        LayerCase { a: &m.a_sym, owner: &m.owner, b: &m.b, cfg: &self.cfg }
    }
}

/// The two serve-hot matrices (also serve-churn's hot one): TC1 at
/// extent 16 and the nonsymmetric TC5 at extent 32, each D·A·D-scaled.
fn hot_matrices(seed: u64, tiny: bool) -> Vec<Served> {
    let mut rng = Rng::new(seed, stream::SCALE);
    let (e1, e5) = if tiny { (8, 12) } else { (16, 32) };
    [(CaseId::Tc1, e1), (CaseId::Tc5, e5)]
        .iter()
        .map(|&(id, e)| Served::new(inputs::scale_dad(&build_case_sized(id, e).sys.a, &mut rng, 0.8, 1.25)))
        .collect()
}

/// What one server set-up measured: the set-up time, each key's cold
/// latency and build time, and the puts.
struct Setup {
    /// The timed parts of the set-up: the server start, and the first
    /// connection to the last cold reply (the client's wait is not timed).
    spans: [(Instant, Instant); 2],
    setup_s: f64,
    cold_ms: Vec<f64>,
    build_ms: Vec<f64>,
    put_ms: Vec<f64>,
    put_bytes: Vec<f64>,
}

/// Starts a server, lets a client arrive `arrival` later (the wait is not
/// set-up work; the first connection's accept is), puts every matrix and
/// sends each key's first, cold request. Returns the running server and
/// its connection with the figures.
fn set_up(mats: &[Served], keys: &[Key], cache: usize, arrival: Duration, out: &mut Outcome) -> (NetServer, Conn, Setup) {
    let t0 = Instant::now();
    let (server, addr) = start_server(cache);
    let started = Instant::now();
    let start_s = started.duration_since(t0).as_secs_f64();
    std::thread::sleep(arrival);
    let t = Instant::now();
    let mut conn = Conn::connect(addr);
    let (mut put_ms, mut put_bytes) = (Vec::new(), Vec::new());
    for m in mats {
        let (fp, ms, bytes) = conn.put(&m.text);
        out.count(fp.and_then(|hex| {
            (hex == format!("{:016x}", m.fp))
                .then_some(())
                .ok_or_else(|| format!("server fingerprint {hex} for {:016x}", m.fp))
        }));
        put_ms.push(ms);
        put_bytes.push(bytes as f64);
    }
    let (mut cold_ms, mut build_ms) = (Vec::new(), Vec::new());
    for (k, key) in keys.iter().enumerate() {
        let (reply, rtt, _, _) = conn.request(&key.line(mats, &format!("s-{k}")));
        out.count(reply.as_ref().map_err(Clone::clone).and_then(|r| check::check_reply(r, key.want)));
        cold_ms.push(rtt);
        build_ms.push(reply.map_or(f64::NAN, |r| r.build_ms));
    }
    let setup_s = start_s + t.elapsed().as_secs_f64();
    (server, conn, Setup { spans: [(t0, started), (t, Instant::now())], setup_s, cold_ms, build_ms, put_ms, put_bytes })
}

/// A set-up whose server is stopped again once measured.
fn side_setup(mats: &[Served], keys: &[Key], cache: usize, arrival: Duration, out: &mut Outcome) -> Setup {
    let (server, conn, figures) = set_up(mats, keys, cache, arrival, out);
    stop_server(server, conn);
    figures
}

/// Median set-up time and per-key cold and build medians over the clean
/// set-ups (see `clean`). Their client arrivals cover the server's
/// accept-poll period (see `arrival_plan`) about evenly, as a set-up is
/// clean or not whenever its client arrives.
fn setup_medians(runs: &[Setup], steal: &StealMonitor) -> (f64, Vec<f64>, Vec<f64>) {
    let runs = clean(runs, steal, |r| r.spans);
    let setup_s = median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let per_key = |f: fn(&Setup) -> &Vec<f64>| -> Vec<f64> {
        (0..f(runs[0]).len())
            .map(|k| median(&runs.iter().map(|r| f(r)[k]).collect::<Vec<_>>()))
            .collect()
    };
    (setup_s, per_key(|r| &r.cold_ms), per_key(|r| &r.build_ms))
}

/// Longest wait before a client arrives after its server is up.
const ARRIVAL_SPAN_S: f64 = 0.05;

/// A seeded moment for the next client to arrive after its server is up.
fn arrival(rng: &mut Rng) -> Duration {
    Duration::from_secs_f64(rng.range(0.0, ARRIVAL_SPAN_S))
}

/// Client arrivals for `n` set-ups: one seeded moment in each of `n`
/// equal slices of the arrival span, in seeded order. The first
/// connection's wait for the server's accept poll depends on when it
/// arrives, so the set-ups sample that wait evenly instead of by chance.
fn arrival_plan(rng: &mut Rng, n: usize) -> Vec<Duration> {
    let mut at: Vec<Duration> = (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + rng.unit()) * ARRIVAL_SPAN_S / n as f64))
        .collect();
    for i in (1..n).rev() {
        at.swap(i, rng.below(i + 1));
    }
    at
}

fn warm_up(conn: &mut Conn, mats: &[Served], keys: &[Key], key_ids: &[usize], out: &mut Outcome) {
    for i in 0..WARMUP {
        for &k in key_ids {
            let (reply, ..) = conn.request(&keys[k].line(mats, &format!("w{k}-{i}")));
            out.count(reply.and_then(|r| check::check_reply(&r, keys[k].want)));
        }
    }
}

/// One completed hot request.
#[derive(Clone)]
struct Sample {
    key: usize,
    /// When the reply arrived.
    at: Instant,
    /// Latency as the benchmark reports it: from the due time in the open
    /// loop, from the send in closed loops.
    latency_ms: f64,
    rtt_ms: f64,
    late_ms: f64,
    req_bytes: usize,
    resp_bytes: usize,
    reply: Reply,
}

/// A closed-loop client: one request in flight, the next sent on reply,
/// while `more()` holds; keys are `key_ids` dealt from `deck`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conn: &mut Conn,
    mats: &[Served],
    keys: &[Key],
    key_ids: &[usize],
    deck: &mut Deck,
    more: impl Fn() -> bool,
    tag: &str,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = 0;
    while more() {
        let k = key_ids[deck.next()];
        let (reply, rtt, req_bytes, resp_bytes) = conn.request(&keys[k].line(mats, &format!("{tag}{i}")));
        i += 1;
        let checked = reply.and_then(|r| check::check_reply(&r, keys[k].want).map(|()| r));
        match checked {
            Ok(reply) => samples.push(Sample {
                key: k,
                at: Instant::now(),
                latency_ms: rtt,
                rtt_ms: rtt,
                late_ms: 0.0,
                req_bytes,
                resp_bytes,
                reply,
            }),
            Err(e) => out.count(Err(e)),
        }
    }
    out.attempted += samples.len() as u64;
    samples
}

/// One open-loop window on `conn`: Poisson arrivals at `rate` (drawn from
/// `arrivals`, keys dealt from `mix`), each request sent at its due time by a
/// sender thread whatever the replies do, and timed from that due time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Conn,
    mats: &[Served],
    keys: &[Key],
    arrivals: &mut Rng,
    mix: &mut Deck,
    rate: f64,
    window: Duration,
    tag: &str,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += arrivals.exp(1.0 / rate);
        if t >= window.as_secs_f64() {
            break;
        }
        due.push((t, mix.next()));
    }
    let prefix = format!("o{tag}-");
    let lines: Vec<String> = due
        .iter()
        .enumerate()
        .map(|(i, &(_, k))| keys[k].line(mats, &format!("{prefix}{i}")))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(1);
    let due_at: Vec<Instant> = due.iter().map(|&(t, _)| t0 + Duration::from_secs_f64(t)).collect();
    let Conn { reader, writer } = conn;
    let (sent, got) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            due_at
                .iter()
                .zip(&lines)
                .map(|(&at, line)| {
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let sent_at = Instant::now();
                    (sent_at, send_frame(writer, line.as_bytes()))
                })
                .collect::<Vec<_>>()
        });
        let mut got: Vec<(usize, Instant, String)> = Vec::with_capacity(lines.len());
        for _ in 0..lines.len() {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let at = Instant::now();
            let idx = parse_flat_object(line.trim())
                .ok()
                .and_then(|f| {
                    let id = f.get("id").and_then(JsonValue::as_str)?;
                    id.strip_prefix(prefix.as_str())?.parse().ok()
                })
                .unwrap_or(usize::MAX);
            got.push((idx, at, line.trim_end().to_string()));
        }
        (sender.join().expect("sender thread"), got)
    });
    let mut samples = Vec::with_capacity(got.len());
    let mut seen = vec![false; lines.len()];
    for (idx, at, line) in got {
        if idx >= lines.len() || seen[idx] {
            out.count(Err(format!("unexpected reply {line}")));
            continue;
        }
        seen[idx] = true;
        let k = due[idx].1;
        let checked = check::parse_reply(&line).and_then(|r| check::check_reply(&r, keys[k].want).map(|()| r));
        match checked {
            Ok(reply) => {
                out.attempted += 1;
                let (sent_at, req_bytes) = sent[idx];
                samples.push(Sample {
                    key: k,
                    at,
                    latency_ms: at.duration_since(due_at[idx]).as_secs_f64() * 1e3,
                    rtt_ms: at.duration_since(sent_at).as_secs_f64() * 1e3,
                    late_ms: sent_at.duration_since(due_at[idx]).as_secs_f64() * 1e3,
                    req_bytes,
                    resp_bytes: line.len() + 1,
                    reply,
                })
            }
            Err(e) => out.count(Err(e)),
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s {
            out.count(Err(format!("request {prefix}{i} got no reply")));
        }
    }
    samples
}

/// Fewest clean items a figure is taken from; with fewer, it takes all.
const MIN_CLEAN: usize = 15;

/// The items during which the host took no CPU away (see
/// [`StealMonitor::clean`]; `spans` gives the parts of an item that are
/// timed), or all of them when fewer than `MIN_CLEAN` are.
fn clean<'a, T, const N: usize>(
    items: &'a [T],
    steal: &StealMonitor,
    spans: impl Fn(&T) -> [(Instant, Instant); N],
) -> Vec<&'a T> {
    let kept: Vec<&T> = items
        .iter()
        .filter(|i| spans(i).iter().all(|&(from, to)| steal.clean(from, to)))
        .collect();
    if kept.len() < MIN_CLEAN.min(items.len()) {
        items.iter().collect()
    } else {
        kept
    }
}

/// A closed-loop request's span: from its send to its reply.
fn request_span(s: &Sample) -> [(Instant, Instant); 1] {
    [(s.at - Duration::from_secs_f64(s.rtt_ms * 1e-3), s.at)]
}

/// Requests per second of one closed-loop connection over the part of
/// its timeline the host did not disturb: with one request in flight the
/// timeline is the sequence of round trips, so that is the clean
/// requests over the sum of their round trips.
fn clean_rate(samples: &[Sample], steal: &StealMonitor) -> f64 {
    let kept = clean(samples, steal, request_span);
    kept.len() as f64 / (kept.iter().map(|s| s.rtt_ms).sum::<f64>() * 1e-3)
}

/// `quiet`, or every item of `all` when no item fell in a quiet window
/// (very short runs).
fn or_all<'a, T>(quiet: Vec<&'a T>, all: &'a [T]) -> Vec<&'a T> {
    if quiet.is_empty() {
        all.iter().collect()
    } else {
        quiet
    }
}

fn per_key_median(samples: &[Sample], key: usize, f: fn(&Sample) -> f64) -> f64 {
    let v: Vec<f64> = samples.iter().filter(|s| s.key == key).map(f).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        median(&v)
    }
}

fn net_samples(samples: &[Sample]) -> NetSamples {
    let mut ns = NetSamples::default();
    for s in samples {
        ns.push(&s.reply, s.rtt_ms, s.req_bytes, s.resp_bytes);
    }
    ns
}

/// Where the requests above the 99th latency percentile spent their
/// time, next to the same split over all requests. The session solve is
/// split further with the key's measured launch and FGMRES times.
fn tail_split(samples: &[Sample], layers_by_key: &HashMap<usize, &KeyLayers>, report: &mut crate::util::Report) {
    let p99 = quantile(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), 0.99);
    let split = |set: &[&Sample], tag: &str, report: &mut crate::util::Report| {
        let avg = |f: &dyn Fn(&Sample) -> f64| mean(&set.iter().map(|s| f(s)).collect::<Vec<_>>());
        let launch = |s: &Sample| layers_by_key.get(&s.key).map_or(0.0, |k| k.launch_us * 1e-3);
        let fgmres = |s: &Sample| layers_by_key.get(&s.key).map_or(0.0, |k| k.leg.gmres_s * 1e3).min(s.reply.solve_ms);
        report.num(&format!("{tag}_n"), set.len() as f64);
        report.num(&format!("{tag}_latency_ms"), avg(&|s| s.latency_ms));
        report.num(&format!("{tag}_generator_late_ms"), avg(&|s| s.late_ms));
        report.num(&format!("{tag}_net_ms"), avg(&|s| s.rtt_ms - s.reply.queue_ms - s.reply.build_ms - s.reply.solve_ms));
        report.num(&format!("{tag}_queue_ms"), avg(&|s| s.reply.queue_ms));
        report.num(&format!("{tag}_build_ms"), avg(&|s| s.reply.build_ms));
        report.num(&format!("{tag}_launch_ms"), avg(&|s| launch(s).min(s.reply.solve_ms)));
        report.num(&format!("{tag}_fgmres_ms"), avg(&|s| fgmres(s)));
        report.num(
            &format!("{tag}_session_rest_ms"),
            avg(&|s| (s.reply.solve_ms - launch(s) - fgmres(s)).max(0.0)),
        );
    };
    let tail: Vec<&Sample> = samples.iter().filter(|s| s.latency_ms > p99).collect();
    let all: Vec<&Sample> = samples.iter().collect();
    split(&tail, "tail", report);
    split(&all, "all", report);
}

/// Library layer legs for `keys`, in order.
fn key_layers(mats: &[Served], keys: &[&Key], launch_us: f64) -> Vec<KeyLayers> {
    let reps = Reps { solves: 15, kernels: 200, parses: 5 };
    keys.iter()
        .map(|k| layers::measure_key(&k.layer_case(mats), &k.session, &mats[k.mat].adj, launch_us, &reps))
        .collect()
}

/// `unattributed_pct` of served requests: median round trip per key
/// against wire, queue, service self time and the session solve's
/// covered layers.
fn served_unattributed(samples: &[Sample], kl: &[(usize, &KeyLayers, f64)]) -> f64 {
    let (mut e2e, mut covered) = (0.0, 0.0);
    for &(key, layer, service_self_ms) in kl {
        e2e += per_key_median(samples, key, |s| s.rtt_ms);
        covered += per_key_median(samples, key, |s| s.rtt_ms - s.reply.queue_ms - s.reply.build_ms - s.reply.solve_ms)
            + per_key_median(samples, key, |s| s.reply.queue_ms)
            + service_self_ms
            + layer.covered_solve_s() * 1e3;
    }
    layers::unattributed_pct(e2e, covered)
}

/// Paired library `solve` vs `solve_traced` (the program's own tracer).
fn trace_overhead(session: &SolverSession, b: &[f64], pairs: usize) -> f64 {
    let once = |traced: bool| {
        let t = Instant::now();
        if traced {
            session.solve_traced(b, None).expect("traced solve");
        } else {
            session.solve(b).expect("solve");
        }
        t.elapsed().as_secs_f64()
    };
    layers::paired_overhead_pct(pairs, once)
}

// ---------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------

pub fn run_hot(opts: &Opts) -> Outcome {
    crate::assert_loadgen_fits(2, 2);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut out = Outcome::default();
    let mats = hot_matrices(opts.seed, opts.tiny);
    let keys: Vec<Key> = [(0, PrecondKind::Block2), (0, PrecondKind::Schur2), (1, PrecondKind::Block2), (1, PrecondKind::Schur2)]
        .iter()
        .map(|&(m, kind)| Key::new(&mats, m, kind, &mut out))
        .collect();
    let all: Vec<usize> = (0..keys.len()).collect();

    let steal = StealMonitor::start();
    let mut setup_rng = Rng::new(opts.seed, stream::ARRIVALS + 100);
    let (server, mut conn, _) = set_up(&mats, &keys, 4, arrival(&mut setup_rng), &mut out);
    let addr = server.tcp_addr().expect("tcp bound");
    warm_up(&mut conn, &mats, &keys, &all, &mut out);

    // Rounds of: a set-up on a side server, a closed-loop window on one
    // connection (latency), one on two connections (capacity) and an
    // open-loop window at a fixed rate (the tail), so
    // every phase samples the whole run and a burst of host noise lands
    // in few windows.
    let rounds = if opts.tiny { 2 } else { HOT_ROUNDS };
    let mut extra = Conn::ready(addr);
    let mut closed_decks = [stream::CLOSED, stream::CLOSED + 1].map(|s| Deck::new(Rng::new(opts.seed, s), keys.len()));
    let mut arrivals = Rng::new(opts.seed, stream::ARRIVALS);
    let mut mix = Deck::new(Rng::new(opts.seed, stream::MIX), keys.len());
    let mut setups = Vec::new();
    let plan = arrival_plan(&mut setup_rng, rounds * HOT_SETUPS);
    let mut closed: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
    let (mut open_rounds, mut spans) = (Vec::new(), Vec::new());
    let mut single_rounds = Vec::new();
    for r in 0..rounds {
        let started = Instant::now();
        for &at in &plan[r * HOT_SETUPS..(r + 1) * HOT_SETUPS] {
            setups.push(side_setup(&mats, &keys, 4, at, &mut out));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        let window = (left / (rounds - r) as u32).max(Duration::from_millis(500));
        let until = Instant::now() + window.mul_f64(SINGLE_SHARE);
        single_rounds.push(closed_loop(&mut conn, &mats, &keys, &all, &mut closed_decks[0], || Instant::now() < until, &format!("s{r}-"), &mut out));
        let until = Instant::now() + window.mul_f64(CLOSED_SHARE);
        let mut outs = [Outcome::default(), Outcome::default()];
        let got: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let hs: Vec<_> = [&mut conn, &mut extra]
                .into_iter()
                .zip(closed_decks.iter_mut())
                .zip(outs.iter_mut())
                .enumerate()
                .map(|(c, ((cn, deck), o))| {
                    let (mats, keys, all) = (&mats, &keys, &all);
                    s.spawn(move || closed_loop(cn, mats, keys, all, deck, || Instant::now() < until, &format!("c{r}-{c}-"), o))
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (c, samples) in got.into_iter().enumerate() {
            closed[c].extend(samples);
        }
        for o in outs {
            out.attempted += o.attempted;
            out.failed += o.failed;
        }
        let open_window = window.mul_f64(1.0 - SINGLE_SHARE - CLOSED_SHARE).max(Duration::from_millis(300));
        open_rounds.push(open_loop(&mut conn, &mats, &keys, &mut arrivals, &mut mix, OPEN_RATE, open_window, &r.to_string(), &mut out));
        spans.push((started, Instant::now()));
    }
    drop(extra);

    // The open-loop tail comes from the rounds the host disturbed least;
    // the closed loops and the set-ups count their clean requests.
    let keep = quietest(&spans.iter().map(|&(a, b)| steal.rate(a, b)).collect::<Vec<_>>(), QUIET_SHARE);
    let (setup_s, cold_ms, build_ms) = setup_medians(&setups, &steal);
    let all_open: Vec<Sample> = open_rounds.iter().flatten().map(Sample::clone).collect();
    let quiet_open: Vec<&Sample> = open_rounds.iter().zip(&keep).filter(|(_, &k)| k).flat_map(|(w, _)| w).collect();
    let open: Vec<Sample> = or_all(quiet_open, &all_open).into_iter().cloned().collect();
    let lat: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let all_single: Vec<Sample> = single_rounds.iter().flatten().map(Sample::clone).collect();
    let single: Vec<Sample> = clean(&all_single, &steal, request_span).into_iter().cloned().collect();

    let fig = &mut out.figures;
    fig.set("setup_s", setup_s);
    fig.set("solve_s", (0..keys.len()).map(|k| per_key_median(&single, k, |s| s.reply.solve_ms)).sum::<f64>() * 1e-3);
    let outer_iters: usize = keys.iter().map(|k| k.want).sum();
    fig.set("outer_iters", outer_iters as f64);
    fig.set("req_p50_ms", median(&single.iter().map(|s| s.latency_ms).collect::<Vec<_>>()));
    fig.set("tail.req_p99_ms", quantile(&lat, 0.99));
    fig.set("req_per_s", closed.iter().map(|c| clean_rate(c, &steal)).sum());
    fig.set("cold_p50_ms", cold_ms.iter().sum());
    let late: Vec<f64> = all_open.iter().map(|s| s.late_ms).collect();
    let r = &mut out.report;
    r.num("open_rate_per_s", OPEN_RATE);
    r.num("open_requests", open.len() as f64);
    r.num("closed_requests", closed.iter().map(Vec::len).sum::<usize>() as f64);
    r.num("late_ms_p50", median(&late));
    r.num("late_ms_p99", quantile(&late, 0.99));
    r.num("late_ms_max", late.iter().copied().fold(0.0, f64::max));
    r.num("rounds", rounds as f64);
    r.num("steal_ticks_per_s", steal.overall());
    r.num("single_requests", all_single.len() as f64);
    r.num("single_clean_share", single.len() as f64 / all_single.len() as f64);
    r.num("single_p50_all_rounds_ms", median(&all_single.iter().map(|s| s.latency_ms).collect::<Vec<_>>()));
    r.num("open_p50_ms", median(&lat));
    r.num("p50_all_rounds_ms", median(&all_open.iter().map(|s| s.latency_ms).collect::<Vec<_>>()));
    r.num("p99_all_rounds_ms", quantile(&all_open.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), 0.99));
    r.num("put_p50_ms", median(&setups.iter().flat_map(|s| s.put_ms.clone()).collect::<Vec<_>>()));
    r.num("outer_iters", outer_iters as f64);

    if opts.trace {
        let launch = probe::launch_us(RANKS, 300);
        let key_refs: Vec<&Key> = keys.iter().collect();
        let kls = key_layers(&mats, &key_refs, launch);
        let wants: Vec<usize> = keys.iter().map(|k| k.want).collect();
        let bad = layers::roll_up(&kls, &wants, &mut out.figures);
        out.attempted += kls.len() as u64;
        out.failed += bad;
        let mut kl = Vec::new();
        let mut selfs = Vec::new();
        for (k, key) in keys.iter().enumerate() {
            let lines: Vec<String> = (0..10).map(|i| key.line(&mats, &format!("d{k}-{i}"))).collect();
            let ss = service_self_ms(&server, &lines, &mut out, key.want);
            selfs.push(ss);
            kl.push((k, &kls[k], ss));
        }
        let by_key: HashMap<usize, &KeyLayers> = kls.iter().enumerate().collect();
        tail_split(&all_open, &by_key, &mut out.report);
        let unattributed = served_unattributed(&open, &kl);
        let mut probe_conn = Conn::ready(addr);
        let mut i = 0usize;
        let metrics_pct = layers::metrics_overhead_pct(40, || {
            let t = Instant::now();
            for (k, key) in keys.iter().enumerate() {
                let (reply, ..) = probe_conn.request(&key.line(&mats, &format!("m{i}-{k}")));
                out.count(reply.and_then(|r| check::check_reply(&r, key.want)));
            }
            i += 1;
            t.elapsed().as_secs_f64()
        });
        let tc5 = &keys[2];
        let trace_pct = trace_overhead(&tc5.session, &mats[tc5.mat].b, 20);
        let stats = conn.stats();
        explain_pooled_tail(&mut conn, &mats, &mut out);

        let fig = &mut out.figures;
        net_samples(&open).fill(fig);
        fig.set("net.put_bytes", mean(&setups.iter().flat_map(|s| s.put_bytes.clone()).collect::<Vec<_>>()));
        fig.set("engine.service_self_ms", selfs.iter().sum());
        fig.set("engine.build_ms", build_ms.iter().sum());
        fill_engine_stats(&stats, mats.iter().map(|m| csr_bytes(&m.a)).sum(), fig);
        fig.set("mpisim.launch_us", launch);
        fig.set("mpisim.allreduce_us", probe::allreduce_us(RANKS, 2000));
        fig.set("metrics.overhead_pct", metrics_pct);
        fig.set("trace.overhead_pct", trace_pct);
        fig.set("trace.outer_iters", outer_iters as f64);
        fig.set("unattributed_pct", unattributed);
        drop(probe_conn);
    }
    out.figures.set("rss_mb", crate::util::peak_rss_mb());
    stop_server(server, conn);
    out
}

/// Replays, on a fresh metrics registry, the job mix whose pooled
/// `e2e_p99_ms` the old service bench committed — sequential singles,
/// `batch:12` jobs, a cold build and pipelined bursts on two
/// connections — and reports the pooled p99 beside each class's own.
fn explain_pooled_tail(conn: &mut Conn, mats: &[Served], out: &mut Outcome) {
    parapre_metrics::reset();
    let fp = mats[0].fp;
    let mut singles = Vec::new();
    for i in 0..48 {
        let (reply, rtt, ..) = conn.request(&job_line(&format!("x{i}"), fp, "block2"));
        out.count(reply.map(|_| ()));
        singles.push(rtt);
    }
    let mut batches = Vec::new();
    for i in 0..4 {
        let line = job_line(&format!("xb{i}"), fp, "block2").replace('}', ",\"batch\":12}");
        let (reply, rtt, ..) = conn.request(&line);
        out.count(reply.and_then(|r| if r.ok && r.converged { Ok(()) } else { Err(format!("batch job {}", r.id)) }));
        batches.push(rtt);
    }
    let (_, cold, ..) = conn.request(&job_line("xc", fp, "schur1"));
    let mut other = Conn::ready(conn.writer.peer_addr().expect("peer"));
    let burst: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = [&mut *conn, &mut other]
            .into_iter()
            .enumerate()
            .map(|(c, cn)| {
                s.spawn(move || {
                    let t = Instant::now();
                    for i in 0..16 {
                        cn.send(job_line(&format!("xp{c}-{i}"), fp, "schur1").as_bytes());
                    }
                    (0..16)
                        .map(|_| {
                            cn.recv();
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        hs.into_iter().flat_map(|h| h.join().expect("burst client")).collect()
    });
    drop(other);
    let stats = conn.stats();
    let r = &mut out.report;
    r.num("pooled_e2e_p50_ms", stats.get("e2e_p50_ms").copied().unwrap_or(f64::NAN));
    r.num("pooled_e2e_p99_ms", stats.get("e2e_p99_ms").copied().unwrap_or(f64::NAN));
    r.num("pooled_singles_p99_ms", quantile(&singles, 0.99));
    r.num("pooled_batch12_p50_ms", median(&batches));
    r.num("pooled_cold_schur1_ms", cold);
    r.num("pooled_burst_p50_ms", median(&burst));
    r.num("pooled_burst_max_ms", burst.iter().copied().fold(0.0, f64::max));
    r.num("pooled_jobs", (48 + 4 + 1 + 32) as f64);
}

// ---------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------

/// What the writer recorded for one put-then-solve.
struct WriterOp {
    /// When the op's solve reply arrived.
    at: Instant,
    put_ms: f64,
    put_bytes: f64,
    store_bytes: f64,
    cold_ms: f64,
    solve_ms: f64,
    build_ms: f64,
    iterations: usize,
    reused: bool,
    /// Which of the writer's base grids the matrix was built on.
    base: usize,
    /// Kept for the first `WRITER_CHECKED` ops: checked afterwards
    /// against a library solve.
    a: Option<Csr>,
}

/// The writer: `put`-then-solve operations on a seeded schedule at
/// `WRITER_RATE` over `span` from `start`, one jittered due time per
/// slot. A late operation is sent at once, and every scheduled one is
/// made, so the store grows by the same count however fast the host is.
/// Returns the operations and how late each was sent (ms).
fn writer_loop(addr: SocketAddr, opts: &Opts, start: Instant, span: f64, out: &mut Outcome) -> (Vec<WriterOp>, Vec<f64>) {
    let mut conn = Conn::ready(addr);
    let mut rng = Rng::new(opts.seed, stream::WRITER);
    let mut schedule = Rng::new(opts.seed, stream::WRITER_SCHEDULE);
    let bases = inputs::writer_bases(opts.tiny);
    let mut patterns = Vec::new();
    let mut ops = Vec::new();
    let mut late_ms = Vec::new();
    let slots = ((WRITER_RATE * span).round() as usize).max(1);
    for slot in 0..slots {
        let due = start + Duration::from_secs_f64((slot as f64 + schedule.unit()) / WRITER_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let wm = inputs::writer_matrix(&mut rng, &bases, &mut patterns, slot, REUSE_SHARE);
        let text = inputs::to_mtx(&wm.a);
        let fp = wm.a.fingerprint();
        let (ack, put_ms, put_bytes) = conn.put(&text);
        out.count(ack.and_then(|hex| {
            (hex == format!("{fp:016x}")).then_some(()).ok_or_else(|| format!("put fingerprint {hex} for {fp:016x}"))
        }));
        let (reply, cold_ms, ..) = conn.request(&job_line(&format!("w{slot}"), fp, "block2"));
        let reply = match reply {
            Ok(r) if r.ok && r.converged && r.true_relres <= check::RESIDUAL_BOUND => r,
            Ok(r) => {
                out.count(Err(format!("writer solve {} failed: {r:?}", r.id)));
                continue;
            }
            Err(e) => {
                out.count(Err(e));
                continue;
            }
        };
        // The iteration count is checked after the run (see run_churn).
        if ops.len() >= WRITER_CHECKED {
            out.count(Ok(()));
        }
        ops.push(WriterOp {
            at: Instant::now(),
            put_ms,
            put_bytes: put_bytes as f64,
            store_bytes: csr_bytes(&wm.a),
            cold_ms,
            solve_ms: reply.solve_ms,
            build_ms: reply.build_ms,
            iterations: reply.iterations,
            reused: wm.reused,
            base: slot % bases.len(),
            a: (ops.len() < WRITER_CHECKED).then_some(wm.a),
        });
    }
    (ops, late_ms)
}

pub fn run_churn(opts: &Opts) -> Outcome {
    crate::assert_loadgen_fits(2, 2);
    let mut out = Outcome::default();
    // The hot reader solves serve-hot's TC5 / Block 2 key.
    let mats: Vec<Served> = hot_matrices(opts.seed, opts.tiny).into_iter().skip(1).collect();
    let keys = vec![Key::new(&mats, 0, PrecondKind::Block2, &mut out)];
    let reader_key = &keys[0];

    let steal = StealMonitor::start();
    let mut setup_rng = Rng::new(opts.seed, stream::ARRIVALS + 100);
    let mut plan = arrival_plan(&mut setup_rng, SETUPS);
    let last_arrival = plan.pop().expect("at least one set-up");
    let mut setups: Vec<Setup> = plan
        .into_iter()
        .map(|at| side_setup(&mats, &keys, CHURN_CACHE, at, &mut out))
        .collect();
    let (server, mut conn, last) = set_up(&mats, &keys, CHURN_CACHE, last_arrival, &mut out);
    setups.push(last);
    let (setup_s, _, _) = setup_medians(&setups, &steal);
    let addr = server.tcp_addr().expect("tcp bound");
    warm_up(&mut conn, &mats, &keys, &[0], &mut out);

    // The measured phase: `--seconds` of the writer's schedule, with the
    // reader running until the writer has made its last operation.
    let t_phase = Instant::now();
    let writer_done = AtomicBool::new(false);
    let (mut r_out, mut w_out) = (Outcome::default(), Outcome::default());
    let (reads, (writes, writer_late)) = std::thread::scope(|s| {
        let reader_conn = &mut conn;
        let done = &writer_done;
        let r = s.spawn(|| {
            let mut deck = Deck::new(Rng::new(opts.seed, stream::CLOSED), 1);
            closed_loop(reader_conn, &mats, &keys, &[0], &mut deck, || !done.load(Ordering::Acquire), "r", &mut r_out)
        });
        let w = s.spawn(|| {
            let ops = writer_loop(addr, opts, t_phase, opts.seconds, &mut w_out);
            done.store(true, Ordering::Release);
            ops
        });
        (r.join().expect("reader"), w.join().expect("writer"))
    });
    // Latencies and rates come from the requests and writer operations
    // during which the host took no CPU away.
    let clean_reads = clean(&reads, &steal, request_span);
    let clean_writes = clean(&writes, &steal, |w| [(w.at - Duration::from_secs_f64(w.cold_ms * 1e-3), w.at)]);
    for o in [r_out, w_out] {
        out.attempted += o.attempted;
        out.failed += o.failed;
    }

    // Every checked writer key must take the iterations a library solve
    // of the same matrix takes.
    let mut writer_served: Vec<Served> = Vec::new();
    let mut writer_keys: Vec<Key> = Vec::new();
    let mut outer_iters = reader_key.want;
    for op in writes.iter().take(WRITER_CHECKED) {
        let served = Served::new(op.a.clone().expect("kept for checking"));
        let one = [served];
        let key = Key::new(&one, 0, PrecondKind::Block2, &mut out);
        out.count(if key.want == op.iterations {
            Ok(())
        } else {
            Err(format!("writer key served in {} iterations, library {}", op.iterations, key.want))
        });
        outer_iters += op.iterations;
        let [served] = one;
        if writer_served.len() < 3 {
            writer_served.push(served);
            writer_keys.push(Key { mat: writer_served.len() - 1, ..key });
        }
    }

    let lat: Vec<f64> = clean_reads.iter().map(|s| s.latency_ms).collect();
    let col = |f: fn(&WriterOp) -> f64| writes.iter().map(f).collect::<Vec<f64>>();
    // Writer figures: the median on each base grid, averaged over the
    // grids (cold times differ by grid, and the median of the pooled mix
    // would jump between grids). A grid with no clean operation takes
    // all of its operations.
    let per_base = |f: fn(&WriterOp) -> f64| -> f64 {
        let medians: Vec<f64> = (0..inputs::WRITER_BASES)
            .filter_map(|b| {
                let on_base = |w: &&WriterOp| w.base == b;
                let mut v: Vec<f64> = clean_writes.iter().copied().filter(on_base).map(f).collect();
                if v.is_empty() {
                    v = writes.iter().filter(on_base).map(f).collect();
                }
                (!v.is_empty()).then(|| median(&v))
            })
            .collect();
        mean(&medians)
    };
    let fig = &mut out.figures;
    fig.set("setup_s", setup_s);
    fig.set("solve_s", (median(&clean_reads.iter().map(|s| s.reply.solve_ms).collect::<Vec<_>>()) + per_base(|w| w.solve_ms)) * 1e-3);
    fig.set("outer_iters", outer_iters as f64);
    fig.set("req_p50_ms", median(&lat));
    fig.set("tail.req_p99_ms", quantile(&lat, 0.99));
    fig.set("req_per_s", clean_rate(&reads, &steal));
    fig.set("cold_p50_ms", per_base(|w| w.cold_ms));
    let r = &mut out.report;
    r.num("writer_ops", writes.len() as f64);
    r.num("writer_rate_per_s", WRITER_RATE);
    r.num("writer_late_ms_p50", median(&writer_late));
    r.num("writer_late_ms_max", writer_late.iter().copied().fold(0.0, f64::max));
    r.num("reader_requests", reads.len() as f64);
    r.num("read_clean_share", clean_reads.len() as f64 / reads.len() as f64);
    r.num("write_clean_share", clean_writes.len() as f64 / writes.len() as f64);
    r.num("pattern_reuse_share", col(|w| f64::from(u8::from(w.reused))).iter().sum::<f64>() / writes.len() as f64);
    r.num("put_p50_ms", median(&col(|w| w.put_ms)));
    r.num("put_p99_ms", quantile(&col(|w| w.put_ms), 0.99));
    r.num("p99_all_ms", quantile(&reads.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), 0.99));
    r.num("steal_ticks_per_s", steal.overall());
    r.num("outer_iters", outer_iters as f64);

    if opts.trace {
        let launch = probe::launch_us(RANKS, 300);
        let reader_layers = key_layers(&mats, &[reader_key], launch);
        let writer_layers = key_layers(&writer_served, &writer_keys.iter().collect::<Vec<_>>(), launch);
        let kls: Vec<KeyLayers> = reader_layers.into_iter().chain(writer_layers).collect();
        let wants: Vec<usize> = std::iter::once(reader_key.want).chain(writer_keys.iter().map(|k| k.want)).collect();
        let bad = layers::roll_up(&kls, &wants, &mut out.figures);
        out.attempted += kls.len() as u64;
        out.failed += bad;
        let lines: Vec<String> = (0..10).map(|i| reader_key.line(&mats, &format!("d{i}"))).collect();
        let service_self = service_self_ms(&server, &lines, &mut out, reader_key.want);
        let by_key: HashMap<usize, &KeyLayers> = [(0usize, &kls[0])].into_iter().collect();
        tail_split(&reads, &by_key, &mut out.report);
        let unattributed = served_unattributed(&reads, &[(0, &kls[0], service_self)]);
        let mut probe_conn = Conn::ready(addr);
        let mut i = 0usize;
        let metrics_pct = layers::metrics_overhead_pct(40, || {
            let t = Instant::now();
            for _ in 0..2 {
                let (reply, ..) = probe_conn.request(&reader_key.line(&mats, &format!("m{i}")));
                out.count(reply.and_then(|r| check::check_reply(&r, reader_key.want)));
                i += 1;
            }
            t.elapsed().as_secs_f64()
        });
        let trace_pct = trace_overhead(&reader_key.session, &mats[0].b, 20);
        let stats = conn.stats();
        let fig = &mut out.figures;
        net_samples(&reads).fill(fig);
        fig.set("net.put_bytes", mean(&col(|w| w.put_bytes)));
        fig.set("engine.service_self_ms", service_self);
        fig.set("engine.build_ms", median(&col(|w| w.build_ms)));
        let store_bytes = csr_bytes(&mats[0].a) + col(|w| w.store_bytes).iter().sum::<f64>();
        fill_engine_stats(&stats, store_bytes, fig);
        fig.set("mpisim.launch_us", launch);
        fig.set("mpisim.allreduce_us", probe::allreduce_us(RANKS, 2000));
        fig.set("metrics.overhead_pct", metrics_pct);
        fig.set("trace.overhead_pct", trace_pct);
        fig.set("trace.outer_iters", outer_iters as f64);
        fig.set("unattributed_pct", unattributed);
        drop(probe_conn);
    }
    out.figures.set("rss_mb", crate::util::peak_rss_mb());
    stop_server(server, conn);
    out
}
