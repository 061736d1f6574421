//! The service workloads against a child `tpu-serve`:
//!
//! - `serve_hot`: closed loop over two keep-alive connections, cached
//!   what-ifs with collective quotes, listings and `PUT /specs/v4` flips
//!   mixed in; the traced run adds an open-loop phase with Poisson
//!   arrivals, timed from each request's due time.
//! - `serve_cold`: closed loop over two connections, every question
//!   new; Monte Carlo does the work.
//!
//! Every response is byte-compared with the answer computed offline
//! (`GoodputSim::for_spec`, the `--oneshot` path).

use crate::child::ServerProcess;
use crate::layers::{self, Question};
use crate::report::Outcome;
use crate::{Ctx, WorkDir};
use perfbench::loadgen::{self, Sample, Schedule};
use perfbench::mix::{self, Endpoint, HotMix, MixSpecs, Request, SpecInfo};
use perfbench::rng::{derive, Rng};
use perfbench::stats;
use perfbench::trace::Tracer;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpu_sched::{GoodputSim, PlannerModel};
use tpu_serve::api::{self, collective_body, sweep_body, sweep_points, whatif_body};
use tpu_serve::client::{self, ClientResponse, Connection};
use tpu_serve::http::{read_request, write_response};
use tpu_serve::{CollectiveQuery, QueryCache, ServiceState, SpecStore, WhatIfQuery};
use tpu_spec::consts::{KILO, MEGA};
use tpu_spec::MachineSpec;

/// Requests per window of the `serve_hot` medians: forty lie beyond
/// each window's p99.
const WINDOW: usize = 4000;
/// Most requests one closed-loop phase can send per second; the stream
/// is generated up front at this rate.
const CLOSED_MAX_RPS: f64 = 50_000.0;
/// Rate of the traced run's open-loop phase, which measures latency
/// from due time and the generator's lag.
const NOMINAL_RPS: f64 = 4000.0;
/// Generator lag p99 above which the open-loop phase's schedule is not
/// trusted.
const LAG_LIMIT_MS: f64 = 5.0;
/// Requests of the traced phase replayed in process.
const REPLAY_MAX: usize = 20_000;
/// Connections (and generator threads).
const CONNECTIONS: usize = 2;
/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;

// ---------------------------------------------------------------------
// specs and the offline reference
// ---------------------------------------------------------------------

/// Every spec of a directory: name, parsed spec, file text.
fn load_specs(dir: &Path) -> Result<Vec<(String, MachineSpec, String)>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let spec =
                MachineSpec::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((name, spec, text))
        })
        .collect()
}

/// The geometry of the specs the request mixes address.
fn mix_specs(specs: &[(String, MachineSpec, String)]) -> Result<MixSpecs, String> {
    let infos: Vec<SpecInfo> = specs.iter().map(|(n, s, _)| SpecInfo::new(n, s)).collect();
    MixSpecs::find(&infos)
}

/// The v4 spec with its OCS reconfiguration time doubled: semantically
/// different (new canonical hash), same scheduling geometry.
fn flipped_v4(v4: &MachineSpec) -> MachineSpec {
    let mut flipped = v4.clone();
    let ocs = flipped.ocs.as_mut().expect("v4 has an OCS layer");
    ocs.reconfig_ms *= 2.0;
    flipped
}

/// Offline answers: one spec set per v4 version (0 = committed file,
/// 1 = flipped).
struct Reference {
    versions: [BTreeMap<String, MachineSpec>; 2],
    put_bodies: [String; 2],
}

impl Reference {
    fn new(specs: &[(String, MachineSpec, String)]) -> Reference {
        let committed: BTreeMap<String, MachineSpec> = specs
            .iter()
            .map(|(n, s, _)| (n.clone(), s.clone()))
            .collect();
        let v4_text = specs
            .iter()
            .find(|(n, _, _)| n == "v4")
            .map(|(_, _, t)| t.clone())
            .expect("specs/v4.json");
        let mut flipped = committed.clone();
        let b = flipped_v4(&committed["v4"]);
        assert_ne!(b.canonical_hash(), committed["v4"].canonical_hash());
        let b_text = b.to_json();
        flipped.insert("v4".into(), b);
        Reference {
            versions: [committed, flipped],
            put_bodies: [v4_text, b_text],
        }
    }

    /// The offline answer to `req` with v4 at `version`: status and body.
    fn answer(&self, version: usize, req: &Request) -> (u16, String) {
        let specs = &self.versions[version];
        let query = req.target.split_once('?').map_or("", |(_, q)| q);
        let Some(name) = &req.spec else {
            return self.handled(version, "GET", &req.target, Vec::new());
        };
        let spec = &specs[name];
        let model = PlannerModel::for_spec(spec);
        match req.endpoint {
            Endpoint::WhatIf => {
                let q = WhatIfQuery::parse(&model, query).expect("mix queries are valid");
                let sim = GoodputSim::for_spec(spec, q.trials, q.seed).with_threads(1);
                (200, whatif_body(name, &sim, &q))
            }
            Endpoint::Sweep => {
                let points = sweep_points(&model, query).expect("mix sweeps are valid");
                let sim =
                    GoodputSim::for_spec(spec, points[0].trials, points[0].seed).with_threads(1);
                let bodies: Vec<String> =
                    points.iter().map(|q| whatif_body(name, &sim, q)).collect();
                (200, sweep_body(&bodies))
            }
            Endpoint::Collective => {
                let q = CollectiveQuery::parse(query).expect("mix quotes are valid");
                let body = collective_body(name, &model, &q).expect("mix shapes fit the machine");
                (200, body)
            }
            Endpoint::Put => {
                let body = self.put_bodies[version].clone().into_bytes();
                self.handled(version, "PUT", &req.target, body)
            }
            Endpoint::List => unreachable!("the listing names no spec"),
        }
    }

    /// The handler's answer on an in-memory store holding `version`'s
    /// specs (listing and PUT, whose bodies no offline simulator makes).
    fn handled(&self, version: usize, method: &str, target: &str, body: Vec<u8>) -> (u16, String) {
        let store = SpecStore::in_memory();
        for (name, spec) in &self.versions[version] {
            store.put(name, spec).expect("valid spec names");
        }
        let state = ServiceState {
            store,
            cache: QueryCache::new(0),
        };
        let resp = api::handle(&state, &http_request(method, target, body));
        (resp.status, resp.body)
    }
}

fn http_request(method: &str, target: &str, body: Vec<u8>) -> tpu_serve::http::Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    tpu_serve::http::Request {
        method: method.into(),
        path: path.into(),
        query: query.into(),
        body,
        keep_alive: true,
    }
}

/// The raw bytes a client sends for a request.
fn wire_bytes(method: &str, target: &str, body: Option<&str>) -> Vec<u8> {
    let mut head =
        format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    head.push_str(body.unwrap_or(""));
    head.into_bytes()
}

// ---------------------------------------------------------------------
// connections
// ---------------------------------------------------------------------

/// One client connection, reopened after the server closes it at its
/// per-connection request cap.
struct Conn {
    addr: SocketAddr,
    open: Option<Connection>,
    reopens: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            open: None,
            reopens: 0,
        }
    }

    /// Sends one request; `None` on a transport error.
    fn send(&mut self, method: &str, target: &str, body: Option<&str>) -> Option<ClientResponse> {
        if self.open.is_none() {
            self.open = Some(Connection::open(self.addr).ok()?);
        }
        let conn = self.open.as_mut()?;
        match conn.request(method, target, body) {
            Ok(resp) => {
                if resp.header("connection") == Some("close") {
                    self.open = None;
                    self.reopens += 1;
                }
                Some(resp)
            }
            Err(_) => {
                self.open = None;
                None
            }
        }
    }
}

/// What one exchange returned, recorded per stream index.
#[derive(Debug, Clone)]
struct Exchange {
    ok: bool,
    status: u16,
    body: String,
    hit: Option<bool>,
    /// The v4 version a PUT sent.
    put_version: Option<usize>,
}

fn exchange_of(resp: Option<ClientResponse>, put_version: Option<usize>) -> Exchange {
    match resp {
        Some(r) => Exchange {
            ok: false,
            status: r.status,
            hit: r.header("x-cache").map(|v| v == "hit"),
            body: r.body,
            put_version,
        },
        None => Exchange {
            ok: false,
            status: 0,
            body: String::new(),
            hit: None,
            put_version,
        },
    }
}

/// Which v4 version the server holds, as far as the client can tell.
/// A PUT flips it; while PUTs are in flight, or after two overlapped,
/// a read may see either version.
#[derive(Debug)]
struct PutState {
    in_flight: u32,
    overlapped: bool,
    current: Option<usize>,
    started: u64,
    last_sent: usize,
}

impl PutState {
    fn new() -> PutState {
        PutState {
            in_flight: 0,
            overlapped: false,
            current: Some(0),
            started: 0,
            last_sent: 0,
        }
    }

    fn begin_put(&mut self) -> usize {
        self.started += 1;
        self.in_flight += 1;
        self.overlapped |= self.in_flight > 1;
        self.current = None;
        self.last_sent = 1 - self.last_sent;
        self.last_sent
    }

    fn end_put(&mut self, version: usize, ok: bool) {
        self.in_flight -= 1;
        self.overlapped |= !ok;
        if self.in_flight == 0 {
            self.current = (!self.overlapped).then_some(version);
            self.overlapped = false;
        }
    }

    /// `(version if settled, PUTs started so far)`.
    fn snapshot(&self) -> (Option<usize>, u64) {
        (self.current.filter(|_| self.in_flight == 0), self.started)
    }
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

struct Hot {
    seed: u64,
    mix: HotMix,
    reference: Reference,
    /// Per distinct request: the answer with v4 at version 0 and 1.
    expected: Vec<[(u16, String); 2]>,
    puts: Mutex<PutState>,
}

/// One open-loop phase of `serve_hot`.
struct HotPhase {
    stream: Vec<usize>,
    samples: Vec<Sample>,
    exchanges: Vec<Exchange>,
}

impl HotPhase {
    fn failures(&self) -> u64 {
        self.exchanges.iter().filter(|e| !e.ok).count() as u64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(self.samples.iter().map(|s| ms(s.latency())).collect())
    }
}

impl Hot {
    fn new(seed: u64, specs: &[(String, MachineSpec, String)]) -> Result<Hot, String> {
        let mix = HotMix::new(seed, &mix_specs(specs)?);
        let reference = Reference::new(specs);
        let expected = mix
            .requests
            .iter()
            .map(|r| {
                let a = reference.answer(0, r);
                let b = if r.spec.as_deref() == Some("v4") || r.spec.is_none() {
                    reference.answer(1, r)
                } else {
                    a.clone()
                };
                assert!(
                    a.0 < 300 && b.0 < 300,
                    "{}: offline answer {} / {}",
                    r.target,
                    a.0,
                    b.0
                );
                [a, b]
            })
            .collect();
        Ok(Hot {
            seed,
            mix,
            reference,
            expected,
            puts: Mutex::new(PutState::new()),
        })
    }

    fn puts(&self) -> std::sync::MutexGuard<'_, PutState> {
        self.puts.lock().expect("no generator thread panicked")
    }

    /// Sends stream entry `t` and checks the answer.
    fn exchange(&self, conn: &mut Conn, t: usize) -> Exchange {
        let req = &self.mix.requests[t];
        let method = req.endpoint.method();
        if req.endpoint == Endpoint::Put {
            let version = self.puts().begin_put();
            let resp = conn.send(
                method,
                &req.target,
                Some(&self.reference.put_bodies[version]),
            );
            self.puts().end_put(version, resp.is_some());
            let mut e = exchange_of(resp, Some(version));
            let (status, body) = &self.expected[t][version];
            e.ok = e.status == *status && e.body == *body;
            return e;
        }
        let (settled, started) = self.puts().snapshot();
        let resp = conn.send(method, &req.target, None);
        let still = self.puts().snapshot().1 == started;
        let mut e = exchange_of(resp, None);
        let matches =
            |v: usize| e.status == self.expected[t][v].0 && e.body == self.expected[t][v].1;
        e.ok = match settled.filter(|_| still) {
            Some(v) => matches(v),
            None => matches(0) || matches(1),
        };
        e
    }

    /// One phase: open loop with Poisson arrivals at `rate`, or closed
    /// loop (each connection sends as soon as it is answered) when
    /// `rate` is `None`.
    fn phase(&self, conns: &mut [Conn], phase: u64, rate: Option<f64>, seconds: f64) -> HotPhase {
        let due = match rate {
            Some(rate) => loadgen::poisson(&mut Rng::new(derive(self.seed, phase)), rate, seconds),
            None => Vec::new(),
        };
        let n = match rate {
            Some(_) => due.len(),
            None => (seconds * CLOSED_MAX_RPS) as usize,
        };
        let schedule = match rate {
            Some(_) => Schedule::Open(&due),
            None => Schedule::Closed {
                deadline: Duration::from_secs_f64(seconds),
                limit: n,
            },
        };
        let stream = self.mix.stream(self.seed, phase, n);
        let done = Mutex::new(Vec::new());
        let samples = loadgen::run(conns, schedule, |conn, i| {
            let mut e = self.exchange(conn, stream[i]);
            e.body = String::new();
            let ok = e.ok;
            done.lock()
                .expect("no generator thread panicked")
                .push((i, e));
            ok
        });
        let mut done = done.into_inner().expect("no generator thread panicked");
        done.sort_by_key(|(i, _)| *i);
        HotPhase {
            stream: samples.iter().map(|s| stream[s.index]).collect(),
            samples,
            exchanges: done.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// Every distinct request once, sequentially, so the cache is warm
    /// and lazy arm construction is done before timing.
    fn warm(&self, conn: &mut Conn) -> (u64, u64) {
        let failed = (0..self.mix.requests.len())
            .filter(|&t| self.mix.requests[t].endpoint != Endpoint::Put)
            .filter(|&t| !self.exchange(conn, t).ok)
            .count() as u64;
        (self.mix.requests.len() as u64 - 1, failed)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * KILO
}

/// p99 when at least ten samples lie beyond it, else the largest
/// sample (ascending input).
fn p99_or_max(sorted: &[f64]) -> f64 {
    stats::tail(sorted, 0.99).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

/// Prints a latency distribution with its sample count and returns
/// `(p50, p99-or-max)`.
fn latency_line(label: &str, sorted: &[f64]) -> (f64, f64) {
    let p50 = stats::percentile(sorted, 0.5);
    let p99 = p99_or_max(sorted);
    let tail = match stats::tail(sorted, 0.99) {
        Some(_) => format!(
            "p99 {p99:.4} ms ({} beyond)",
            stats::beyond(sorted.len(), 0.99)
        ),
        None => format!("max {p99:.4} ms (too few samples for p99)"),
    };
    println!("# {label}: n={} p50 {p50:.4} ms, {tail}", sorted.len());
    (p50, p99)
}

/// Medians over windows of `WINDOW` consecutive requests of each
/// window's rate, p50 and p99, so a host stall confined to a few
/// windows moves none of them. Returns `(requests/s, p50, p99)`.
fn windowed(samples: &[Sample]) -> (f64, f64, f64) {
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for w in samples.chunks(WINDOW).filter(|w| w.len() == WINDOW) {
        let start = w.iter().map(|s| s.sent).min().unwrap_or_default();
        let end = w.iter().map(|s| s.done).max().unwrap_or_default();
        rates.push(WINDOW as f64 / (end - start).as_secs_f64());
        let lat = stats::sorted(w.iter().map(|s| ms(s.latency())).collect());
        p50s.push(stats::percentile(&lat, 0.5));
        p99s.push(p99_or_max(&lat));
    }
    assert!(
        !rates.is_empty(),
        "the phase holds fewer than {WINDOW} requests"
    );
    let (rate, p50, p99) = (
        stats::median(&rates),
        stats::median(&p50s),
        stats::median(&p99s),
    );
    println!(
        "# windows of {WINDOW} requests: median {rate:.1} requests/s, p50 {p50:.4} ms, p99 {p99:.4} ms over {} windows",
        rates.len()
    );
    (rate, p50, p99)
}

/// Spawns the server `SETUP_SPAWNS` times; returns the last one and
/// the median set-up time.
fn start_server(ctx: &Ctx, specs_dir: &Path) -> Result<(ServerProcess, f64), String> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let (s, t) = ServerProcess::start(&ctx.server_bin, specs_dir)?;
        times.push(t.as_secs_f64());
        server = Some(s);
    }
    let setup = stats::median(&times);
    println!(
        "# setup: spawn to first healthy /healthz, median of {} = {setup:.6} s (quartiles {:?})",
        times.len(),
        stats::quartiles(&times)
    );
    Ok((server.expect("at least one spawn"), setup))
}

fn stats_body(addr: SocketAddr) -> Result<(f64, f64, f64), String> {
    let r = client::request(addr, "GET", "/stats", None).map_err(|e| format!("/stats: {e}"))?;
    let v = tpu_spec::json::parse(&r.body).map_err(|e| format!("/stats body: {e}"))?;
    let num = |k| tpu_spec::json::get_num(&v, k).map_err(|e| e.to_string());
    Ok((
        num("cache_hits")?,
        num("cache_misses")?,
        num("cache_entries")?,
    ))
}

/// Cache counters of the server over the traced phase, from `/stats`
/// (`QueryCache::stats`).
fn set_cache_stats(out: &mut Outcome, before: (f64, f64, f64), after: (f64, f64, f64)) {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    out.set("serve.cache.hits", hits);
    out.set("serve.cache.misses", misses);
    out.set("serve.cache.entries", after.2);
    out.set("serve.cache.hit_ratio", hits / (hits + misses));
}

pub fn hot(ctx: &Ctx, work: &WorkDir) -> Result<Outcome, String> {
    let specs = load_specs(&ctx.specs_dir)?;
    let hot = Hot::new(ctx.seed, &specs)?;
    println!(
        "# serve_hot: {} distinct requests ({} what-ifs), offline answers ready",
        hot.mix.requests.len(),
        hot.mix.whatifs()
    );
    let dir = work.copy_specs(&ctx.specs_dir, "server")?;
    let (server, setup) = start_server(ctx, &dir)?;
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|_| Conn::new(server.addr)).collect();
    let (mut attempted, mut failed) = hot.warm(&mut conns[0]);
    // Then a second of load, so PUT flips and refills are in their
    // steady state before anything is timed.
    let mut phases = vec![hot.phase(&mut conns, 3, None, 1.0)];
    let mut out = Outcome::default();
    out.set("setup_s", setup);

    if !ctx.trace {
        let main = hot.phase(&mut conns, 1, None, ctx.seconds * 0.9);
        latency_line("per-request latency, closed loop", &main.latencies_ms());
        let (rate, p50, p99) = windowed(&main.samples);
        out.set("throughput", rate);
        out.set("p50_ms", p50);
        out.set("p99_ms", p99);
        phases.push(main);
        out.correct = true;
    } else {
        let untraced = hot.phase(&mut conns, 1, None, ctx.seconds * 0.2);
        let before = stats_body(server.addr)?;
        let traced_start = Instant::now();
        let traced = hot.phase(&mut conns, 2, None, ctx.seconds * 0.2);
        let after = stats_body(server.addr)?;
        let open = hot.phase(&mut conns, 4, Some(NOMINAL_RPS), ctx.seconds * 0.2);
        let (_, p50_u, _) = windowed(&untraced.samples);
        let (_, p50_t, _) = windowed(&traced.samples);
        latency_line(
            &format!("open loop at {NOMINAL_RPS} requests/s, latency from due time"),
            &open.latencies_ms(),
        );
        let lag = p99_or_max(&stats::sorted(
            open.samples.iter().map(|s| ms(s.lag)).collect(),
        ));
        println!("# open loop: generator lag p99 {lag:.4} ms (limit {LAG_LIMIT_MS} ms)");
        if lag > LAG_LIMIT_MS {
            println!("# open loop invalid: the generator fell behind its schedule");
        }
        out.set("loadgen.lag_p99_ms", lag);
        let n = traced.samples.len().min(REPLAY_MAX);
        let requests: Vec<(Request, Option<String>)> = traced.stream[..n]
            .iter()
            .zip(&traced.exchanges)
            .map(|(&t, e)| {
                let req = hot.mix.requests[t].clone();
                let body = e.put_version.map(|v| hot.reference.put_bodies[v].clone());
                (req, body)
            })
            .collect();
        let mut tracer = Tracer::new();
        let client = ClientSide {
            since: traced_start,
            samples: &traced.samples[..n],
            exchanges: &traced.exchanges[..n],
        };
        let replay_ok = traced_layers(&mut out, &mut tracer, work, ctx, &requests, &client)?;
        out.set("trace.overhead", p50_t / p50_u - 1.0);
        set_cache_stats(&mut out, before, after);
        let hits = traced
            .exchanges
            .iter()
            .filter(|e| e.hit == Some(true))
            .count();
        let misses = traced
            .exchanges
            .iter()
            .filter(|e| e.hit == Some(false))
            .count();
        println!("# X-Cache headers in the traced phase: {hits} hit, {misses} miss");
        ctx.write_trace(&tracer)?;
        out.correct = replay_ok;
        phases.extend([untraced, traced, open]);
    }
    for p in &phases {
        attempted += p.samples.len() as u64;
        failed += p.failures();
    }
    let reopens: u64 = conns.iter().map(|c| c.reopens).sum();
    println!("# connection reopens at the server's keep-alive cap: {reopens}");
    if ctx.trace {
        out.set("serve.conn_reopens", reopens as f64);
    }
    drop(conns);
    drop(server);
    out.attempted = attempted;
    out.failed = failed;
    out.correct &= failed == 0;
    Ok(out)
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

pub fn cold(ctx: &Ctx, work: &WorkDir) -> Result<Outcome, String> {
    let specs = load_specs(&ctx.specs_dir)?;
    let infos = mix_specs(&specs)?;
    let reference = Reference::new(&specs);
    let dir = work.copy_specs(&ctx.specs_dir, "server")?;
    let (server, setup) = start_server(ctx, &dir)?;
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|_| Conn::new(server.addr)).collect();

    // Build every arm the stream uses before timing (one 200-trial
    // what-if per spec and fabric).
    let mut warm_failed = 0;
    for (fabric, names) in [
        ("ocs", ["v4", "v3"]),
        ("static", ["v4", "v3"]),
        ("switched", ["a100", "v4-ib"]),
    ] {
        for name in names {
            let target = format!("/specs/{name}/whatif?fabric={fabric}&trials=200&seed=1");
            let ok = conns[0]
                .send("GET", &target, None)
                .is_some_and(|r| r.status == 200);
            warm_failed += u64::from(!ok);
        }
    }

    let mut out = Outcome::default();
    out.set("setup_s", setup);
    let seconds = if ctx.trace {
        ctx.seconds * 0.25
    } else {
        ctx.seconds
    };
    let seed = ctx.seed;
    let run_phase = |conns: &mut [Conn], stream_seed: u64| {
        let slots = Mutex::new(Vec::new());
        let samples = loadgen::run(
            conns,
            Schedule::Closed {
                deadline: Duration::from_secs_f64(seconds),
                limit: usize::MAX,
            },
            |conn, i| {
                let req = mix::cold_request(stream_seed, i as u64, &infos);
                let e = exchange_of(conn.send("GET", &req.target, None), None);
                let ok = e.status == 200;
                slots
                    .lock()
                    .expect("no generator thread panicked")
                    .push((i, e));
                ok
            },
        );
        let mut exchanges = slots.into_inner().expect("no generator thread panicked");
        exchanges.sort_by_key(|(i, _)| *i);
        let exchanges: Vec<Exchange> = exchanges.into_iter().map(|(_, e)| e).collect();
        (samples, exchanges)
    };

    let (samples, mut exchanges) = run_phase(&mut conns, seed);
    let (traced, traced_start) = if ctx.trace {
        let before = stats_body(server.addr)?;
        let start = Instant::now();
        let phase = run_phase(&mut conns, derive(seed, 99));
        let after = stats_body(server.addr)?;
        (Some((phase, before, after)), start)
    } else {
        (None, Instant::now())
    };
    let reopens: u64 = conns.iter().map(|c| c.reopens).sum();
    println!("# connection reopens at the server's keep-alive cap: {reopens}");
    drop(conns);
    drop(server);

    // Verify every answer offline, after the timed phase.
    let requests: Vec<Request> = samples
        .iter()
        .map(|s| mix::cold_request(seed, s.index as u64, &infos))
        .collect();
    verify(&reference, &requests, &mut exchanges);
    let failed = exchanges.iter().filter(|e| !e.ok).count() as u64;
    let wall = samples.iter().map(|s| s.done).max().unwrap_or_default();
    let points: u64 = requests
        .iter()
        .zip(&exchanges)
        .filter(|(_, e)| e.ok)
        .map(|(r, _)| u64::from(r.points))
        .sum();
    let throughput = points as f64 / wall.as_secs_f64();
    println!(
        "# {} requests ({} sweeps), {points} what-if points in {:.3} s = {throughput:.2} points/s",
        requests.len(),
        requests
            .iter()
            .filter(|r| r.endpoint == Endpoint::Sweep)
            .count(),
        wall.as_secs_f64()
    );
    let (p50, p99) = latency_line(
        "per-request latency",
        &stats::sorted(samples.iter().map(|s| ms(s.latency())).collect()),
    );
    out.set("throughput", throughput);
    out.set("p50_ms", p50);
    out.set("p99_ms", p99);
    out.attempted = requests.len() as u64 + 6;
    out.failed = failed + warm_failed;
    out.correct = out.failed == 0;

    if let Some(((t_samples, t_exchanges), before, after)) = traced {
        let t_seed = derive(seed, 99);
        let requests: Vec<(Request, Option<String>)> = t_samples
            .iter()
            .map(|s| (mix::cold_request(t_seed, s.index as u64, &infos), None))
            .collect();
        let t_wall = t_samples.iter().map(|s| s.done).max().unwrap_or_default();
        let t_points: u64 = requests.iter().map(|(r, _)| u64::from(r.points)).sum();
        let t_throughput = t_points as f64 / t_wall.as_secs_f64();
        let mut tracer = Tracer::new();
        let client = ClientSide {
            since: traced_start,
            samples: &t_samples,
            exchanges: &t_exchanges,
        };
        let replay_ok = traced_layers(&mut out, &mut tracer, work, ctx, &requests, &client)?;
        out.set("trace.overhead", throughput / t_throughput - 1.0);
        out.set("serve.conn_reopens", reopens as f64);
        out.set(
            "loadgen.lag_p99_ms",
            p99_or_max(&stats::sorted(
                t_samples.iter().map(|s| ms(s.lag)).collect(),
            )),
        );
        set_cache_stats(&mut out, before, after);
        ctx.write_trace(&tracer)?;
        out.attempted += t_exchanges.len() as u64;
        out.failed += t_exchanges.iter().filter(|e| e.status != 200).count() as u64;
        out.correct &= replay_ok && out.failed == 0;
    }
    Ok(out)
}

/// Byte-compares each exchange with its offline answer, on two threads.
fn verify(reference: &Reference, requests: &[Request], exchanges: &mut [Exchange]) {
    let mismatches = Mutex::new(0usize);
    std::thread::scope(|scope| {
        let half = exchanges.len().div_ceil(2);
        for (k, chunk) in exchanges.chunks_mut(half.max(1)).enumerate() {
            let (reqs, mismatches) = (&requests[k * half..], &mismatches);
            scope.spawn(move || {
                for (req, e) in reqs.iter().zip(chunk) {
                    let (status, body) = reference.answer(0, req);
                    e.ok = e.status == status && e.body == body;
                    if !e.ok {
                        let mut m = mismatches.lock().expect("no verifier panicked");
                        if *m < 3 {
                            eprintln!("mismatch on {}: got {} {:?}", req.target, e.status, e.body);
                        }
                        *m += 1;
                    }
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// the traced run: in-process replay of the same request stream
// ---------------------------------------------------------------------

/// The client's view of the traced phase.
struct ClientSide<'a> {
    since: Instant,
    samples: &'a [Sample],
    exchanges: &'a [Exchange],
}

/// Replays `requests` in process — once through `api::handle` between
/// `http::read_request` and `http::write_response`, once through the
/// handler's public steps — and probes the Monte Carlo layers with the
/// stream's what-if questions. Returns whether every assembled body
/// equals the handler's.
fn traced_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    work: &WorkDir,
    ctx: &Ctx,
    requests: &[(Request, Option<String>)],
    client: &ClientSide<'_>,
) -> Result<bool, String> {
    for s in client.samples {
        tr.record(
            "client.request",
            client.since,
            s.sent,
            s.done,
            Some(s.index as u64),
        );
    }
    let handler = ServiceState {
        store: SpecStore::load_dir(&work.copy_specs(&ctx.specs_dir, "replay-handler")?)
            .map_err(|e| e.to_string())?,
        cache: QueryCache::new(256),
    };
    let steps = ServiceState {
        store: SpecStore::load_dir(&work.copy_specs(&ctx.specs_dir, "replay-steps")?)
            .map_err(|e| e.to_string())?,
        cache: QueryCache::new(256),
    };
    let mut all_equal = true;
    let mut handle_us = Vec::with_capacity(requests.len());
    let mut questions: Vec<Question> = Vec::new();
    for (j, (req, body)) in requests.iter().enumerate() {
        let id = Some(j as u64);
        let raw = wire_bytes(req.endpoint.method(), &req.target, body.as_deref());
        let root = tr.open("replay.request", None, id);
        let parsed = tr.time("serve.http.read_request", Some(root), id, || {
            read_request(&mut Cursor::new(&raw))
        });
        let parsed = parsed.map_err(|e| format!("replaying {}: {e}", req.target))?;
        let h = tr.open(handle_span(req.endpoint), Some(root), id);
        let resp = api::handle(&handler, &parsed);
        tr.close(h);
        handle_us.push((tr.spans()[h].micros(), resp.x_cache));
        let mut buf = Vec::with_capacity(resp.body.len() + 128);
        let extras: Vec<(&str, &str)> = resp.x_cache.map(|v| ("X-Cache", v)).into_iter().collect();
        tr.time("serve.http.write_response", Some(root), id, || {
            write_response(&mut buf, resp.status, &resp.body, true, &extras)
        })
        .map_err(|e| e.to_string())?;
        tr.close(root);
        // The served body (kept by serve_cold) must equal the handler's.
        let served = &client.exchanges[j].body;
        if !served.is_empty() && *served != resp.body {
            all_equal = false;
            eprintln!("served body differs from api::handle on {}", req.target);
        }
        let assembled = steps_pipeline(tr, &steps, req, body.as_deref(), id, &mut questions);
        if let Some(assembled) = assembled {
            if assembled != resp.body {
                all_equal = false;
                eprintln!(
                    "in-process steps disagree with api::handle on {}",
                    req.target
                );
            }
        }
    }

    // Transport: client round trip minus in-process handling of the same
    // request, where both saw the same cache outcome.
    let transport: Vec<f64> = client
        .samples
        .iter()
        .zip(client.exchanges)
        .zip(&handle_us)
        .filter(|((_, e), (_, x))| e.hit == x.map(|v| v == "hit"))
        .map(|((s, _), (h, _))| s.round_trip().as_secs_f64() * MEGA - h)
        .collect();
    let med = |name: &str| {
        let v = tr.micros(name);
        (!v.is_empty()).then(|| stats::median(&v))
    };
    if !transport.is_empty() {
        out.set("serve.transport_us", stats::median(&transport));
    }
    for (metric, span) in [
        ("serve.http.parse_us", "serve.http.read_request"),
        ("serve.http.write_us", "serve.http.write_response"),
        ("serve.api.handle_us.whatif", handle_span(Endpoint::WhatIf)),
        ("serve.api.handle_us.sweep", handle_span(Endpoint::Sweep)),
        (
            "serve.api.handle_us.collective",
            handle_span(Endpoint::Collective),
        ),
        ("serve.api.handle_us.list", handle_span(Endpoint::List)),
        ("serve.api.handle_us.put", handle_span(Endpoint::Put)),
        ("serve.api.query_parse_us", "serve.api.query_parse"),
        ("serve.cache.get_us", "serve.cache.get"),
        ("serve.cache.insert_us", "serve.cache.insert"),
        ("serve.store.put_us", "serve.store.put"),
        ("spec.json.parse_us", "spec.json.parse"),
        ("spec.hash_us", "spec.hash"),
        ("net.collective_us", "net.collective"),
    ] {
        if let Some(v) = med(span) {
            out.set(metric, v);
        }
    }
    layers::goodput_probes(out, tr, &questions, derive(ctx.seed, 5));
    Ok(all_equal)
}

fn handle_span(e: Endpoint) -> &'static str {
    match e {
        Endpoint::WhatIf => "serve.api.handle.whatif",
        Endpoint::Sweep => "serve.api.handle.sweep",
        Endpoint::Collective => "serve.api.handle.collective",
        Endpoint::List => "serve.api.handle.list",
        Endpoint::Put => "serve.api.handle.put",
    }
}

/// The handler's work done step by step through the public functions,
/// each step in its own span. Returns the assembled body, if the
/// endpoint has one to compare.
fn steps_pipeline(
    tr: &mut Tracer,
    state: &ServiceState,
    req: &Request,
    put_body: Option<&str>,
    id: Option<u64>,
    questions: &mut Vec<Question>,
) -> Option<String> {
    let name = req.spec.as_deref()?;
    let query = req.target.split_once('?').map_or("", |(_, q)| q);
    let root = Some(tr.open("steps.request", None, id));
    let out = match req.endpoint {
        Endpoint::WhatIf | Endpoint::Sweep => {
            let entry = tr.time("serve.store.get", root, id, || state.store.get(name))?;
            let model = &entry.model;
            let hash = model.spec_hash();
            let points: Vec<(WhatIfQuery, String)> =
                tr.time("serve.api.query_parse", root, id, || {
                    let points = if req.endpoint == Endpoint::WhatIf {
                        vec![WhatIfQuery::parse(model, query).ok()?]
                    } else {
                        sweep_points(model, query).ok()?
                    };
                    Some(
                        points
                            .into_iter()
                            .map(|q| {
                                let key = q.canonical_key();
                                (q, key)
                            })
                            .collect(),
                    )
                })?;
            let mut sim: Option<GoodputSim> = None;
            let mut bodies = Vec::with_capacity(points.len());
            // One probe question per request (a sweep's first point), so
            // the probes cover the stream's specs and arms.
            if let Some((q, _)) = points.first() {
                if questions.len() < layers::MAX_QUESTIONS
                    && !questions
                        .iter()
                        .any(|x| x.spec_hash == hash && &x.query == q)
                {
                    questions.push(Question {
                        spec: model.spec().clone(),
                        spec_hash: hash,
                        query: q.clone(),
                    });
                }
            }
            for (q, key) in &points {
                if let Some(body) =
                    tr.time("serve.cache.get", root, id, || state.cache.get(hash, key))
                {
                    bodies.push(body);
                    continue;
                }
                let sim = match &mut sim {
                    Some(sim) => sim,
                    None => sim.insert(tr.time("sched.goodput.for_model", root, id, || {
                        GoodputSim::for_model(Arc::clone(model), q.trials, q.seed)
                    })),
                };
                let body = tr.time("serve.api.whatif_body", root, id, || {
                    whatif_body(name, sim, q)
                });
                tr.time("serve.cache.insert", root, id, || {
                    state.cache.insert(hash, key, body.clone())
                });
                bodies.push(body);
            }
            if req.endpoint == Endpoint::WhatIf {
                bodies.pop()
            } else {
                Some(tr.time("serve.api.sweep_body", root, id, || sweep_body(&bodies)))
            }
        }
        Endpoint::Collective => {
            let entry = tr.time("serve.store.get", root, id, || state.store.get(name))?;
            let q = CollectiveQuery::parse(query).ok()?;
            tr.time("net.collective", root, id, || {
                collective_body(name, &entry.model, &q).ok()
            })
        }
        Endpoint::Put => {
            let spec = tr.time("spec.json.parse", root, id, || {
                MachineSpec::from_json(put_body?).ok()
            })?;
            let hash = tr.time("spec.hash", root, id, || spec.canonical_hash());
            let (entry, replaced, _) = tr
                .time("serve.store.put", root, id, || state.store.put(name, &spec))
                .ok()?;
            debug_assert_eq!(entry.model.spec_hash(), hash);
            if let Some(old) = replaced.filter(|&old| old != hash) {
                tr.time("serve.cache.invalidate", root, id, || {
                    state.cache.invalidate_spec(old)
                });
            }
            None
        }
        Endpoint::List => None,
    };
    if let Some(r) = root {
        tr.close(r);
    }
    out
}
