//! X9/X20: wire fleet throughput — thousands of multiplexed logical
//! sessions over few sockets (EXPERIMENTS X9, X20).
//!
//! Every row runs on the one server transport: a session state
//! machine per connection, on a blocking thread of its own. One socket
//! per session tops out near the thread count: X7 measured ~45 k req/s
//! at 16 sessions, and 4096 threads is not a deployable answer. The
//! `evloop_*` rows drive [`MuxClient`] fleets — `conns` sockets ×
//! `channels` logical sessions each, every round issuing one pipelined
//! [`MuxClient::call_batch`] across all of a connection's channels —
//! and report aggregate requests/second plus p50/p99 round-trip
//! latency per batch, against the `threaded_16` baseline: 16 plain
//! clients, one socket and one session each, measured the X7 way. The
//! row labels date from when the two shapes ran on two transports;
//! they stay because they are the `bench_gate` keys of
//! `crates/bench/baselines/wire_fleet.json`.
//!
//! Every fleet ends with an **exact** server-vs-client reconciliation:
//! the server's request/byte totals must equal the sum of the clients'
//! own counters, and its session ledger must match the fleet shape.
//!
//! `IPD_BENCH_FAST=1` shrinks request budgets and skips the largest
//! fleet (used by the CI smoke + perf-gate step). The run always
//! writes a flat JSON summary (`IPD_BENCH_OUT`, default
//! `BENCH_wire.json`) for `bench_gate` to compare against the
//! committed baseline.

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd_wire::{
    ClientConfig, MuxClient, Reply, WireClient, WireConfig, WireError, WireServer, WireService,
    WireSession,
};

const ENDPOINT: u16 = 0x7E;
const PAYLOAD: &[u8] = &[0xA5; 64];

struct EchoService;

struct EchoSession;

impl WireSession for EchoSession {
    fn handle(&mut self, _endpoint: u16, body: &[u8]) -> Result<Reply, WireError> {
        Ok(Reply::body(body.to_vec()))
    }
}

impl WireService for EchoService {
    fn open_session(
        &self,
        _peer: SocketAddr,
        _token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        Ok(Box::new(EchoSession))
    }

    fn endpoint_name(&self, _endpoint: u16) -> String {
        "bench.echo".to_owned()
    }
}

struct Run {
    label: String,
    sessions: usize,
    requests: u64,
    reqs_per_sec: f64,
    p50: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The X7-style baseline: one socket and one thread per session.
fn run_threaded(sessions: usize, per_session: usize) -> Run {
    let server = WireServer::bind(WireConfig {
        max_sessions: sessions + 1,
        ..WireConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let stats = server.stats();
    let handle = server.start(Arc::new(EchoService));

    let start = Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    WireClient::connect(addr, &ClientConfig::default()).expect("connect");
                let mut latencies = Vec::with_capacity(per_session);
                for _ in 0..per_session {
                    let sent = Instant::now();
                    let response = client.call(ENDPOINT, PAYLOAD).expect("echo");
                    latencies.push(sent.elapsed());
                    assert_eq!(response, PAYLOAD, "echo must round-trip");
                }
                let totals = client.stats().totals();
                client.close();
                (latencies, totals)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(sessions * per_session);
    let mut client_requests = 0u64;
    let mut client_bytes_in = 0u64;
    for worker in workers {
        let (lat, totals) = worker.join().expect("session thread");
        latencies.extend(lat);
        client_requests += totals.requests;
        client_bytes_in += totals.bytes_in;
    }
    let wall = start.elapsed();

    let totals = stats.totals();
    assert_eq!(totals.requests, client_requests, "every request counted");
    assert_eq!(totals.bytes_in, client_bytes_in, "request bytes reconcile");
    assert_eq!(stats.sessions_opened(), sessions as u64);
    handle.shutdown().expect("shutdown");

    latencies.sort_unstable();
    Run {
        label: format!("threaded_{sessions}"),
        sessions,
        requests: client_requests,
        reqs_per_sec: client_requests as f64 / wall.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// A multiplexed fleet: `conns` sockets, each multiplexing `channels`
/// logical sessions, each round one pipelined batch over them all.
fn run_evloop(conns: usize, channels: usize, rounds: usize) -> Run {
    let sessions = conns * channels;
    let server = WireServer::bind(WireConfig {
        max_sessions: conns * (channels + 1),
        ..WireConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let stats = server.stats();
    let handle = server.start(Arc::new(EchoService));

    let start = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    MuxClient::connect(addr, &ClientConfig::default()).expect("connect");
                let opened: Vec<u32> = client
                    .open_many(channels, None, false)
                    .expect("open batch")
                    .into_iter()
                    .map(|c| c.expect("channel opens"))
                    .collect();
                let calls: Vec<(u32, u16, Vec<u8>)> = opened
                    .iter()
                    .map(|&ch| (ch, ENDPOINT, PAYLOAD.to_vec()))
                    .collect();
                let mut latencies = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let sent = Instant::now();
                    let answers = client.call_batch(&calls).expect("batch");
                    latencies.push(sent.elapsed());
                    for answer in answers {
                        assert_eq!(answer.expect("echo"), PAYLOAD, "echo must round-trip");
                    }
                }
                let totals = client.stats().totals();
                client.close();
                (latencies, totals)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(conns * rounds);
    let mut client_requests = 0u64;
    let mut client_bytes_in = 0u64;
    let mut client_bytes_out = 0u64;
    for worker in workers {
        let (lat, totals) = worker.join().expect("connection thread");
        latencies.extend(lat);
        client_requests += totals.requests;
        client_bytes_in += totals.bytes_in;
        client_bytes_out += totals.bytes_out;
    }
    let wall = start.elapsed();

    // Exact reconciliation: the server saw precisely what the clients
    // observed, and its ledger matches the fleet shape.
    let totals = stats.totals();
    assert_eq!(totals.requests, client_requests, "every request counted");
    assert_eq!(totals.bytes_in, client_bytes_in, "request bytes reconcile");
    assert_eq!(
        totals.bytes_out, client_bytes_out,
        "response bytes reconcile"
    );
    assert_eq!(totals.errors, 0, "no errors under a clean fleet");
    assert_eq!(
        stats.sessions_opened(),
        (conns + sessions) as u64,
        "one hello session per socket plus every channel"
    );
    handle.shutdown().expect("shutdown");

    latencies.sort_unstable();
    Run {
        label: format!("evloop_{sessions}"),
        sessions,
        requests: client_requests,
        reqs_per_sec: client_requests as f64 / wall.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

fn write_json(runs: &[Run]) {
    let path = std::env::var("IPD_BENCH_OUT").unwrap_or_else(|_| "BENCH_wire.json".to_owned());
    let mut out = String::from("{\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{label}_rps\": {rps:.1},\n  \"{label}_p99_us\": {p99}{comma}\n",
            label = run.label,
            rps = run.reqs_per_sec,
            p99 = run.p99.as_micros(),
        ));
    }
    out.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create bench JSON");
    file.write_all(out.as_bytes()).expect("write bench JSON");
    println!("wrote {path}");
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();

    // (connections, channels per connection, batch rounds)
    let fleets: &[(usize, usize, usize)] = if fast {
        &[(8, 32, 6), (16, 64, 6)]
    } else {
        &[(8, 32, 32), (16, 64, 16), (32, 128, 8)]
    };
    let per_session = if fast { 200 } else { 2_000 };

    let mut runs = vec![run_threaded(16, per_session)];
    for &(conns, channels, rounds) in fleets {
        runs.push(run_evloop(conns, channels, rounds));
    }

    println!(
        "=== X9/X20: wire fleet throughput, plain vs multiplexed sessions (echo, 64 B payload) ==="
    );
    println!(
        "mode                     : {}",
        if fast { "fast" } else { "full" }
    );
    println!(
        "{:<14} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "fleet", "sessions", "requests", "req/s", "p50", "p99"
    );
    for run in &runs {
        println!(
            "{:<14} {:>9} {:>10} {:>12.0} {:>12} {:>12}",
            run.label,
            run.sessions,
            run.requests,
            run.reqs_per_sec,
            format!("{:?}", run.p50),
            format!("{:?}", run.p99),
        );
    }
    println!("(threaded_16: one session per socket, latency per request; evloop_*: multiplexed sessions, latency per pipelined batch)");

    write_json(&runs);

    // The headline claim, asserted only under full measurement runs:
    // 1024 multiplexed sessions must beat the 16-thread ceiling by 2x.
    if !fast {
        let threaded = runs
            .iter()
            .find(|r| r.label == "threaded_16")
            .expect("baseline run");
        let evloop = runs
            .iter()
            .find(|r| r.label == "evloop_1024")
            .expect("1024-session fleet");
        assert!(
            evloop.reqs_per_sec >= 2.0 * threaded.reqs_per_sec,
            "evloop_1024 ({:.0} req/s) must be at least 2x threaded_16 ({:.0} req/s)",
            evloop.reqs_per_sec,
            threaded.reqs_per_sec
        );
        println!(
            "speedup at 1024 sessions : {:.1}x over the 16-socket baseline",
            evloop.reqs_per_sec / threaded.reqs_per_sec
        );
    }
}
