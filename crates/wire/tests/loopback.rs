//! Loopback integration tests for the wire layer itself: echo
//! round-trips, concurrency, the session and connection caps, the idle
//! and frame deadlines, malformed-frame floods, and property tests over
//! mutated frames.

use std::io::Read as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd_testutil::XorShift64;
use ipd_wire::{
    read_frame, write_frame, ClientConfig, Envelope, ErrorCode, Reply, WireClient, WireConfig,
    WireError, WireServer, WireService, WireSession, VERSION,
};

/// Echoes the body back; endpoint 0xE0 reverses, 0xEE errors, 0xFF
/// ends the session.
struct EchoService;

struct EchoSession {
    customer: Option<String>,
}

impl WireService for EchoService {
    fn open_session(
        &self,
        _peer: SocketAddr,
        token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        if token == Some("banned") {
            return Err(WireError::Remote {
                code: ErrorCode::Unauthorized,
                message: "no license".to_owned(),
            });
        }
        Ok(Box::new(EchoSession {
            customer: token.map(str::to_owned),
        }))
    }
}

impl WireSession for EchoSession {
    fn handle(&mut self, endpoint: u16, body: &[u8]) -> Result<Reply, WireError> {
        match endpoint {
            0xE0 => {
                let mut reversed = body.to_vec();
                reversed.reverse();
                Ok(Reply::body(reversed))
            }
            0xEE => Err(WireError::app("requested failure")),
            0xF0 => Ok(Reply::body(
                self.customer.clone().unwrap_or_default().into_bytes(),
            )),
            0xFF => Ok(Reply::end(Vec::new())),
            _ => Ok(Reply::body(body.to_vec())),
        }
    }
}

fn start_echo(config: WireConfig) -> ipd_wire::ServerHandle {
    WireServer::bind(config)
        .expect("bind")
        .start(Arc::new(EchoService))
}

#[test]
fn echo_round_trip_and_typed_errors() {
    let handle = start_echo(WireConfig::default());
    let mut client = WireClient::connect(handle.addr(), &ClientConfig::default()).expect("connect");
    assert_eq!(client.call(0x01, b"hello").unwrap(), b"hello");
    assert_eq!(client.call(0xE0, b"abc").unwrap(), b"cba");
    // A typed app error leaves the session usable.
    match client.call(0xEE, b"x") {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::App);
            assert!(message.contains("requested failure"));
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    assert_eq!(client.call(0x01, b"still alive").unwrap(), b"still alive");
    client.close();
    handle.shutdown().unwrap();
}

#[test]
fn auth_token_reaches_the_service_and_refusals_are_typed() {
    let handle = start_echo(WireConfig::default());
    let mut client =
        WireClient::connect(handle.addr(), &ClientConfig::with_token("acme")).expect("connect");
    assert_eq!(client.call(0xF0, b"").unwrap(), b"acme");
    match WireClient::connect(handle.addr(), &ClientConfig::with_token("banned")) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("expected unauthorized refusal, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn sixteen_concurrent_sessions_echo_correctly_and_stats_reconcile() {
    let handle = start_echo(WireConfig::default());
    let addr = handle.addr();
    let workers: Vec<_> = (0..16u64)
        .map(|lane| {
            std::thread::spawn(move || {
                let mut rng = XorShift64::new(0xC0FFEE ^ lane);
                let mut client =
                    WireClient::connect(addr, &ClientConfig::default()).expect("connect");
                for _ in 0..20 {
                    let len = rng.below(512) as usize;
                    let body = rng.bytes(len);
                    let mut expect = body.clone();
                    let endpoint = if rng.bool() { 0x01 } else { 0xE0 };
                    if endpoint == 0xE0 {
                        expect.reverse();
                    }
                    assert_eq!(client.call(endpoint, &body).unwrap(), expect);
                }
                let totals = client.stats().totals();
                client.close();
                totals
            })
        })
        .collect();
    let mut client_requests = 0u64;
    let mut client_bytes_in = 0u64;
    let mut client_bytes_out = 0u64;
    for worker in workers {
        let totals = worker.join().expect("worker");
        client_requests += totals.requests;
        client_bytes_in += totals.bytes_in;
        client_bytes_out += totals.bytes_out;
    }
    // Let the server finish recording the final requests.
    let stats = handle.stats();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stats.totals().requests < client_requests && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let server = stats.totals();
    assert_eq!(server.requests, client_requests);
    assert_eq!(server.bytes_in, client_bytes_in);
    assert_eq!(server.bytes_out, client_bytes_out);
    assert_eq!(server.errors, 0);
    assert_eq!(stats.sessions_opened(), 16);
    handle.shutdown().unwrap();
}

#[test]
fn session_cap_refuses_with_busy_and_frees_up() {
    let config = WireConfig {
        max_sessions: 2,
        ..WireConfig::default()
    };
    let handle = start_echo(config);
    let mut a = WireClient::connect(handle.addr(), &ClientConfig::default()).expect("a");
    let b = WireClient::connect(handle.addr(), &ClientConfig::default()).expect("b");
    // Make sure both sessions are registered before probing the cap.
    assert_eq!(a.call(0x01, b"warm").unwrap(), b"warm");
    match WireClient::connect(handle.addr(), &ClientConfig::default()) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected busy refusal, got {other:?}"),
    }
    assert!(handle.stats().sessions_refused() >= 1);
    drop(b);
    // A freed slot admits a new session (registry drains asynchronously).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let admitted = loop {
        match WireClient::connect(handle.addr(), &ClientConfig::default()) {
            Ok(client) => break Some(client),
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(_) => break None,
        }
    };
    assert!(admitted.is_some(), "slot never freed");
    handle.shutdown().unwrap();
}

#[test]
fn malformed_floods_do_not_stall_healthy_sessions() {
    use std::io::Write as _;
    let handle = start_echo(WireConfig::default());
    let addr = handle.addr();
    // A healthy client working throughout the flood.
    let good = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr, &ClientConfig::default()).expect("connect");
        for i in 0..50u32 {
            let body = i.to_le_bytes();
            assert_eq!(client.call(0x01, &body).unwrap(), body);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        client.close();
    });
    let mut rng = XorShift64::new(0xBAD);
    for round in 0..30 {
        let mut socket = std::net::TcpStream::connect(addr).expect("connect");
        match round % 3 {
            0 => {
                // Hostile length prefix: declares 4 GiB.
                let _ = socket.write_all(&u32::MAX.to_le_bytes());
            }
            1 => {
                // Random garbage of random length.
                let len = 1 + rng.below(64) as usize;
                let junk = rng.bytes(len);
                let _ = socket.write_all(&junk);
            }
            _ => {
                // A truncated frame: header promises more than is sent.
                let _ = socket.write_all(&100u32.to_le_bytes());
                let _ = socket.write_all(&[1, 2, 3]);
            }
        }
        drop(socket);
    }
    good.join().expect("healthy client survived the flood");
    handle.shutdown().unwrap();
}

#[test]
fn property_mutated_hello_frames_never_panic_the_server() {
    use std::io::Write as _;
    let handle = start_echo(WireConfig::default());
    let addr = handle.addr();
    let hello = ipd_wire::Envelope::Hello {
        version: ipd_wire::VERSION,
        max_frame: 4096,
        token: Some("acme".to_owned()),
    }
    .encode();
    ipd_testutil::check_n("mutated hello frames", 60, |rng| {
        let mut frame = Vec::new();
        ipd_wire::write_frame(&mut frame, &hello, 4096).expect("encode");
        match rng.below(3) {
            0 => {
                // Bit flip anywhere in the frame.
                let i = rng.index(frame.len());
                frame[i] ^= 1 << rng.below(8);
            }
            1 => {
                // Truncate.
                let keep = rng.index(frame.len());
                frame.truncate(keep);
            }
            _ => {
                // Append trailing garbage.
                let len = 1 + rng.below(16) as usize;
                let junk = rng.bytes(len);
                frame.extend_from_slice(&junk);
            }
        }
        let mut socket = std::net::TcpStream::connect(addr).expect("connect");
        let _ = socket.write_all(&frame);
        drop(socket);
        // The server survives if a fresh, healthy session still works.
        let mut client = WireClient::connect(addr, &ClientConfig::default()).expect("reconnect");
        assert_eq!(client.call(0x01, b"ping").expect("server alive"), b"ping");
    });
    handle.shutdown().unwrap();
}

#[test]
fn end_session_reply_closes_after_sending() {
    let handle = start_echo(WireConfig::default());
    let mut client = WireClient::connect(handle.addr(), &ClientConfig::default()).expect("connect");
    assert_eq!(client.call(0xFF, b"").unwrap(), b"");
    // The server hung up; the next call fails rather than hanging.
    assert!(client.call(0x01, b"late").is_err());
    handle.shutdown().unwrap();
}

#[test]
fn serve_next_handles_exactly_one_connection() {
    let server = WireServer::bind(WireConfig::default()).expect("bind");
    let addr = server.addr();
    let worker = std::thread::spawn(move || {
        server.serve_next(&EchoService).expect("serve one");
        server
    });
    let mut client = WireClient::connect(addr, &ClientConfig::default()).expect("connect");
    assert_eq!(client.call(0x01, b"one-shot").unwrap(), b"one-shot");
    client.close();
    let server = worker.join().expect("server thread");
    assert_eq!(server.stats().totals().requests, 1);
    assert_eq!(server.registry().sessions_served(), 1);
}

#[test]
fn shutdown_interrupts_idle_sessions() {
    let handle = start_echo(WireConfig::default());
    let mut client = WireClient::connect(handle.addr(), &ClientConfig::default()).expect("connect");
    assert_eq!(client.call(0x01, b"x").unwrap(), b"x");
    // Shutdown while the session sits idle: must not hang on join.
    handle.shutdown().unwrap();
}

/// Completes the hello handshake on a raw socket.
fn raw_hello(addr: SocketAddr) -> TcpStream {
    let socket = TcpStream::connect(addr).expect("connect");
    let hello = Envelope::Hello {
        version: VERSION,
        max_frame: 1 << 20,
        token: None,
    };
    write_frame(&socket, &hello.encode(), 1 << 20).expect("send hello");
    let ack = read_frame(&socket, 1 << 20).expect("hello ack");
    assert!(matches!(
        Envelope::decode(&ack),
        Ok(Envelope::HelloAck { .. })
    ));
    socket
}

/// How long a raw socket that sends nothing more waits for the server
/// to close it; panics if the server sends anything instead.
fn time_to_close(socket: &TcpStream) -> Duration {
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut sink = [0u8; 64];
    let read = (&*socket).read(&mut sink);
    assert!(
        matches!(read, Ok(0)),
        "expected a quiet close, got {read:?}"
    );
    started.elapsed()
}

/// Waits until the server has released every session.
fn drained(handle: &ipd_wire::ServerHandle) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.active_sessions() == 0
}

#[test]
fn silent_session_is_closed_after_idle_timeout() {
    let idle = Duration::from_millis(300);
    let handle = start_echo(WireConfig {
        idle_timeout: idle,
        poll_interval: Duration::from_millis(5),
        ..WireConfig::default()
    });
    let socket = raw_hello(handle.addr());
    let waited = time_to_close(&socket);
    assert!(
        waited >= idle / 2 && waited < Duration::from_secs(5),
        "closed after {waited:?} against a {idle:?} idle deadline"
    );
    assert!(drained(&handle), "the idle session was never released");
    assert_eq!(
        handle.stats().protocol_errors(),
        0,
        "an idle peer is no error"
    );
    handle.shutdown().unwrap();
}

#[test]
fn half_frame_is_closed_after_frame_timeout() {
    let frame = Duration::from_millis(300);
    let handle = start_echo(WireConfig {
        frame_timeout: frame,
        poll_interval: Duration::from_millis(5),
        ..WireConfig::default()
    });
    let mut socket = raw_hello(handle.addr());
    // A header promising 100 body bytes, then 10 of them.
    std::io::Write::write_all(&mut socket, &100u32.to_le_bytes()).unwrap();
    std::io::Write::write_all(&mut socket, &[7u8; 10]).unwrap();
    let waited = time_to_close(&socket);
    // Well inside the 30 s idle deadline: the frame deadline closed it.
    assert!(
        waited >= frame / 2 && waited < Duration::from_secs(5),
        "closed after {waited:?} against a {frame:?} frame deadline"
    );
    assert!(drained(&handle), "the stalled session was never released");
    handle.shutdown().unwrap();
}

#[test]
fn clean_eof_between_frames_ends_the_session_quietly() {
    let handle = start_echo(WireConfig::default());
    let socket = raw_hello(handle.addr());
    let request = Envelope::Request {
        id: 1,
        endpoint: 0x01,
        body: b"last words".to_vec(),
    };
    write_frame(&socket, &request.encode(), 1 << 20).unwrap();
    let response = read_frame(&socket, 1 << 20).unwrap();
    assert!(matches!(
        Envelope::decode(&response),
        Ok(Envelope::Response { id: 1, .. })
    ));
    // Hang up between frames, without a goodbye.
    socket.shutdown(Shutdown::Write).unwrap();
    time_to_close(&socket);
    assert!(drained(&handle), "the session was never released");
    let stats = handle.stats();
    assert_eq!(stats.protocol_errors(), 0, "a clean EOF is no error");
    assert_eq!(stats.totals().requests, 1);
    assert_eq!(stats.totals().errors, 0);
    assert_eq!(handle.registry().sessions_served(), 1);
    handle.shutdown().unwrap();
}

#[test]
fn connection_cap_refuses_sockets_that_never_say_hello() {
    let handle = start_echo(WireConfig {
        max_sessions: 2,
        ..WireConfig::default()
    });
    // Two sockets hold a connection thread each without ever saying
    // hello, so no session is registered for them.
    let _silent: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    let third = TcpStream::connect(handle.addr()).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let refusal = read_frame(&third, 1 << 20).expect("refused at once");
    match Envelope::decode(&refusal) {
        Ok(Envelope::Error { id: 0, code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected a busy refusal, got {other:?}"),
    }
    assert_eq!(handle.stats().sessions_refused(), 1);
    assert_eq!(handle.active_sessions(), 0);
    handle.shutdown().unwrap();
}
