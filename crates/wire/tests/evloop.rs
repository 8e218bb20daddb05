//! Session state machine integration tests: plain clients, multiplexed
//! channels, the graduated load-shed ladder (with exact stats
//! reconciliation), head-of-line isolation under a slow reader, and
//! the client deadline regression.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd_wire::{
    ClientConfig, Envelope, ErrorCode, MuxClient, Reply, WireClient, WireConfig, WireError,
    WireServer, WireService, WireSession, VERSION,
};

/// Echoes the body back; endpoint 0xE0 reverses, 0xEE errors, 0xF0
/// returns the session token, 0xFF ends the session.
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

/// The plain (non-mux) client on the multiplexing server:
/// echo, typed app errors that leave the session usable, the token
/// path, and the end-session reply that hangs up after sending.
#[test]
fn plain_client_rides_the_event_loop_unchanged() {
    let handle = start_echo(WireConfig::default());
    let mut client =
        WireClient::connect(handle.addr(), &ClientConfig::with_token("acme")).expect("connect");
    assert_eq!(client.call(0x01, b"hello").unwrap(), b"hello");
    assert_eq!(client.call(0xE0, b"abc").unwrap(), b"cba");
    assert_eq!(client.call(0xF0, b"").unwrap(), b"acme");
    match client.call(0xEE, b"x") {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::App),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert_eq!(client.call(0x01, b"still alive").unwrap(), b"still alive");
    assert_eq!(client.call(0xFF, b"").unwrap(), b"");
    // The server hung up; the next call fails rather than hanging.
    assert!(client.call(0x01, b"late").is_err());
    handle.shutdown().unwrap();
}

/// Many logical sessions multiplexed over one socket: every channel
/// echoes independently, batches pipeline correctly, and the server's
/// counters reconcile exactly with the client's.
#[test]
fn mux_channels_echo_independently_and_stats_reconcile() {
    let handle = start_echo(WireConfig::default());
    let mut client =
        MuxClient::connect(handle.addr(), &ClientConfig::with_token("acme")).expect("connect");
    let channels: Vec<u32> = client
        .open_many(32, Some("acme"), false)
        .expect("open batch")
        .into_iter()
        .map(|c| c.expect("channel opens"))
        .collect();
    assert_eq!(channels.len(), 32);
    // One logical session per channel, plus the connection's implicit
    // channel-0 session.
    assert_eq!(handle.stats().sessions_opened(), 33);

    // Three pipelined rounds: each channel gets a distinct body so a
    // cross-channel mixup cannot cancel out.
    for round in 0..3u32 {
        let calls: Vec<(u32, u16, Vec<u8>)> = channels
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let body = format!("round {round} lane {i}").into_bytes();
                let endpoint = if i % 2 == 0 { 0x01 } else { 0xE0 };
                (ch, endpoint, body)
            })
            .collect();
        let answers = client.call_batch(&calls).expect("batch");
        for (i, answer) in answers.into_iter().enumerate() {
            let mut expect = format!("round {round} lane {i}").into_bytes();
            if i % 2 == 1 {
                expect.reverse();
            }
            assert_eq!(answer.expect("echo ok"), expect, "lane {i} differs");
        }
    }
    // A typed error on one channel leaves every channel usable.
    match client.call(channels[3], 0xEE, b"x") {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::App),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert_eq!(client.call(channels[3], 0x01, b"alive").unwrap(), b"alive");

    let client_totals = client.stats().totals();
    let server_totals = handle.stats().totals();
    assert_eq!(server_totals.requests, client_totals.requests);
    assert_eq!(server_totals.bytes_in, client_totals.bytes_in);
    assert_eq!(server_totals.bytes_out, client_totals.bytes_out);
    assert_eq!(server_totals.errors, client_totals.errors);

    // Closing channels frees registry slots while the socket stays up.
    for &ch in &channels {
        client.close_channel(ch).expect("close channel");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active_sessions(), 1, "channels never drained");
    // The freed channel is gone: the server answers with a typed
    // protocol error rather than silence.
    match client.call(channels[0], 0x01, b"stale") {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error on closed channel, got {other:?}"),
    }
    client.close();
    handle.shutdown().unwrap();
}

/// A session ending its own reply (`Reply::end`) on a mux channel
/// frees that channel but keeps the connection and its siblings alive.
#[test]
fn end_session_on_a_channel_leaves_the_connection_usable() {
    let handle = start_echo(WireConfig::default());
    let mut client = MuxClient::connect(handle.addr(), &ClientConfig::default()).expect("connect");
    let a = client.open(None, false).expect("open a");
    let b = client.open(None, false).expect("open b");
    assert_eq!(client.call(a, 0xFF, b"").unwrap(), b"");
    // Channel `a` is gone; `b` and the connection still work.
    assert_eq!(client.call(b, 0x01, b"sibling").unwrap(), b"sibling");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() > 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active_sessions(), 2);
    client.close();
    handle.shutdown().unwrap();
}

/// The graduated ladder under a deliberately tiny config: accepts,
/// then queued admissions, then low-priority sheds, then hard Busy —
/// and every counter reconciles exactly with what the client saw.
#[test]
fn load_shed_ladder_reconciles_exactly() {
    let config = WireConfig {
        max_sessions: 8,
        queue_sessions: 2,
        shed_sessions: 4,
        ..WireConfig::default()
    };
    let handle = start_echo(config);
    let stats = handle.stats();
    let mut client = MuxClient::connect(handle.addr(), &ClientConfig::default()).expect("connect");
    // The hello session occupies slot 1 below the queue tier.
    assert_eq!(stats.sessions_queued(), 0);

    let mut opened = Vec::new();
    let mut shed = 0u64;
    let mut busy = 0u64;
    // Low-priority opens, one at a time so tier boundaries are exact:
    // active starts at 1 (hello). Opens at active 1 accept; 2 and 3
    // queue; from 4 on, low-priority is shed without consuming a slot.
    for _ in 0..6 {
        match client.open(None, true) {
            Ok(ch) => opened.push(ch),
            Err(WireError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::Shed, "unexpected refusal: {message}");
                shed += 1;
            }
            Err(other) => panic!("transport failure: {other:?}"),
        }
    }
    assert_eq!(opened.len(), 3, "accept + two queued admissions");
    assert_eq!(shed, 3, "every open above the shed tier is shed");

    // High-priority opens sail past the shed tier up to the hard cap.
    let mut high = Vec::new();
    for _ in 0..6 {
        match client.open(None, false) {
            Ok(ch) => high.push(ch),
            Err(WireError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::Busy);
                busy += 1;
            }
            Err(other) => panic!("transport failure: {other:?}"),
        }
    }
    assert_eq!(high.len(), 4, "active 4..=7 admit high-priority opens");
    assert_eq!(busy, 2, "the hard cap refuses with Busy");

    // Exact reconciliation: the server counted precisely what the
    // client observed, tier by tier.
    assert_eq!(stats.sessions_shed(), shed);
    assert_eq!(stats.sessions_refused(), busy);
    // Queued admissions: opens that landed while active >= queue tier —
    // two low-priority plus all four high-priority ones.
    assert_eq!(stats.sessions_queued(), 6);
    assert_eq!(
        stats.sessions_opened(),
        1 + opened.len() as u64 + high.len() as u64
    );

    // A shed refusal is per-open, not per-connection: every admitted
    // channel still round-trips.
    for &ch in opened.iter().chain(&high) {
        assert_eq!(client.call(ch, 0x01, b"ok").unwrap(), b"ok");
    }
    client.close();
    handle.shutdown().unwrap();
}

/// A connection that stops reading its responses must not stall other
/// connections: its blocked reply write holds only its own thread, and
/// everyone else is served promptly.
#[test]
fn slow_reader_does_not_stall_other_connections() {
    let handle = start_echo(WireConfig::default());
    let addr = handle.addr();

    // The slow reader: a real handshake, then a pile of large echo
    // requests with no reads. Its responses jam its output queue.
    let slow = std::net::TcpStream::connect(addr).expect("connect slow");
    slow.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let hello = Envelope::Hello {
        version: VERSION,
        max_frame: 1 << 20,
        token: None,
    }
    .encode();
    let mut frame = (hello.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&hello);
    (&slow).write_all(&frame).unwrap();
    let mut header = [0u8; 4];
    (&slow).read_exact(&mut header).unwrap();
    let mut ack = vec![0u8; u32::from_le_bytes(header) as usize];
    (&slow).read_exact(&mut ack).unwrap();
    assert!(matches!(
        Envelope::decode(&ack),
        Ok(Envelope::HelloAck { .. })
    ));
    let body = vec![0xABu8; 16 << 10];
    for id in 1..=64u64 {
        let request = Envelope::Request {
            id,
            endpoint: 0x01,
            body: body.clone(),
        }
        .encode();
        let mut frame = (request.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&request);
        // Stop once the kernel buffers fill: the server's write blocks.
        if (&slow).write_all(&frame).is_err() {
            break;
        }
    }

    // A healthy client round-trips promptly throughout. The read
    // timeout is the assertion: a stalled server would blow it.
    let healthy_config = ClientConfig {
        read_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let mut client = WireClient::connect(addr, &healthy_config).expect("connect healthy");
    for i in 0..50u32 {
        let body = i.to_le_bytes();
        assert_eq!(client.call(0x01, &body).expect("prompt echo"), body);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "healthy session took {:?} behind a slow reader",
        started.elapsed()
    );
    client.close();
    drop(slow);
    handle.shutdown().unwrap();
}

/// Regression: a server that acks the handshake and then goes silent
/// must trip the client's read deadline once, on time — not re-arm the
/// socket timeout forever.
#[test]
fn stalled_server_trips_the_read_deadline_on_time() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        // Complete the handshake…
        let mut header = [0u8; 4];
        socket.read_exact(&mut header).unwrap();
        let mut hello = vec![0u8; u32::from_le_bytes(header) as usize];
        socket.read_exact(&mut hello).unwrap();
        let ack = Envelope::HelloAck {
            session: 1,
            max_frame: 1 << 20,
        }
        .encode();
        let mut frame = (ack.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&ack);
        socket.write_all(&frame).unwrap();
        // …swallow the request, then stall until the client hangs up.
        socket.read_exact(&mut header).unwrap();
        let mut request = vec![0u8; u32::from_le_bytes(header) as usize];
        socket.read_exact(&mut request).unwrap();
        let mut sink = [0u8; 16];
        let _ = socket.read(&mut sink);
    });

    let config = ClientConfig {
        read_timeout: Duration::from_millis(100),
        ..ClientConfig::default()
    };
    let mut client = WireClient::connect(addr, &config).expect("connect");
    let started = Instant::now();
    let outcome = client.call(0x01, b"into the void");
    let elapsed = started.elapsed();
    assert!(
        matches!(outcome, Err(WireError::Deadline { .. })),
        "expected a deadline error, got {outcome:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline fired after {elapsed:?}; the budget was 100ms"
    );
    drop(client);
    stall.join().unwrap();
}
