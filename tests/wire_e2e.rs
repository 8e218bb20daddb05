//! Cross-crate wire integration: the delivery stack and the
//! co-simulation stack sharing one framed transport, exercised by
//! concurrent clients on real loopback sockets.
//!
//! The invariants under test:
//!
//! - Everything served over the wire is **bit-identical** to the
//!   in-process path (manifests, bundle payloads, batch-simulation
//!   outputs).
//! - Per-endpoint [`WireStats`] reconcile exactly: server totals equal
//!   the sum of client-observed totals.
//! - Hostile peers — truncated frames, flipped bits, oversized length
//!   prefixes — neither panic the servers nor stall healthy sessions,
//!   and a lying *server* cannot make a client over-allocate either.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;

use ipd::core::{
    delivery_endpoints, AppletHost, AppletServer, CapabilitySet, DeliveryClient, DeliveryService,
    Digest,
};
use ipd::cosim::{BlackBoxClient, BlackBoxServer, LocalSimModel, SimModel, TcpTransport};
use ipd::hdl::{Circuit, LogicVec};
use ipd::modgen::KcmMultiplier;
use ipd::wire::{
    codec, ClientConfig, Envelope, WireClient, WireConfig, WireError, WireStats, VERSION,
};
use ipd_testutil::{check_n, XorShift64};

fn vendor() -> AppletServer {
    let mut server = AppletServer::new("byu", b"e2e-vendor-key".to_vec());
    server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
    server
}

fn kcm_circuit() -> Circuit {
    Circuit::from_generator(&KcmMultiplier::new(-56, 8, 14).signed(true)).unwrap()
}

fn batch_inputs(seed: u64) -> Vec<(String, Vec<LogicVec>)> {
    let mut rng = XorShift64::new(seed);
    let vectors: Vec<LogicVec> = (0..32)
        .map(|_| LogicVec::from_i64(rng.range_i64(-128, 127), 8))
        .collect();
    vec![("multiplicand".to_owned(), vectors)]
}

/// 16 concurrent sessions — half delivery, half co-simulation — each
/// comparing every wire response against the in-process baseline, then
/// both servers' stats reconciled against the clients' own counters.
#[test]
fn sixteen_mixed_sessions_bit_identical_and_stats_reconcile() {
    // In-process baselines, computed once.
    let mut local_vendor = vendor();
    let expected_manifest = local_vendor.manifest("acme", 30).unwrap();
    let expected_fetch = local_vendor.fetch("acme", 30, &[]).unwrap();
    let circuit = kcm_circuit();
    let mut local_model = LocalSimModel::new(&circuit).unwrap();
    let expected_outputs = local_model.run_batch(1, &batch_inputs(7)).unwrap();

    // The two wire servers.
    let service = Arc::new(DeliveryService::new(vendor(), b"e2e-vendor-key".to_vec()));
    let delivery = service.serve(WireConfig::default()).unwrap();
    let mut host = AppletHost::new();
    host.grant_network_permission();
    let cosim = BlackBoxServer::bind(&host)
        .unwrap()
        .start_cloning(LocalSimModel::new(&circuit).unwrap());

    let delivery_addr = delivery.addr();
    let cosim_addr = cosim.addr();
    let mut workers = Vec::new();
    for i in 0..16u64 {
        let expected_manifest = expected_manifest.clone();
        let expected_payloads: Vec<Vec<u8>> = expected_fetch
            .items()
            .iter()
            .filter_map(|item| match item {
                ipd::core::BundleDelivery::Payload { bytes, .. } => Some(bytes.to_vec()),
                ipd::core::BundleDelivery::NotModified { .. } => None,
            })
            .collect();
        let expected_outputs = expected_outputs.clone();
        workers.push(thread::spawn(move || -> Arc<WireStats> {
            if i % 2 == 0 {
                // Delivery customer: manifest, cold fetch, warm fetch.
                let mut client = DeliveryClient::connect(delivery_addr, "acme").unwrap();
                let manifest = client.manifest(30).unwrap();
                assert_eq!(manifest, expected_manifest, "session {i}: manifest differs");
                let cold = client.fetch(30, &[]).unwrap();
                let got: Vec<Vec<u8>> = cold
                    .items()
                    .iter()
                    .filter_map(|item| match item {
                        ipd::core::BundleDelivery::Payload { bytes, .. } => Some(bytes.to_vec()),
                        ipd::core::BundleDelivery::NotModified { .. } => None,
                    })
                    .collect();
                assert_eq!(got, expected_payloads, "session {i}: payload bytes differ");
                let have: Vec<Digest> = manifest.entries().iter().map(|e| e.digest).collect();
                let warm = client.fetch(31, &have).unwrap();
                assert_eq!(warm.delivered(), 0, "session {i}: warm fetch must be 304s");
                let stats = client.stats();
                client.close();
                stats
            } else {
                // Co-simulation customer: one batched sweep.
                let transport = TcpTransport::connect(cosim_addr).unwrap();
                let stats = transport.stats();
                let mut client = BlackBoxClient::over(transport);
                let outputs = client.run_batch(1, &batch_inputs(7)).unwrap();
                assert_eq!(
                    outputs, expected_outputs,
                    "session {i}: batch outputs differ"
                );
                client.close().unwrap();
                stats
            }
        }));
    }
    let client_stats: Vec<Arc<WireStats>> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Reconcile: each server's totals equal the sum over its clients.
    let sum = |stats: &[&Arc<WireStats>]| {
        stats.iter().fold((0u64, 0u64, 0u64), |acc, s| {
            let t = s.totals();
            (acc.0 + t.requests, acc.1 + t.bytes_in, acc.2 + t.bytes_out)
        })
    };
    let delivery_clients: Vec<&Arc<WireStats>> = client_stats.iter().step_by(2).collect();
    let cosim_clients: Vec<&Arc<WireStats>> = client_stats.iter().skip(1).step_by(2).collect();
    let d = delivery.stats().totals();
    assert_eq!(
        (d.requests, d.bytes_in, d.bytes_out),
        sum(&delivery_clients),
        "delivery stats must reconcile exactly"
    );
    let c = cosim.stats().totals();
    assert_eq!(
        (c.requests, c.bytes_in, c.bytes_out),
        sum(&cosim_clients),
        "cosim stats must reconcile exactly"
    );
    assert_eq!(delivery.stats().sessions_opened(), 8);
    assert_eq!(cosim.stats().sessions_opened(), 8);

    // One raw-frame manifest call, for byte-level identity with the
    // in-process manifest (decoded structs could mask an encoding
    // difference): product, entry count, then name, digest and packed
    // size per entry.
    let mut expected_bytes = Vec::new();
    codec::put_str(&mut expected_bytes, expected_manifest.product());
    codec::put_u16(
        &mut expected_bytes,
        expected_manifest.entries().len() as u16,
    );
    for entry in expected_manifest.entries() {
        codec::put_str(&mut expected_bytes, &entry.name);
        expected_bytes.extend_from_slice(&entry.digest);
        codec::put_u64(&mut expected_bytes, entry.packed_size as u64);
    }
    let mut raw = WireClient::connect(delivery_addr, &ClientConfig::with_token("acme")).unwrap();
    let manifest_bytes = raw
        .call(delivery_endpoints::MANIFEST, &30u32.to_le_bytes())
        .unwrap();
    raw.close();
    assert_eq!(manifest_bytes, expected_bytes, "manifest bytes differ");

    let service = delivery.shutdown().unwrap();
    assert!(service.audit_log().len() >= 24, "every request audited");
    cosim.shutdown().unwrap();
}

/// A flood of malformed connections — truncated hellos, flipped bits,
/// hostile length prefixes — while a healthy customer keeps syncing.
#[test]
fn malformed_floods_do_not_stall_the_delivery_server() {
    let service = Arc::new(DeliveryService::new(vendor(), b"e2e-vendor-key".to_vec()));
    // Snappy deadlines: a trickling attacker gets dropped fast, so the
    // flood (and this test) stays quick.
    let config = WireConfig {
        idle_timeout: std::time::Duration::from_millis(500),
        frame_timeout: std::time::Duration::from_millis(200),
        poll_interval: std::time::Duration::from_millis(5),
        ..WireConfig::default()
    };
    let running = service.serve(config).unwrap();
    let addr = running.addr();

    let flooder = thread::spawn(move || {
        let mut rng = XorShift64::new(0xF100D);
        for round in 0..40 {
            let Ok(mut socket) = std::net::TcpStream::connect(addr) else {
                continue;
            };
            let payload = match round % 4 {
                // A length prefix claiming ~4 GiB: must be refused
                // before any allocation.
                0 => u32::MAX.to_le_bytes().to_vec(),
                // A truncated frame: header promises more than sent.
                1 => {
                    let mut bytes = 64u32.to_le_bytes().to_vec();
                    bytes.extend_from_slice(b"short");
                    bytes
                }
                // A well-formed frame of garbage bytes.
                2 => {
                    let len = rng.below(256) as usize;
                    let body = rng.bytes(len);
                    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
                    bytes.extend_from_slice(&body);
                    bytes
                }
                // A valid hello with one bit flipped somewhere.
                _ => {
                    let hello = Envelope::Hello {
                        version: VERSION,
                        max_frame: 1 << 20,
                        token: Some("acme".to_owned()),
                    }
                    .encode();
                    let mut bytes = (hello.len() as u32).to_le_bytes().to_vec();
                    bytes.extend_from_slice(&hello);
                    let bit = rng.below(8 * bytes.len() as u64) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    bytes
                }
            };
            let _ = socket.write_all(&payload);
            let _ = socket.flush();
            // Half the flooders hang up instantly, half linger.
            if round % 2 == 0 {
                drop(socket);
            } else {
                let mut sink = [0u8; 64];
                let _ = socket.read(&mut sink);
            }
        }
    });

    // The healthy session proceeds to a complete, correct sync.
    let mut client = DeliveryClient::connect(addr, "acme").unwrap();
    let mut applet_host = AppletHost::new();
    let first = applet_host.sync_wire(&mut client, 30).unwrap();
    assert!(first > 0, "cold sync transfers payloads");
    let second = applet_host.sync_wire(&mut client, 31).unwrap();
    assert_eq!(second, 0, "warm sync is all 304s");
    client.close();
    flooder.join().unwrap();

    // Most flood rounds send bytes the server counts as protocol
    // errors (instant hang-ups can race the first read, so exact
    // counts are not guaranteed — but the flood must register).
    assert!(running.stats().protocol_errors() > 0);
    running.shutdown().unwrap();
}

/// Property: random mutations of a valid request frame never panic the
/// server, and the same session (when it survives) or a fresh one
/// still serves correct manifests afterwards.
#[test]
fn mutated_request_frames_never_break_the_service() {
    let service = Arc::new(DeliveryService::new(vendor(), b"e2e-vendor-key".to_vec()));
    let running = service.serve(WireConfig::default()).unwrap();
    let addr = running.addr();
    let expected = vendor().manifest("acme", 30).unwrap();

    check_n("mutated-request-frames", 25, |rng| {
        // Hand-rolled client: real handshake, then a mutated request.
        let mut socket = std::net::TcpStream::connect(addr).unwrap();
        let hello = Envelope::Hello {
            version: VERSION,
            max_frame: 1 << 20,
            token: Some("acme".to_owned()),
        }
        .encode();
        let mut frame = (hello.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&hello);
        socket.write_all(&frame).unwrap();
        let mut header = [0u8; 4];
        socket.read_exact(&mut header).unwrap();
        let mut ack = vec![0u8; u32::from_le_bytes(header) as usize];
        socket.read_exact(&mut ack).unwrap();
        assert!(
            matches!(Envelope::decode(&ack), Ok(Envelope::HelloAck { .. })),
            "handshake must succeed before the hostile request"
        );

        let request = Envelope::Request {
            id: 1,
            endpoint: 0x20,
            body: 30u32.to_le_bytes().to_vec(),
        }
        .encode();
        let mut frame = (request.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&request);
        match rng.below(3) {
            0 => {
                let bit = rng.below(8 * frame.len() as u64) as usize;
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            1 => {
                let keep = 1 + rng.below(frame.len() as u64 - 1) as usize;
                frame.truncate(keep);
            }
            _ => {
                let extra = 1 + rng.below(16) as usize;
                let garbage = rng.bytes(extra);
                frame.extend_from_slice(&garbage);
            }
        }
        let _ = socket.write_all(&frame);
        let _ = socket.flush();
        drop(socket);

        // The service keeps serving fresh sessions correctly.
        let mut client = DeliveryClient::connect(addr, "acme").unwrap();
        assert_eq!(client.manifest(30).unwrap(), expected);
        client.close();
    });

    running.shutdown().unwrap();
}

/// Client-side hardening: a lying server that acks the handshake and
/// then announces a multi-gigabyte response frame must get a protocol
/// error, not a multi-gigabyte allocation.
#[test]
fn client_rejects_hostile_server_length_prefix() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let evil = thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        // Read and discard the client's hello frame.
        let mut header = [0u8; 4];
        socket.read_exact(&mut header).unwrap();
        let mut hello = vec![0u8; u32::from_le_bytes(header) as usize];
        socket.read_exact(&mut hello).unwrap();
        // Ack politely…
        let ack = Envelope::HelloAck {
            session: 1,
            max_frame: 1 << 20,
        }
        .encode();
        let mut frame = (ack.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&ack);
        socket.write_all(&frame).unwrap();
        // …then read the request and answer with a hostile prefix.
        socket.read_exact(&mut header).unwrap();
        let mut request = vec![0u8; u32::from_le_bytes(header) as usize];
        socket.read_exact(&mut request).unwrap();
        socket.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let _ = socket.flush();
        // Hold the socket open so the client fails on the prefix, not
        // on a disconnect.
        let mut sink = [0u8; 16];
        let _ = socket.read(&mut sink);
    });

    let mut client = DeliveryClient::connect_with(addr, &ClientConfig::with_token("acme")).unwrap();
    let outcome = client.manifest(30);
    match outcome {
        Err(ipd::core::CoreError::Wire(WireError::Protocol { reason })) => {
            assert!(
                reason.contains("exceeds"),
                "must reject the length prefix itself, got: {reason}"
            );
        }
        other => panic!("expected a protocol error on the length prefix, got {other:?}"),
    }
    drop(client);
    evil.join().unwrap();
}
