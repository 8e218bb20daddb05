//! Differential end-to-end test for multiplexed delivery sessions: a
//! [`MuxClient`] driving many logical sessions over one socket receives
//! byte-for-byte the same responses a plain [`WireClient`] gets for
//! the same requests — including the zero-copy packed segment path —
//! and the server's totals equal the sum of both clients' views.

use std::sync::Arc;

use ipd::core::{delivery_endpoints, AppletServer, CapabilitySet, DeliveryService, Digest};
use ipd::wire::{ClientConfig, MuxClient, WireClient, WireConfig};

fn vendor() -> AppletServer {
    let mut server = AppletServer::new("byu", b"e2e-vendor-key".to_vec());
    server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
    server
}

/// A mux client multiplexing 16 delivery sessions over one socket gets
/// byte-for-byte what a plain client gets — including the zero-copy
/// segment path — and the server's totals are exactly the sum of both
/// clients' counters.
#[test]
fn mux_sessions_match_plain_clients_byte_for_byte() {
    let service = Arc::new(DeliveryService::new(vendor(), b"e2e-vendor-key".to_vec()));
    let delivery = service.serve(WireConfig::default()).unwrap();
    let addr = delivery.addr();

    // In-process reference for the digests to request.
    let manifest = vendor().manifest("acme", 30).unwrap();
    let digests: Vec<Digest> = manifest.entries().iter().map(|e| e.digest).collect();
    assert!(!digests.is_empty(), "the evaluation set has bundles");

    let mut plain = WireClient::connect(addr, &ClientConfig::with_token("acme")).unwrap();
    let manifest_body = 30u32.to_le_bytes().to_vec();
    let plain_manifest = plain
        .call(delivery_endpoints::MANIFEST, &manifest_body)
        .unwrap();
    let segment_bodies: Vec<Vec<u8>> = digests
        .iter()
        .map(|digest| {
            let mut body = manifest_body.clone();
            body.extend_from_slice(digest);
            body
        })
        .collect();
    let plain_segments: Vec<Vec<u8>> = segment_bodies
        .iter()
        .map(|body| plain.call(delivery_endpoints::FETCH_SEGMENT, body).unwrap())
        .collect();

    let mut mux = MuxClient::connect(addr, &ClientConfig::with_token("acme")).unwrap();
    let channels: Vec<u32> = mux
        .open_many(16, Some("acme"), false)
        .unwrap()
        .into_iter()
        .map(|c| c.expect("channel opens"))
        .collect();
    // Every channel asks for the manifest and every segment, all
    // pipelined in one gathered write per round.
    let manifest_calls: Vec<(u32, u16, Vec<u8>)> = channels
        .iter()
        .map(|&ch| (ch, delivery_endpoints::MANIFEST, manifest_body.clone()))
        .collect();
    for answer in mux.call_batch(&manifest_calls).unwrap() {
        assert_eq!(answer.unwrap(), plain_manifest, "manifest bytes differ");
    }
    for (body, expect) in segment_bodies.iter().zip(&plain_segments) {
        let calls: Vec<(u32, u16, Vec<u8>)> = channels
            .iter()
            .map(|&ch| (ch, delivery_endpoints::FETCH_SEGMENT, body.clone()))
            .collect();
        for answer in mux.call_batch(&calls).unwrap() {
            assert_eq!(&answer.unwrap(), expect, "segment bytes differ");
        }
    }

    // Exact reconciliation across both client kinds.
    let p = plain.stats().totals();
    let m = mux.stats().totals();
    let s = delivery.stats().totals();
    assert_eq!(s.requests, p.requests + m.requests);
    assert_eq!(s.bytes_in, p.bytes_in + m.bytes_in);
    assert_eq!(s.bytes_out, p.bytes_out + m.bytes_out);
    // 16 mux channels + the mux hello session + the plain session.
    assert_eq!(delivery.stats().sessions_opened(), 18);

    plain.close();
    mux.close();
    let service = delivery.shutdown().unwrap();
    assert!(
        service
            .audit_log()
            .iter()
            .any(|r| r.outcome.contains("served segment")),
        "segment serves must be audited"
    );
}
