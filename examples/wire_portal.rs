//! The vendor portal as a network service — the paper's web-server
//! delivery (§1.1) on a real socket, sharing one framed transport
//! (`ipd-wire`) with the Figure 4 co-simulation stack.
//!
//! A `DeliveryService` wraps the `AppletServer` behind a concurrent
//! wire server; customers authenticate with their id at the handshake
//! and drive the same flows as in-process: manifest, HTTP-304-style
//! conditional fetch (`AppletHost::sync_wire`), lint reports, and a
//! lint-gated design sealed to their license key. Both sides keep
//! per-endpoint traffic counters that reconcile exactly.
//!
//! Run with: `cargo run --example wire_portal`

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ipd::core::{
    bundle_key, unseal, AppletHost, AppletServer, CapabilitySet, CoreError, DeliveryClient,
    DeliveryService,
};
use ipd::hdl::Circuit;
use ipd::lint::LintConfig;
use ipd::modgen::KcmMultiplier;
use ipd::wire::{WireConfig, WireError};

const VENDOR_KEY: &[u8] = b"vendor-signing-key";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // == The vendor side: enroll customers, register a design, serve ==
    let mut server = AppletServer::new("byu", VENDOR_KEY.to_vec());
    server.enroll(
        "browsing-bob",
        "virtex-kcm",
        CapabilitySet::passive(),
        0,
        90,
    );
    server.enroll(
        "evaluating-eve",
        "virtex-kcm",
        CapabilitySet::evaluation(),
        0,
        90,
    );
    let lucy_license = server.enroll(
        "licensed-lucy",
        "virtex-kcm",
        CapabilitySet::licensed(),
        0,
        365,
    );
    server.enroll("expired-ed", "virtex-kcm", CapabilitySet::licensed(), 0, 5);

    let kcm = Circuit::from_generator(&KcmMultiplier::new(-56, 8, 12).signed(true))?;
    let service = Arc::new(DeliveryService::new(server, VENDOR_KEY.to_vec()));
    service.register_design("virtex-kcm", kcm, LintConfig::default());
    let running = service.serve(WireConfig::default())?;
    let addr = running.addr();
    println!("vendor portal listening on {addr}\n");

    // == Three customers arrive concurrently, each an authenticated
    // session doing a cold sync then a warm revisit ==
    let mut visitors = Vec::new();
    for customer in ["browsing-bob", "evaluating-eve", "licensed-lucy"] {
        visitors.push(thread::spawn(move || {
            let mut client = DeliveryClient::connect(addr, customer)?;
            let manifest = client.manifest(10)?;
            let mut browser = AppletHost::new();
            let first = browser.sync_wire(&mut client, 10)?;
            let revisit = browser.sync_wire(&mut client, 11)?;
            client.close();
            Ok::<_, CoreError>((customer, manifest.entries().len(), first, revisit))
        }));
    }
    for visitor in visitors {
        let (customer, bundles, first, revisit) = visitor.join().expect("visitor thread")?;
        println!(
            "{customer:<16} {bundles} bundles; cold sync {} kB, revisit {revisit} bytes (304s)",
            first.div_ceil(1024)
        );
    }

    // == Lucy audits the design, then takes delivery of the sealed
    // netlist — lint gate and license seal, over the wire ==
    println!("\n== licensed-lucy fetches the lint-gated design ==");
    let mut lucy = DeliveryClient::connect(addr, "licensed-lucy")?;
    let report = lucy.lint_report(20, "virtex-kcm")?;
    println!(
        "lint report : {} ({} errors)",
        report.summary, report.errors
    );
    let sealed = lucy.sealed_design(20, "virtex-kcm")?;
    let key = bundle_key(VENDOR_KEY, &lucy_license);
    let edif = unseal(&sealed.bytes, &key)?;
    println!(
        "sealed EDIF : {} bytes sealed -> {} bytes of netlist after unsealing with lucy's license key",
        sealed.bytes.len(),
        edif.len()
    );
    lucy.close();

    // == The refusals: no profile fails the handshake, an expired
    // license fails per request with a typed unauthorized frame ==
    println!("\n== refusals ==");
    match DeliveryClient::connect(addr, "mallory") {
        Err(CoreError::Wire(WireError::Remote { code, message })) => {
            println!("mallory     : refused at handshake [{code:?}] {message}");
        }
        other => println!("mallory     : unexpected {other:?}"),
    }
    let mut ed = DeliveryClient::connect(addr, "expired-ed")?;
    match ed.manifest(100) {
        Err(CoreError::Wire(WireError::Remote { code, message })) => {
            println!("expired-ed  : admitted, then refused per request [{code:?}] {message}");
        }
        other => println!("expired-ed  : unexpected {other:?}"),
    }
    ed.close();

    // == The vendor's view: per-endpoint traffic and the audit log ==
    // `close` returns before the server has ended the session, so wait,
    // bounded, until every session has ended: the report then reads the
    // same on every run.
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.active_sessions() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    println!("\n== wire traffic (vendor side) ==");
    print!("{}", running.traffic_report());

    let service = running.shutdown()?;
    println!("\n== audit log ==");
    // The concurrent visitors' records interleave in thread order; a
    // stable sort by (day, customer) keeps each customer's own order.
    let mut log = service.audit_log();
    log.sort_by(|a, b| (a.day, &a.customer).cmp(&(b.day, &b.customer)));
    for record in log {
        println!(
            "  day {:>3}  {:<16} {}",
            record.day, record.customer, record.outcome
        );
    }
    Ok(())
}
