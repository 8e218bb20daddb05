//! The vendor portal — the paper's Figure 2: two (plus one) IP
//! executable configurations with different visibility, served per
//! customer profile, with licensing, metering and tamper rejection.
//!
//! Run with: `cargo run --example vendor_portal`

use ipd::core::{AppletHost, AppletServer, AppletSession, Capability, CapabilitySet, CoreError};
use ipd::modgen::KcmMultiplier;
use ipd::netlist::NetlistFormat;

fn kcm() -> Box<KcmMultiplier> {
    Box::new(KcmMultiplier::new(-56, 8, 12).signed(true))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut server = AppletServer::new("byu", b"vendor-signing-key".to_vec());

    // Three customer profiles with increasing visibility.
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
    server.enroll(
        "licensed-lucy",
        "virtex-kcm",
        CapabilitySet::licensed(),
        0,
        365,
    );

    for customer in ["browsing-bob", "evaluating-eve", "licensed-lucy"] {
        let executable = server.serve(customer, 10)?;
        println!("===== {customer} =====");
        println!("{executable}");
        let mut host = AppletHost::new();
        let bytes = host.load(&executable);
        println!("download: {} kB\n", bytes.div_ceil(1024));

        let mut session = AppletSession::new(&executable, &host, kcm());
        session.build()?;

        // What can this customer actually do?
        let attempt = |label: &str, result: Result<String, CoreError>| match result {
            Ok(out) => println!("  {label:<18} OK ({} bytes)", out.len()),
            Err(CoreError::CapabilityDenied { capability }) => {
                println!("  {label:<18} DENIED (needs {capability})");
            }
            Err(e) => println!("  {label:<18} error: {e}"),
        };
        attempt("estimate", session.estimate_area().map(|r| r.to_string()));
        attempt("schematic", session.schematic());
        attempt("layout", session.layout());
        attempt(
            "simulate",
            session
                .set_i64("multiplicand", 5)
                .and_then(|()| session.peek("product"))
                .map(|v| v.to_string()),
        );
        attempt("netlist", session.netlist(NetlistFormat::Edif));
        println!();
    }

    // An expired profile is refused and audited.
    server.enroll("expired-ed", "virtex-kcm", CapabilitySet::licensed(), 0, 5);
    match server.serve("expired-ed", 100) {
        Err(CoreError::LicenseExpired { expiry_day, today }) => {
            println!("expired-ed refused: license ended day {expiry_day}, today is {today}");
        }
        other => println!("unexpected: {other:?}"),
    }

    // A forged license (capability escalation) fails verification.
    let real = server.enroll(
        "forging-fred",
        "virtex-kcm",
        CapabilitySet::passive(),
        0,
        90,
    );
    println!("\nfred's real license:   {real}");
    println!(
        "fred upgrades himself… but the signature only covers [{}],",
        real.capabilities()
    );
    println!("so the authority rejects any altered capability bits (see ipd-core tests).");

    // Conditional delivery: the browser revalidates cached bundles by
    // content digest, so a repeat visit transfers nothing (HTTP-304
    // semantics over the compress-once bundle catalog).
    println!("\n== conditional delivery (licensed-lucy revisits) ==");
    let manifest = server.manifest("licensed-lucy", 11)?;
    println!(
        "manifest: {} bundles, {} kB packed",
        manifest.entries().len(),
        manifest.total_packed().div_ceil(1024)
    );
    let mut browser = AppletHost::new();
    let first = browser.sync(&mut server, "licensed-lucy", 11)?;
    let revisit = browser.sync(&mut server, "licensed-lucy", 12)?;
    println!("first visit : {} kB transferred", first.div_ceil(1024));
    println!("revisit     : {revisit} bytes transferred (all not-modified)");
    println!("store       : {}", server.store_stats());

    // Metering: the audit log is the paper's hardware-metering analog.
    println!("\n== vendor audit log ==");
    for record in server.audit_log() {
        println!(
            "  day {:>3}  {:<availability$}  {}",
            record.day,
            record.customer,
            record.outcome,
            availability = 16
        );
    }
    println!(
        "\nnetlist capability granted to {} of {} served applets",
        server
            .audit_log()
            .iter()
            .filter(|r| r.outcome.contains(&Capability::Netlist.to_string()))
            .count(),
        server.audit_log().len()
    );
    Ok(())
}
