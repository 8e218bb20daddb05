//! Lint-gated delivery: run the static analyzer the way a vendor does
//! before sealing a design for a customer.
//!
//! Run with: `cargo run --example lint_report`
//!
//! 1. A generator-built KCM lints clean — nothing to waive.
//! 2. A hand-built SR latch trips the combinational-loop rule, and the
//!    server refuses to seal it for delivery.
//! 3. An explicit, reasoned waiver lets the same design ship, with the
//!    waiver recorded in the report that accompanies the payload.

use ipd::core::{AppletServer, CapabilitySet, CoreError, SealPolicy};
use ipd::hdl::{Circuit, PortSpec, Primitive};
use ipd::lint::lint;
use ipd::modgen::KcmMultiplier;

/// A cross-coupled NOR latch: functional on purpose, but combinational
/// feedback — exactly what a lint waiver exists for.
fn sr_latch() -> Result<Circuit, ipd::hdl::HdlError> {
    let mut c = Circuit::new("latch");
    let mut ctx = c.root_ctx();
    let s = ctx.add_port(PortSpec::input("s", 1))?;
    let r = ctx.add_port(PortSpec::input("r", 1))?;
    let q = ctx.add_port(PortSpec::output("q", 1))?;
    let nq = ctx.wire("nq", 1);
    let ports = || {
        vec![
            PortSpec::input("i0", 1),
            PortSpec::input("i1", 1),
            PortSpec::output("o", 1),
        ]
    };
    ctx.leaf(
        Primitive::new("virtex", "nor2"),
        ports(),
        "n0",
        &[("i0", r.into()), ("i1", nq.into()), ("o", q.into())],
    )?;
    ctx.leaf(
        Primitive::new("virtex", "nor2"),
        ports(),
        "n1",
        &[("i0", s.into()), ("i1", q.into()), ("o", nq.into())],
    )?;
    Ok(c)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's KCM is clean out of the generator.
    let kcm = Circuit::from_generator(&KcmMultiplier::new(-56, 8, 12).signed(true))?;
    let report = lint(&kcm)?;
    println!("kcm: {}", report.summary());
    assert!(report.is_clean());

    // 2. The latch trips comb-loop, and delivery refuses it.
    let latch = sr_latch()?;
    println!("\nlatch, unwaived:");
    print!("{}", lint(&latch)?);

    let vendor_key = b"vendor-key".to_vec();
    let mut server = AppletServer::new("byu", vendor_key.clone());
    server.enroll("acme", "latch", CapabilitySet::licensed(), 0, 365);
    let strict = SealPolicy::default();
    match server.serve_design_sealed("acme", 10, &vendor_key, &latch, &strict) {
        Err(CoreError::LintRejected { errors, summary }) => {
            println!("\nrefused to seal: {errors} error(s) — {summary}");
        }
        other => panic!("expected a lint rejection, got {other:?}"),
    }

    // 3. With a reasoned waiver the same design ships, and the report
    //    that travels with it records what was excused and why.
    let mut waived = SealPolicy::default();
    waived.lint.waive(
        "comb-loop",
        "latch/n*",
        "cross-coupled latch is the product, reviewed 2026-08",
    );
    println!("\nlatch, waived:");
    print!("{}", waived.linter().run(&latch)?);
    let sealed = server.serve_design_sealed("acme", 11, &vendor_key, &latch, &waived)?;
    println!(
        "sealed {} bytes; shipped report: {}",
        sealed.bytes().len(),
        sealed.report().summary()
    );
    for record in server.audit_log() {
        println!("audit day {:>2}: {}", record.day, record.outcome);
    }
    Ok(())
}
