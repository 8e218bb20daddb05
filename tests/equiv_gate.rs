//! The golden gate of a `SealPolicy`, as a customer meets it through
//! `AppletServer::serve_design_sealed`: a faithful revision ships with
//! a certificate over the payload the customer unseals, a divergent or
//! incomparable one is refused whatever the lint waivers say, and
//! every outcome lands in the vendor's audit log.

use ipd::core::{
    bundle_key, unseal, AppletServer, CapabilitySet, CoreError, SealPolicy, SealedDesign,
};
use ipd::hdl::{Circuit, PortSpec};
use ipd::lint::{rule_catalog, LintConfig};
use ipd::netlist::NetlistFormat;
use ipd::techlib::LogicCtx;
use ipd::verify::EquivConfig;

const VENDOR_KEY: &[u8] = b"vendor-key";

/// `y = a & b` as a gate, a LUT2 resynthesis, or (faulty) `a | b`.
fn two_input(kind: &str) -> Circuit {
    let mut c = Circuit::new("unit");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    match kind {
        "and" => ctx.and2(a, b, y).unwrap(),
        "lut" => ctx.lut(0b1000, &[a.into(), b.into()], y).unwrap(),
        "or" => ctx.or2(a, b, y).unwrap(),
        other => panic!("unknown kind {other}"),
    };
    c
}

/// A golden gate against the AND gate, under `lint`.
fn against_and(lint: LintConfig) -> SealPolicy {
    SealPolicy {
        lint,
        golden: Some((two_input("and"), EquivConfig::default())),
        ..SealPolicy::default()
    }
}

/// Serves `revised` under `policy` to a licensed customer; returns the
/// outcome, the customer's key and the audit record it left.
fn serve(
    revised: &Circuit,
    policy: &SealPolicy,
) -> (Result<SealedDesign, CoreError>, [u8; 32], String) {
    let mut server = AppletServer::new("byu", VENDOR_KEY.to_vec());
    let license = server.enroll("acme", "unit", CapabilitySet::licensed(), 0, 365);
    let outcome = server.serve_design_sealed("acme", 10, VENDOR_KEY, revised, policy);
    let audit = server.audit_log().last().expect("audited").outcome.clone();
    (outcome, bundle_key(VENDOR_KEY, &license), audit)
}

#[test]
fn equivalent_revision_lints_clean() {
    let (outcome, key, audit) = serve(&two_input("lut"), &against_and(LintConfig::new()));
    let sealed = outcome.expect("resynthesized AND ships");
    assert!(sealed.report().is_clean(), "{}", sealed.report());
    assert!(audit.starts_with("served design unit sealed"), "{audit}");
    let golden_edif = NetlistFormat::Edif.generate(&two_input("and")).unwrap();
    let plain = unseal(sealed.bytes(), &key).unwrap();
    let cert = sealed.certificate().expect("golden gate certifies");
    assert!(cert.verify(golden_edif.as_bytes(), &plain));
}

#[test]
fn divergent_revision_fails_with_vector() {
    let (outcome, _, audit) = serve(&two_input("or"), &against_and(LintConfig::new()));
    let err = outcome.unwrap_err();
    assert!(matches!(err, CoreError::EquivRejected { .. }), "{err:?}");
    assert!(
        err.to_string().contains("under inputs"),
        "the refusal must carry the distinguishing vector: {err}"
    );
    assert_eq!(audit, format!("refused: {err}"));
}

#[test]
fn golden_gate_has_no_waiver() {
    // Waiving every lint rule on every object leaves the golden gate
    // standing: no rule reports a mismatch, so none can excuse one.
    let mut lint = LintConfig::new();
    for rule in rule_catalog() {
        lint.waive(rule.id, "*", "waive everything");
    }
    let (outcome, _, _) = serve(&two_input("or"), &against_and(lint));
    let err = outcome.unwrap_err();
    assert!(matches!(err, CoreError::EquivRejected { .. }), "{err:?}");
}

#[test]
fn boundary_mismatch_is_reported_not_panicked() {
    let mut c = Circuit::new("unit");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(a, y).unwrap();
    let (outcome, _, audit) = serve(&c, &against_and(LintConfig::new()));
    let err = outcome.unwrap_err();
    assert!(matches!(err, CoreError::Verify(_)), "{err:?}");
    assert!(err.to_string().contains("port boundaries differ"), "{err}");
    assert_eq!(audit, format!("refused: {err}"));
}
