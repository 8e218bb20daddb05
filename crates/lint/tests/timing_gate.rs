//! The timing pass as a lint gate: setup violations are errors that
//! block delivery, unconstrained endpoints warn, and both ride the
//! standard waiver machinery.

use ipd_hdl::{Circuit, PortSpec, Severity};
use ipd_lint::{LintConfig, Linter, TimingConstraints};
use ipd_techlib::LogicCtx;

/// FF -> `depth` inverters -> FF, one clock. Long enough chains fail
/// tight periods; short ones pass.
fn ff_chain(depth: usize) -> Circuit {
    let mut c = Circuit::new("chain");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
    let mut cur: ipd_hdl::Signal = ctx.wire("s0", 1).into();
    ctx.fd(clk, d, cur.clone()).unwrap();
    for i in 0..depth {
        let nxt = ctx.wire(&format!("s{}", i + 1), 1);
        ctx.inv(cur, nxt).unwrap();
        cur = nxt.into();
    }
    ctx.fd(clk, cur, q).unwrap();
    c
}

fn constraints(period_ns: f64) -> TimingConstraints {
    let mut t = TimingConstraints::new();
    t.clock("clk", period_ns, "clk");
    t.output_delay("clk", 0.0, "q");
    t
}

#[test]
fn slow_design_fails_the_gate_and_fast_design_passes() {
    let slow = Linter::with_timing(LintConfig::new(), constraints(3.0))
        .run(&ff_chain(24))
        .unwrap();
    assert!(!slow.is_clean(), "{slow}");
    let violations: Vec<_> = slow
        .diags()
        .iter()
        .filter(|d| d.rule == "setup-violation")
        .collect();
    assert!(!violations.is_empty());
    assert!(violations.iter().all(|d| d.severity == Severity::Error));
    assert!(
        violations[0].message.contains("clk"),
        "{}",
        violations[0].message
    );

    let fast = Linter::with_timing(LintConfig::new(), constraints(100.0))
        .run(&ff_chain(2))
        .unwrap();
    assert!(
        !fast.diags().iter().any(|d| d.rule == "setup-violation"),
        "{fast}"
    );
}

#[test]
fn waivers_move_violations_out_of_the_gate() {
    let mut config = LintConfig::new();
    config.waive("setup-violation", "*", "known slow eval build");
    let report = Linter::with_timing(config, constraints(3.0))
        .run(&ff_chain(24))
        .unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(report.waived().iter().any(|d| d.rule == "setup-violation"));
}

#[test]
fn unmatched_clock_warns_on_unconstrained_endpoints() {
    let mut t = TimingConstraints::new();
    t.clock("core", 5.0, "no_such_clock_net");
    let report = Linter::with_timing(LintConfig::new(), t)
        .run(&ff_chain(4))
        .unwrap();
    assert!(report.is_clean(), "warnings must not gate: {report}");
    let warns: Vec<_> = report
        .diags()
        .iter()
        .filter(|d| d.rule == "unconstrained-endpoint")
        .collect();
    assert!(!warns.is_empty());
    assert!(warns.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn empty_constraints_leave_the_linter_unchanged() {
    let design = ff_chain(24);
    let plain = Linter::new().run(&design).unwrap();
    let timed = Linter::with_timing(LintConfig::new(), TimingConstraints::new())
        .run(&design)
        .unwrap();
    assert_eq!(plain.diags().len(), timed.diags().len());
    assert!(!timed
        .diags()
        .iter()
        .any(|d| d.rule == "setup-violation" || d.rule == "unconstrained-endpoint"));
}

#[test]
fn timing_rules_are_in_the_catalog() {
    let catalog = ipd_lint::rule_catalog();
    let find = |id: &str| catalog.iter().find(|r| r.id == id);
    assert_eq!(find("setup-violation").unwrap().severity, Severity::Error);
    assert_eq!(
        find("unconstrained-endpoint").unwrap().severity,
        Severity::Warning
    );
}

/// A `clk_b` register feeding a `clk_a` register through 12 inverters
/// (`tests/fixtures/two_clocks.edif` is this circuit).
fn two_clocks() -> Circuit {
    let mut c = Circuit::new("xd");
    let mut ctx = c.root_ctx();
    let clk_a = ctx.add_port(PortSpec::input("clk_a", 1)).unwrap();
    let clk_b = ctx.add_port(PortSpec::input("clk_b", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
    let mut cur: ipd_hdl::Signal = ctx.wire("b0", 1).into();
    ctx.fd(clk_b, d, cur.clone()).unwrap();
    for i in 0..12 {
        let nxt = ctx.wire(&format!("x{}", i + 1), 1);
        ctx.inv(cur, nxt).unwrap();
        cur = nxt.into();
    }
    ctx.fd(clk_a, cur, q).unwrap();
    c
}

#[test]
fn a_crossing_from_an_unnamed_clock_is_cdc_not_setup() {
    // Only clk_a is constrained: the clk_b launch is not timed against
    // the clk_a capture. The crossing is the CDC pass's finding.
    let mut t = TimingConstraints::new();
    t.clock("sys", 10.0, "clk_a");
    let report = Linter::with_timing(LintConfig::new(), t)
        .run(&two_clocks())
        .unwrap();
    assert!(
        report.diags().iter().any(|d| d.rule == "cdc-unsync"),
        "{report}"
    );
    assert!(
        !report.diags().iter().any(|d| d.rule == "setup-violation"),
        "{report}"
    );
    assert!(report.is_clean(), "{report}");
}
