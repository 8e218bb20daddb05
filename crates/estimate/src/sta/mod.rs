//! Graph-based static timing analysis.
//!
//! One propagation answers both timing questions a licensing customer
//! asks. [`Sta::estimate`] (behind [`crate::estimate_timing`]) answers
//! "how fast could this run?" with one number; [`Sta::analyze`]
//! (behind [`analyze_timing`]) answers *"does it close at my clock?"*
//! — forward arrival-time and (lazy) backward required-time
//! propagation over the levelized combinational graph, per-endpoint
//! setup slack under a [`TimingConstraints`] set, top-K critical-path
//! enumeration and per-domain slack histograms.
//!
//! Constraint text format (see [`TimingConstraints::parse`]):
//!
//! ```text
//! clock sys 6.667 clk            # name, period ns, clock-net pattern
//! input-delay sys 1.2 data_in*   # arrival of inputs relative to sys
//! output-delay sys 0.8 result*   # external requirement on outputs
//! false-path top/sync0 top/meta* # never timed
//! multicycle 2 top/slow/* top/acc*
//! ```
//!
//! Patterns use lint-waiver syntax: exact name or trailing-`*` prefix.

mod constraints;
mod engine;
mod graph;
mod report;

pub use constraints::{
    ClockConstraint, ExceptionKind, PathException, PortDelay, TimingConstraints, MAX_CLOCKS,
    MAX_DELAYS, MAX_EXCEPTIONS, MAX_MULTICYCLE,
};
pub use engine::{Sta, TOP_PATHS};
pub use report::{
    ClockSlack, EndpointSlack, PathReport, PathStep, SlackHistogram, SlackSummary, StaReport,
    HISTOGRAM_EDGES_NS,
};

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use crate::error::EstimateError;

/// Flattens a circuit and runs a full STA under `constraints` with the
/// default Virtex delay model.
///
/// # Errors
///
/// Fails on flattening errors, unknown primitives, or combinational
/// loops.
pub fn analyze_timing(
    circuit: &Circuit,
    constraints: &TimingConstraints,
) -> Result<StaReport, EstimateError> {
    let flat = FlatNetlist::build(circuit)?;
    let index = FlatIndex::new(&flat);
    let mut sta = Sta::new(&index, &DelayModel::virtex(), NetDelaySource::Heuristic)?;
    Ok(sta.analyze(constraints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{PortSpec, Rloc};
    use ipd_techlib::LogicCtx;

    /// FF -> n inverters -> FF, single clock domain.
    fn inv_chain(n: usize) -> Circuit {
        let mut c = Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur = ctx.wire("s0", 1);
        ctx.fd(clk, d, cur).unwrap();
        for i in 0..n {
            let next = ctx.wire(&format!("s{}", i + 1), 1);
            ctx.inv(cur, next).unwrap();
            cur = next;
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    fn analyze(c: &Circuit, text: &str) -> StaReport {
        let constraints = TimingConstraints::parse(text).expect("constraints");
        analyze_timing(c, &constraints).expect("sta")
    }

    #[test]
    fn slack_tracks_period() {
        let c = inv_chain(6);
        let tight = analyze(&c, "clock sys 2 clk\n");
        let loose = analyze(&c, "clock sys 100 clk\n");
        assert!(tight.violations() > 0, "{}", tight.summary());
        assert_eq!(loose.violations(), 0);
        // Same arrivals, shifted requirement.
        let wt = tight.worst_slack().unwrap();
        let wl = loose.worst_slack().unwrap();
        assert!((wl - wt - 98.0).abs() < 1e-9, "wt={wt} wl={wl}");
        // Every sequential endpoint (2 FF d pins) is reported.
        assert!(loose.endpoints.iter().any(|e| e.endpoint.ends_with(".d")));
        assert!(!loose.paths.is_empty());
        assert_eq!(loose.paths[0].slack_ns, wl);
    }

    #[test]
    fn unmatched_clock_leaves_endpoints_unconstrained() {
        let c = inv_chain(2);
        let r = analyze(&c, "clock sys 10 no_such_net\n");
        assert_eq!(r.endpoints.len(), 0);
        // Both FF d-pins and the primary output are unconstrained.
        assert!(r.unconstrained.len() >= 3, "{:?}", r.unconstrained);
    }

    #[test]
    fn output_delay_times_primary_outputs() {
        let c = inv_chain(2);
        let without = analyze(&c, "clock sys 10 clk\n");
        let with = analyze(&c, "clock sys 10 clk\noutput-delay sys 1.5 q\n");
        assert!(without.unconstrained.contains(&"q".to_owned()));
        assert!(!with.unconstrained.contains(&"q".to_owned()));
        let q = with.endpoints.iter().find(|e| e.endpoint == "q").unwrap();
        assert!((q.required_ns - 8.5).abs() < 1e-9);
    }

    #[test]
    fn false_path_suppresses_and_multicycle_relaxes() {
        let c = inv_chain(8);
        let base = analyze(&c, "clock sys 4 clk\n");
        assert!(base.violations() > 0);
        let worst = base.endpoints.first().unwrap().clone();
        // The failing endpoint is the second FF's d pin, launched from
        // the first FF. A false path from that startpoint kills the
        // check entirely...
        let fp = analyze(
            &c,
            &format!(
                "clock sys 4 clk\nfalse-path {} {}\n",
                worst.startpoint, worst.endpoint
            ),
        );
        let ep = fp
            .endpoints
            .iter()
            .find(|e| e.endpoint == worst.endpoint)
            .unwrap();
        assert!(
            ep.slack_ns > worst.slack_ns,
            "false path ignored: {} vs {}",
            ep.slack_ns,
            worst.slack_ns
        );
        assert_eq!(ep.startpoint, "(none)");
        // ...while a 3-cycle multicycle keeps it timed but relaxed by
        // exactly two extra periods.
        let mc = analyze(
            &c,
            &format!(
                "clock sys 4 clk\nmulticycle 3 {} {}\n",
                worst.startpoint, worst.endpoint
            ),
        );
        let ep = mc
            .endpoints
            .iter()
            .find(|e| e.endpoint == worst.endpoint)
            .unwrap();
        assert!((ep.slack_ns - (worst.slack_ns + 8.0)).abs() < 1e-9);
        assert_eq!(ep.startpoint, worst.startpoint);
    }

    #[test]
    fn cross_domain_paths_are_not_timed() {
        // FF(clk_a) -> inv -> FF(clk_b): the capture endpoint must not
        // see the clk_a launch, whether or not a constraint names
        // clk_a; its worst path comes from nowhere.
        let mut c = Circuit::new("cdc");
        let mut ctx = c.root_ctx();
        let clk_a = ctx.add_port(PortSpec::input("clk_a", 1)).unwrap();
        let clk_b = ctx.add_port(PortSpec::input("clk_b", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let s0 = ctx.wire("s0", 1);
        let s1 = ctx.wire("s1", 1);
        ctx.fd(clk_a, d, s0).unwrap();
        ctx.inv(s0, s1).unwrap();
        ctx.fd(clk_b, s1, q).unwrap();
        for text in ["clock a 10 clk_a\nclock b 10 clk_b\n", "clock b 10 clk_b\n"] {
            let r = analyze(&c, text);
            let capture = r
                .endpoints
                .iter()
                .find(|e| e.clock == "b" && e.endpoint.ends_with(".d"))
                .expect("clk_b capture endpoint");
            assert_eq!(capture.startpoint, "(none)", "{text}: {capture:?}");
            for step in r.paths.iter().flat_map(|p| &p.steps) {
                assert!(step.arrival_ns.is_finite(), "{text}: {step:?}");
            }
        }
    }

    /// An input-delay edit moves the input's endpoint by exactly the
    /// edit, and re-analysing the same analyzer under the edited set
    /// matches a fresh analyzer's analysis.
    #[test]
    fn input_delay_shifts_arrival_and_reanalyze_matches_cold() {
        let c = inv_chain(4);
        let flat = FlatNetlist::build(&c).unwrap();
        let index = FlatIndex::new(&flat);
        let model = DelayModel::virtex();
        let mut sta = Sta::new(&index, &model, NetDelaySource::Heuristic).unwrap();
        let mut base = TimingConstraints::new();
        base.clock("sys", 20.0, "clk");
        base.input_delay("sys", 0.0, "d");
        let before = sta.analyze(&base);

        let mut edited = TimingConstraints::new();
        edited.clock("sys", 20.0, "clk");
        edited.input_delay("sys", 3.5, "d");
        let after = sta.analyze(&edited);
        let mut fresh = Sta::new(&index, &model, NetDelaySource::Heuristic).unwrap();
        assert_eq!(after, fresh.analyze(&edited));
        // The d-port endpoint moved by exactly the delay edit.
        let find = |r: &StaReport| {
            r.endpoints
                .iter()
                .find(|e| e.startpoint == "d")
                .map(|e| e.slack_ns)
                .unwrap()
        };
        assert!((find(&before) - find(&after) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn net_slack_exposes_interior_nets() {
        let c = inv_chain(4);
        let flat = FlatNetlist::build(&c).unwrap();
        let index = FlatIndex::new(&flat);
        let mut sta = Sta::new(&index, &DelayModel::virtex(), NetDelaySource::Heuristic).unwrap();
        let mut constraints = TimingConstraints::new();
        constraints.clock("sys", 9.0, "clk");
        let report = sta.analyze(&constraints);
        let worst = report.worst_slack().unwrap();
        // Nets on the single critical chain all carry the endpoint's
        // slack; the clock net is untimed.
        let mid = sta.net_slack("chain/s2").expect("timed net");
        assert!((mid - worst).abs() < 1e-9, "mid={mid} worst={worst}");
        assert_eq!(sta.net_slack("chain/clk"), None);
        assert_eq!(sta.net_slack("does_not_exist"), None);
    }

    #[test]
    fn placed_designs_report_placement_and_tighter_slack() {
        let mut placed = Circuit::new("p");
        {
            let mut ctx = placed.root_ctx();
            let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
            let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
            let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
            let s0 = ctx.wire("s0", 1);
            let s1 = ctx.wire("s1", 1);
            let f0 = ctx.fd(clk, d, s0).unwrap();
            ctx.set_rloc(f0, Rloc::new(0, 0));
            let i0 = ctx.inv(s0, s1).unwrap();
            ctx.set_rloc(i0, Rloc::new(0, 1));
            let f1 = ctx.fd(clk, s1, q).unwrap();
            ctx.set_rloc(f1, Rloc::new(0, 2));
        }
        let flat = FlatNetlist::build(&placed).unwrap();
        let index = FlatIndex::new(&flat);
        let mut sta = Sta::new(&index, &DelayModel::virtex(), NetDelaySource::Heuristic).unwrap();
        assert!(sta.estimate().placed_fraction > 0.99);
        let mut constraints = TimingConstraints::new();
        constraints.clock("sys", 10.0, "clk");
        let r = sta.analyze(&constraints);
        assert_eq!(r.violations(), 0);
    }

    #[test]
    fn srl_and_carry_designs_analyze() {
        let mut c = Circuit::new("mix");
        {
            let mut ctx = c.root_ctx();
            let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
            let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
            let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
            let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
            let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
            let s = ctx.wire("s", 1);
            ctx.srl16(0, clk, en, d, a, s).unwrap();
            ctx.fd(clk, s, q).unwrap();
        }
        let r = analyze(&c, "clock sys 12 clk\n");
        // SRL write pins + FF d pin are all sequential endpoints.
        assert!(r.endpoints.len() >= 3, "{:#?}", r.endpoints);
        assert_eq!(r.violations(), 0);
    }
}
