//! The one-number timing estimate an IP evaluation executable
//! displays: [`estimate_timing`] reads it off the standard STA
//! propagation ([`crate::Sta::estimate`]) with no constraints.
//!
//! For sequential designs the number is the worst path into a
//! sequential endpoint, each domain timed only against its own
//! launches (a launch in one domain is never timed against a capture
//! in another); the historical estimator mixed register-to-register
//! and pin-to-pin paths into one number. On purely combinational
//! designs it reproduces that estimator exactly; the old algorithm is
//! kept as a differential oracle in `tests/estimate_oracle.rs`.

use std::fmt;

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use crate::error::EstimateError;
use crate::sta::Sta;

/// The timing estimate an IP evaluation executable displays.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst register-to-register / pin-to-pin delay in nanoseconds.
    pub critical_path_ns: f64,
    /// Maximum clock frequency implied by the critical path.
    pub fmax_mhz: f64,
    /// Logic levels (LUT-class primitives) on the critical path.
    pub levels: usize,
    /// Net names along the critical path, source to endpoint.
    pub path: Vec<String>,
    /// Fraction of leaves carrying absolute placement, 0–1. Placed
    /// macros get tighter routing estimates — the benefit the paper's
    /// layout view sells.
    pub placed_fraction: f64,
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timing: {:.2} ns critical path ({:.1} MHz), {} logic level(s), {:.0}% placed",
            self.critical_path_ns,
            self.fmax_mhz,
            self.levels,
            self.placed_fraction * 100.0
        )?;
        if !self.path.is_empty() {
            writeln!(f, "  worst path: {}", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Estimates the critical path of a circuit using the default Virtex
/// delay model.
///
/// # Errors
///
/// Fails on flattening errors, unknown primitives, or combinational
/// loops.
pub fn estimate_timing(circuit: &Circuit) -> Result<TimingReport, EstimateError> {
    let index = FlatIndex::new(FlatNetlist::build(circuit)?);
    Ok(Sta::new(&index, &DelayModel::virtex(), NetDelaySource::Heuristic)?.estimate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{PortSpec, Rloc, Signal};
    use ipd_techlib::LogicCtx;

    /// A chain of `n` inverters between an FF and an FF.
    fn inv_chain(n: usize, placed: bool) -> Circuit {
        let mut c = Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur = ctx.wire("s0", 1);
        let first = ctx.fd(clk, d, cur).unwrap();
        if placed {
            ctx.set_rloc(first, Rloc::new(0, 0));
        }
        for i in 0..n {
            let next = ctx.wire(&format!("s{}", i + 1), 1);
            let inv = ctx.inv(cur, next).unwrap();
            if placed {
                ctx.set_rloc(inv, Rloc::new(0, i as i32 + 1));
            }
            cur = next;
        }
        let last = ctx.fd(clk, cur, q).unwrap();
        if placed {
            ctx.set_rloc(last, Rloc::new(0, n as i32 + 1));
        }
        c
    }

    #[test]
    fn longer_chains_are_slower() {
        let short = estimate_timing(&inv_chain(2, false)).expect("timing");
        let long = estimate_timing(&inv_chain(8, false)).expect("timing");
        assert!(long.critical_path_ns > short.critical_path_ns);
        assert!(long.fmax_mhz < short.fmax_mhz);
        assert_eq!(long.levels, 8);
    }

    #[test]
    fn placement_tightens_estimate() {
        let unplaced = estimate_timing(&inv_chain(6, false)).expect("timing");
        let placed = estimate_timing(&inv_chain(6, true)).expect("timing");
        assert!(placed.critical_path_ns < unplaced.critical_path_ns);
        assert!(placed.placed_fraction > 0.99);
        assert_eq!(unplaced.placed_fraction, 0.0);
    }

    #[test]
    fn path_is_reported() {
        let report = estimate_timing(&inv_chain(3, false)).expect("timing");
        assert!(!report.path.is_empty());
        assert!(report.to_string().contains("worst path"));
    }

    #[test]
    fn combinational_loop_is_an_error() {
        let mut c = Circuit::new("loop");
        let mut ctx = c.root_ctx();
        let a = ctx.wire("a", 1);
        let b = ctx.wire("b", 1);
        ctx.inv(a, b).unwrap();
        ctx.inv(b, a).unwrap();
        assert!(matches!(
            estimate_timing(&c),
            Err(EstimateError::CombinationalLoop { .. })
        ));
        // A gate fed by the loop, instanced first, is not on it: the
        // error names a net of the loop.
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let a = ctx.wire("a", 1);
        let b = ctx.wire("b", 1);
        let y = ctx.wire("y", 1);
        ctx.inv(a, y).unwrap();
        ctx.inv(b, a).unwrap();
        ctx.inv(a, b).unwrap();
        match estimate_timing(&c) {
            Err(EstimateError::CombinationalLoop { net }) => {
                assert!(net == "t/a" || net == "t/b", "{net} is not on the loop");
            }
            other => panic!("expected a loop error, got {other:?}"),
        }
        // One gate reading its own output is a loop too.
        let mut c = Circuit::new("selfloop");
        let mut ctx = c.root_ctx();
        let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.or2(en, y, y).unwrap();
        assert_eq!(
            estimate_timing(&c),
            Err(EstimateError::CombinationalLoop {
                net: "selfloop/y".into()
            })
        );
    }

    #[test]
    fn carry_chain_beats_lut_chain() {
        // n-bit carry chain: muxcy chain, vs n-LUT chain.
        let n = 16;
        let mut carry = Circuit::new("carry");
        {
            let mut ctx = carry.root_ctx();
            let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
            let s = ctx.add_port(PortSpec::input("s", n)).unwrap();
            let d = ctx.add_port(PortSpec::input("d", n)).unwrap();
            let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
            let mut ci = ctx.wire("c0", 1);
            ctx.fd(clk, Signal::bit_of(s, 0), ci).unwrap();
            for i in 0..n {
                let co = ctx.wire(&format!("c{}", i + 1), 1);
                ctx.muxcy(ci, Signal::bit_of(d, i), Signal::bit_of(s, i), co)
                    .unwrap();
                ci = co;
            }
            ctx.fd(clk, ci, q).unwrap();
        }
        let lut = inv_chain(n as usize, false);
        let carry_t = estimate_timing(&carry).expect("timing").critical_path_ns;
        let lut_t = estimate_timing(&lut).expect("timing").critical_path_ns;
        assert!(carry_t < lut_t, "carry {carry_t} vs lut {lut_t}");
    }

    /// The satellite fix itself: with two clock domains, the estimate
    /// no longer mixes a cross-domain path into the single number —
    /// each domain's worst register-to-register path is timed within
    /// the domain.
    #[test]
    fn domains_are_not_mixed() {
        // Domain A: FF -> 1 inv -> FF. Domain B: FF -> 6 invs -> FF.
        // Cross: A's FF output also feeds a 12-inv chain into B's FF —
        // the old estimator would report that cross path; the
        // domain-aware one must not.
        let mut c = Circuit::new("two_domains");
        {
            let mut ctx = c.root_ctx();
            let clk_a = ctx.add_port(PortSpec::input("clk_a", 1)).unwrap();
            let clk_b = ctx.add_port(PortSpec::input("clk_b", 1)).unwrap();
            let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
            let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
            // Domain A short loop.
            let a0 = ctx.wire("a0", 1);
            let a1 = ctx.wire("a1", 1);
            ctx.fd(clk_a, d, a0).unwrap();
            ctx.inv(a0, a1).unwrap();
            let aq = ctx.wire("aq", 1);
            ctx.fd(clk_a, a1, aq).unwrap();
            // Domain B medium chain.
            let mut cur = ctx.wire("b0", 1);
            ctx.fd(clk_b, aq, cur).unwrap();
            for i in 0..6 {
                let nxt = ctx.wire(&format!("b{}", i + 1), 1);
                ctx.inv(cur, nxt).unwrap();
                cur = nxt;
            }
            let bq = ctx.wire("bq", 1);
            ctx.fd(clk_b, cur, bq).unwrap();
            // Long cross path A -> B.
            let mut x = a0;
            for i in 0..12 {
                let nxt = ctx.wire(&format!("x{i}"), 1);
                ctx.inv(x, nxt).unwrap();
                x = nxt;
            }
            let xq = ctx.wire("xq", 1);
            ctx.fd(clk_b, x, xq).unwrap();
            ctx.buffer(bq, q).unwrap();
        }
        let report = estimate_timing(&c).expect("timing");
        // Worst in-domain path is B's 6-level chain; the 12-level cross
        // path must not be reported.
        assert_eq!(report.levels, 6, "{report}");
    }
}
