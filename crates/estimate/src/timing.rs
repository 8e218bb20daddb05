//! Static timing estimation: the one-number summary an IP evaluation
//! executable displays, derived from the [`crate::sta`] engine.
//!
//! For sequential designs the report now covers the worst path through
//! *sequential endpoints*, analyzed per structural clock domain (a
//! launch in one domain is never timed against a capture in another) —
//! the historical estimator mixed register-to-register and pin-to-pin
//! paths into one number. Purely combinational designs reduce to a
//! single launch class and reproduce the historical algorithm exactly;
//! the old implementation is retained below as a `cfg(test)` oracle
//! and the equivalence is proven by differential tests.

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
    estimate_timing_with(circuit, &DelayModel::virtex())
}

/// Estimates the critical path with an explicit delay model.
///
/// # Errors
///
/// As for [`estimate_timing`].
pub fn estimate_timing_with(
    circuit: &Circuit,
    model: &DelayModel,
) -> Result<TimingReport, EstimateError> {
    let flat = FlatNetlist::build(circuit)?;
    estimate_timing_flat(&flat, model)
}

/// Estimates timing from an already-flattened design.
///
/// # Errors
///
/// As for [`estimate_timing`].
pub fn estimate_timing_flat(
    flat: &FlatNetlist,
    model: &DelayModel,
) -> Result<TimingReport, EstimateError> {
    estimate_timing_flat_with_source(flat, model, NetDelaySource::Heuristic)
}

/// Estimates timing from an already-flattened design with an explicit
/// net-delay source — [`NetDelaySource::Routed`] makes the one-number
/// summary reflect real wire geometry instead of distance heuristics.
///
/// # Errors
///
/// As for [`estimate_timing`].
pub fn estimate_timing_flat_with_source(
    flat: &FlatNetlist,
    model: &DelayModel,
    source: NetDelaySource,
) -> Result<TimingReport, EstimateError> {
    estimate_timing_index(&FlatIndex::new(flat), model, source)
}

/// Estimates timing from a design's existing [`FlatIndex`] (what a
/// gate that already indexed the design calls).
///
/// # Errors
///
/// Fails on unknown primitives or combinational loops.
pub fn estimate_timing_index(
    index: &FlatIndex<'_>,
    model: &DelayModel,
    source: NetDelaySource,
) -> Result<TimingReport, EstimateError> {
    let mut sta = Sta::from_index(index, model, source)?;
    sta.analyze_legacy();
    let (critical, levels, path) = sta.legacy_worst();
    Ok(TimingReport {
        critical_path_ns: critical,
        fmax_mhz: model.to_mhz(critical),
        levels,
        path,
        placed_fraction: sta.placed_fraction(),
    })
}

/// The pre-STA single-pass estimator, kept verbatim as a differential
/// oracle: on purely combinational designs (one launch class) the STA
/// derivation must reproduce it bit for bit.
#[cfg(test)]
mod oracle {
    use ipd_hdl::{FlatKind, FlatNetlist, NetId, PortDir, Rloc};
    use ipd_techlib::{DelayModel, PrimClass, PrimKind};

    use super::TimingReport;
    use crate::error::EstimateError;

    struct TimingNode {
        kind: PrimKind,
        inputs: Vec<NetId>,
        output: NetId,
        loc: Option<Rloc>,
    }

    pub fn estimate_timing_flat(
        flat: &FlatNetlist,
        model: &DelayModel,
    ) -> Result<TimingReport, EstimateError> {
        let net_count = flat.net_count();
        let mut arrival = vec![0.0f64; net_count];
        let mut level = vec![0usize; net_count];
        let mut pred: Vec<Option<NetId>> = vec![None; net_count];
        let mut driver_loc: Vec<Option<Rloc>> = vec![None; net_count];
        let mut driver_carry = vec![false; net_count];
        let mut fanout = vec![0usize; net_count];
        for (net, readers) in flat.readers().iter().enumerate() {
            fanout[net] = readers.len();
        }

        let mut nodes: Vec<TimingNode> = Vec::new();
        let mut endpoints: Vec<(NetId, f64, Option<Rloc>, String)> = Vec::new();
        let mut placed = 0usize;
        let mut total_leaves = 0usize;

        for leaf in flat.leaves() {
            total_leaves += 1;
            if leaf.loc.is_some() {
                placed += 1;
            }
            match &leaf.kind {
                FlatKind::BlackBox(_) => {
                    for conn in &leaf.conns {
                        match conn.dir {
                            PortDir::Input => {
                                for &n in &conn.nets {
                                    endpoints.push((n, 0.0, leaf.loc, leaf.path.clone()));
                                }
                            }
                            _ => {
                                for &n in &conn.nets {
                                    driver_loc[n.index()] = leaf.loc;
                                }
                            }
                        }
                    }
                }
                FlatKind::Primitive(p) => {
                    let kind = PrimKind::from_primitive(p)?;
                    match kind.class() {
                        PrimClass::Comb | PrimClass::Rom16 => {
                            let mut inputs = Vec::new();
                            let mut output = None;
                            for conn in &leaf.conns {
                                match conn.dir {
                                    PortDir::Input => inputs.extend(conn.nets.iter().copied()),
                                    _ => output = conn.nets.first().copied(),
                                }
                            }
                            if let Some(output) = output {
                                driver_loc[output.index()] = leaf.loc;
                                driver_carry[output.index()] = kind.is_carry();
                                nodes.push(TimingNode {
                                    kind,
                                    inputs,
                                    output,
                                    loc: leaf.loc,
                                });
                            }
                        }
                        PrimClass::Const(_) => {
                            for conn in &leaf.conns {
                                if conn.dir != PortDir::Input {
                                    for &n in &conn.nets {
                                        driver_loc[n.index()] = leaf.loc;
                                    }
                                }
                            }
                        }
                        PrimClass::Ff { .. } => {
                            for conn in &leaf.conns {
                                match (conn.port.as_str(), conn.dir) {
                                    ("c", _) => {}
                                    (_, PortDir::Input) => {
                                        for &n in &conn.nets {
                                            endpoints.push((
                                                n,
                                                model.setup_ns,
                                                leaf.loc,
                                                leaf.path.clone(),
                                            ));
                                        }
                                    }
                                    (_, _) => {
                                        for &n in &conn.nets {
                                            arrival[n.index()] = model.clk_to_q_ns;
                                            driver_loc[n.index()] = leaf.loc;
                                        }
                                    }
                                }
                            }
                        }
                        PrimClass::Srl16 | PrimClass::Ram16 => {
                            let mut addr = Vec::new();
                            let mut out_net = None;
                            for conn in &leaf.conns {
                                match (conn.port.as_str(), conn.dir) {
                                    ("c", _) => {}
                                    ("a", _) => addr = conn.nets.clone(),
                                    (_, PortDir::Input) => {
                                        for &n in &conn.nets {
                                            endpoints.push((
                                                n,
                                                model.setup_ns,
                                                leaf.loc,
                                                leaf.path.clone(),
                                            ));
                                        }
                                    }
                                    (_, _) => out_net = conn.nets.first().copied(),
                                }
                            }
                            if let Some(output) = out_net {
                                driver_loc[output.index()] = leaf.loc;
                                arrival[output.index()] = model.clk_to_q_ns;
                                nodes.push(TimingNode {
                                    kind,
                                    inputs: addr,
                                    output,
                                    loc: leaf.loc,
                                });
                            }
                        }
                    }
                }
            }
        }

        for port in flat.ports() {
            if port.dir == PortDir::Output {
                for &n in &port.nets {
                    endpoints.push((n, 0.0, None, format!("output {}", port.name)));
                }
            }
        }

        let order =
            topo_order(&nodes, net_count).map_err(|net| EstimateError::CombinationalLoop {
                net: flat.nets()[net.index()].name.clone(),
            })?;

        for &i in &order {
            let node = &nodes[i];
            let mut best = 0.0f64;
            let mut best_pred = None;
            let mut best_level = 0usize;
            for &input in &node.inputs {
                let net_delay = model.net_delay_edge(
                    driver_loc[input.index()],
                    node.loc,
                    fanout[input.index()],
                    driver_carry[input.index()] && node.kind.is_carry(),
                );
                let t = arrival[input.index()] + net_delay;
                if t > best {
                    best = t;
                    best_pred = Some(input);
                    best_level = level[input.index()];
                }
            }
            let out = node.output.index();
            let t = best + model.prim_delay(&node.kind);
            if t > arrival[out] {
                arrival[out] = t;
                pred[out] = best_pred;
                let is_lut_level = !matches!(
                    node.kind,
                    PrimKind::Muxcy | PrimKind::Xorcy | PrimKind::MultAnd | PrimKind::Buf
                );
                level[out] = best_level + usize::from(is_lut_level);
            }
        }

        let mut critical = 0.0f64;
        let mut worst_net: Option<NetId> = None;
        for (net, extra, sink_loc, _label) in &endpoints {
            let net_delay = match (driver_loc[net.index()], *sink_loc) {
                (Some(from), Some(to)) => model.net_delay_placed(from, to, fanout[net.index()]),
                _ => model.net_delay_unplaced(fanout[net.index()]),
            };
            let t = arrival[net.index()] + net_delay + extra;
            if t > critical {
                critical = t;
                worst_net = Some(*net);
            }
        }

        let mut path = Vec::new();
        let mut levels = 0usize;
        if let Some(mut net) = worst_net {
            levels = level[net.index()];
            loop {
                path.push(flat.nets()[net.index()].name.clone());
                match pred[net.index()] {
                    Some(p) => net = p,
                    None => break,
                }
            }
            path.reverse();
        }

        let placed_fraction = if total_leaves == 0 {
            0.0
        } else {
            placed as f64 / total_leaves as f64
        };

        Ok(TimingReport {
            critical_path_ns: critical,
            fmax_mhz: model.to_mhz(critical),
            levels,
            path,
            placed_fraction,
        })
    }

    fn topo_order(nodes: &[TimingNode], net_count: usize) -> Result<Vec<usize>, NetId> {
        let mut producer: Vec<Option<usize>> = vec![None; net_count];
        for (i, n) in nodes.iter().enumerate() {
            producer[n.output.index()] = Some(i);
        }
        let mut indeg = vec![0usize; nodes.len()];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            for input in &n.inputs {
                if let Some(p) = producer[input.index()] {
                    if p != i {
                        indeg[i] += 1;
                        consumers[p].push(i);
                    }
                }
            }
        }
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(i) = queue.pop() {
            order.push(i);
            for &c in &consumers[i] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() != nodes.len() {
            let mut emitted = vec![false; nodes.len()];
            for &i in &order {
                emitted[i] = true;
            }
            let cyclic = (0..nodes.len())
                .find(|i| !emitted[*i])
                .expect("cycle exists");
            return Err(nodes[cyclic].output);
        }
        Ok(order)
    }
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

    /// A random combinational DAG over 2-input gates: primary inputs,
    /// then gates whose inputs draw from any earlier net.
    fn random_comb_dag(rng: &mut ipd_testutil::XorShift64, gates: usize) -> Circuit {
        let mut c = Circuit::new("rand");
        let mut ctx = c.root_ctx();
        let n_inputs = 3 + (rng.next_u64() % 5) as usize;
        let mut nets: Vec<Signal> = (0..n_inputs)
            .map(|i| {
                ctx.add_port(PortSpec::input(format!("x{i}"), 1))
                    .unwrap()
                    .into()
            })
            .collect();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        for g in 0..gates {
            let a = nets[(rng.next_u64() as usize) % nets.len()].clone();
            let b = nets[(rng.next_u64() as usize) % nets.len()].clone();
            let out = ctx.wire(&format!("g{g}"), 1);
            match rng.next_u64() % 3 {
                0 => ctx.and2(a, b, out).unwrap(),
                1 => ctx.xor2(a, b, out).unwrap(),
                _ => ctx.or2(a, b, out).unwrap(),
            };
            nets.push(out.into());
        }
        let last = nets.last().unwrap().clone();
        ctx.buffer(last, y).unwrap();
        c
    }

    /// Tentpole regression: the STA-derived estimator reproduces the
    /// historical single-pass algorithm bit for bit on purely
    /// combinational designs.
    #[test]
    fn sta_matches_oracle_on_combinational_designs() {
        ipd_testutil::check_n("comb-oracle", 25, |rng| {
            let gates = 10 + (rng.next_u64() as usize % 60);
            let c = random_comb_dag(rng, gates);
            let flat = FlatNetlist::build(&c).expect("flatten");
            let model = DelayModel::virtex();
            let new = estimate_timing_flat(&flat, &model).expect("sta");
            let old = oracle::estimate_timing_flat(&flat, &model).expect("oracle");
            assert_eq!(new, old);
        });
    }

    /// On sequential designs the old estimator's number was the max
    /// over *all* endpoints; the new one covers sequential endpoints
    /// per domain. On a single-domain FF-bounded chain both views pick
    /// the same register-to-register path.
    #[test]
    fn sta_matches_oracle_on_ff_bounded_chains() {
        for n in [1usize, 3, 8] {
            for placed in [false, true] {
                let c = inv_chain(n, placed);
                let flat = FlatNetlist::build(&c).expect("flatten");
                let model = DelayModel::virtex();
                let new = estimate_timing_flat(&flat, &model).expect("sta");
                let old = oracle::estimate_timing_flat(&flat, &model).expect("oracle");
                assert_eq!(new, old, "n={n} placed={placed}");
            }
        }
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
