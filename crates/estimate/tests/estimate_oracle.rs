//! The pre-STA single-pass estimator as a differential oracle for
//! [`Sta::estimate`]: on purely combinational designs and on
//! single-domain FF-bounded chains, the estimate read off the standard
//! STA propagation must reproduce the historical algorithm bit for
//! bit. The oracle uses only the public API.

use ipd_estimate::{Sta, TimingReport};
use ipd_hdl::{Circuit, FlatNetlist, PortSpec, Rloc, Signal};
use ipd_techlib::{DelayModel, FlatIndex, LogicCtx, NetDelaySource};

/// The pre-STA single-pass estimator, kept verbatim as a differential
/// oracle: on purely combinational designs (one launch class) the STA
/// derivation must reproduce it bit for bit.
mod oracle {
    use ipd_hdl::{FlatKind, FlatNetlist, NetId, PortDir, Rloc};
    use ipd_techlib::{DelayModel, PrimClass, PrimKind};

    use ipd_estimate::{EstimateError, TimingReport};

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

/// The estimate under test: the standard STA, read with no
/// constraints.
fn estimate(flat: &FlatNetlist, model: &DelayModel) -> TimingReport {
    let index = FlatIndex::new(flat.clone());
    Sta::new(&index, model, NetDelaySource::Heuristic)
        .expect("sta")
        .estimate()
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

/// The STA-derived estimator reproduces the historical single-pass
/// algorithm bit for bit on purely combinational designs.
#[test]
fn sta_matches_oracle_on_combinational_designs() {
    ipd_testutil::check_n("comb-oracle", 25, |rng| {
        let gates = 10 + (rng.next_u64() as usize % 60);
        let c = random_comb_dag(rng, gates);
        let flat = FlatNetlist::build(&c).expect("flatten");
        let model = DelayModel::virtex();
        let new = estimate(&flat, &model);
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
            let new = estimate(&flat, &model);
            let old = oracle::estimate_timing_flat(&flat, &model).expect("oracle");
            assert_eq!(new, old, "n={n} placed={placed}");
        }
    }
}
