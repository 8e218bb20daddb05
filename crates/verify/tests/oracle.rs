//! Oracle differential suite: every semantic verdict is pinned
//! against both simulation engines (the scalar reference and the
//! compiled bit-parallel engine), every refutation ships a witness
//! that replays, and budget exhaustion degrades to `Unknown`, never
//! to a wrong verdict.

use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicVec, NetId, PortDir, PortSpec, Signal};
use ipd_sim::{CompiledSimulator, Simulator};
use ipd_techlib::{FlatIndex, LogicCtx};
use ipd_testutil::XorShift64;
use ipd_verify::{Oracle, OracleOptions, Verdict, WitnessCheck};

fn flat(c: &Circuit) -> FlatNetlist {
    FlatNetlist::build(c).expect("flatten")
}

fn net_id(f: &FlatNetlist, name: &str) -> NetId {
    let suffix = format!("/{name}");
    let idx = f
        .nets()
        .iter()
        .position(|n| n.name == name || n.name.ends_with(&suffix))
        .unwrap_or_else(|| panic!("no net named {name}"));
    NetId::from_index(idx)
}

/// `y = s ? a : b`, plus an input `u` nothing reads.
fn mux_with_unused() -> Circuit {
    let mut c = Circuit::new("muxu");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let s = ctx.add_port(PortSpec::input("s", 1)).unwrap();
    let _u = ctx.add_port(PortSpec::input("u", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.mux2(b, a, s, y).unwrap();
    c
}

#[test]
fn independence_proved_and_refuted() {
    let c = mux_with_unused();
    let f = flat(&c);
    let y = net_id(&f, "y");
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    assert!(
        oracle.prove_independent(y, "u", 0).unwrap().is_proved(),
        "unused input must be proved independent"
    );
    let v = oracle.prove_independent(y, "a", 0).unwrap();
    let Verdict::Refuted(w) = v else {
        panic!("mux output must depend on a, got {v:?}");
    };
    let WitnessCheck::NetToggles {
        port, low, high, ..
    } = &w.check
    else {
        panic!("independence refutation must be a toggle witness");
    };
    assert_eq!(port, "a");
    assert_ne!(low, high);
}

/// `y = (a & b) | (a & !b)` — semantically just `a`; `dead = a & !a`
/// — semantically constant zero. Built from LUTs so structural
/// cofactor propagation cannot see either fact.
fn semantic_consts() -> Circuit {
    let mut c = Circuit::new("semconst");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let z = ctx.add_port(PortSpec::output("z", 1)).unwrap();
    let t1 = ctx.wire("t1", 1);
    let t2 = ctx.wire("t2", 1);
    let dead = ctx.wire("dead", 1);
    ctx.and2(a, b, t1).unwrap();
    // t2 = a & !b via LUT2 (init 0b0010: only a=1,b=0).
    ctx.lut(0b0010, &[a.into(), b.into()], t2).unwrap();
    ctx.or2(t1, t2, y).unwrap();
    // dead = a & !a via LUT1 pair is folded; use LUT2(a, b) with an
    // init that ignores b and contradicts a: 0b0000.
    ctx.lut(0b0000, &[a.into(), b.into()], dead).unwrap();
    ctx.or2(dead, t1, z).unwrap();
    c
}

#[test]
fn constants_proved_and_refuted_with_replayed_witness() {
    let c = semantic_consts();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let dead = net_id(&f, "dead");
    assert!(
        oracle.prove_constant(dead, false).unwrap().is_proved(),
        "dead = const-0 LUT must be proved constant"
    );
    // y is NOT constant: refutation must carry a witness that both
    // engines already replayed inside the oracle. Triple-check it
    // here with a third, hand-rolled replay.
    let y = net_id(&f, "y");
    let v = oracle.prove_constant(y, false).unwrap();
    let Verdict::Refuted(w) = v else {
        panic!("y is not constant, got {v:?}");
    };
    let WitnessCheck::NetEquals { value } = w.check else {
        panic!("constant refutation must be a net-equals witness");
    };
    assert_eq!(value, Logic::One);
    let mut sim = CompiledSimulator::from_flat(&f, None, 1).unwrap();
    for (port, val) in &w.inputs {
        sim.set_lane(port, 0, val).unwrap();
    }
    let y_name = &f.nets()[y.index()].name;
    assert_eq!(sim.peek_net_lane(y_name, 0).unwrap(), Logic::One);
    assert!(oracle.stats().replays >= 1);
}

#[test]
fn equality_proved_across_structures() {
    // Majority as a LUT3 vs. factored gates inside one design.
    let mut c = Circuit::new("maj2");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let y1 = ctx.add_port(PortSpec::output("y1", 1)).unwrap();
    let y2 = ctx.add_port(PortSpec::output("y2", 1)).unwrap();
    ctx.lut(0xE8, &[a.into(), b.into(), d.into()], y1).unwrap();
    let ab = ctx.wire("ab", 1);
    let aob = ctx.wire("aob", 1);
    let dab = ctx.wire("dab", 1);
    ctx.and2(a, b, ab).unwrap();
    ctx.or2(a, b, aob).unwrap();
    ctx.and2(d, aob, dab).unwrap();
    ctx.or2(ab, dab, y2).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let n1 = net_id(&f, "y1");
    let n2 = net_id(&f, "y2");
    assert!(oracle.prove_equal(n1, n2, false).unwrap().is_proved());
    // And the complemented claim is refuted with a two-net witness.
    let v = oracle.prove_equal(n1, n2, true).unwrap();
    let Verdict::Refuted(w) = v else {
        panic!("y1 == !y2 must be refuted, got {v:?}");
    };
    let WitnessCheck::NetsDiffer {
        value, other_value, ..
    } = &w.check
    else {
        panic!("equality refutation must be a nets-differ witness");
    };
    assert_eq!(value, other_value, "y1 == y2 under the witness");
}

/// Parity of 6 inputs, once as a chain and once as a tree: equal, but
/// XOR equivalence is expensive for resolution, so a one-conflict
/// budget must answer `Unknown`, never `Refuted`.
fn parity_pair() -> Circuit {
    let mut c = Circuit::new("par6");
    let mut ctx = c.root_ctx();
    let x = ctx.add_port(PortSpec::input("x", 6)).unwrap();
    let yc = ctx.add_port(PortSpec::output("yc", 1)).unwrap();
    let yt = ctx.add_port(PortSpec::output("yt", 1)).unwrap();
    let xs: Vec<Signal> = (0..6).map(|i| Signal::bit_of(x, i)).collect();
    let mut acc = xs[0].clone();
    for (i, xi) in xs.iter().enumerate().skip(1) {
        let next: Signal = if i == 5 {
            yc.into()
        } else {
            ctx.wire(&format!("c{i}"), 1).into()
        };
        ctx.xor2(acc.clone(), xi.clone(), next.clone()).unwrap();
        acc = next;
    }
    let t0 = ctx.wire("t0", 1);
    let t1 = ctx.wire("t1", 1);
    let t2 = ctx.wire("t2", 1);
    ctx.xor2(xs[0].clone(), xs[3].clone(), t0).unwrap();
    ctx.xor2(xs[1].clone(), xs[4].clone(), t1).unwrap();
    ctx.xor2(xs[2].clone(), xs[5].clone(), t2).unwrap();
    ctx.xor3(t0, t1, t2, yt).unwrap();
    c
}

#[test]
fn budget_exhaustion_is_unknown_never_wrong() {
    let c = parity_pair();
    let f = flat(&c);
    let n1 = net_id(&f, "yc");
    let n2 = net_id(&f, "yt");
    // Unlimited budget proves the pair equal.
    let mut oracle = Oracle::new(
        &FlatIndex::new(&f),
        OracleOptions {
            conflict_budget: 0,
            ..OracleOptions::default()
        },
    )
    .unwrap();
    assert!(oracle.prove_equal(n1, n2, false).unwrap().is_proved());
    // A one-conflict budget answers Proved (cheap strash luck) or
    // Unknown — anything but a refutation of a true fact.
    let mut tight = Oracle::new(
        &FlatIndex::new(&f),
        OracleOptions {
            conflict_budget: 1,
            ..OracleOptions::default()
        },
    )
    .unwrap();
    match tight.prove_equal(n1, n2, false).unwrap() {
        Verdict::Refuted(_) => panic!("budget exhaustion refuted a true equality"),
        Verdict::Proved | Verdict::Unknown { .. } => {}
    }
    // Same discipline across the whole zoo: with a one-conflict
    // budget, no net that the default budget proves constant may be
    // refuted, and vice versa.
    for (name, circuit) in ipd_modgen::example_zoo() {
        let f = flat(&circuit);
        let mut full = match Oracle::new(&FlatIndex::new(&f), OracleOptions::default()) {
            Ok(o) => o,
            Err(_) => continue,
        };
        if !full.has_model() {
            continue;
        }
        let mut tight = Oracle::new(
            &FlatIndex::new(&f),
            OracleOptions {
                conflict_budget: 1,
                ..OracleOptions::default()
            },
        )
        .unwrap();
        let nets: Vec<NetId> = (0..f.nets().len().min(40)).map(NetId::from_index).collect();
        for net in nets {
            let a = full.prove_constant(net, false).unwrap();
            let b = tight.prove_constant(net, false).unwrap();
            match (&a, &b) {
                (Verdict::Proved, Verdict::Refuted(_)) | (Verdict::Refuted(_), Verdict::Proved) => {
                    panic!("{name}: budgets disagree on net {net:?}: {a:?} vs {b:?}")
                }
                _ => {}
            }
        }
    }
}

/// Random driven stimulus for every non-clock input port.
fn randomize_inputs<F>(f: &FlatNetlist, rng: &mut XorShift64, mut set: F)
where
    F: FnMut(&str, &LogicVec),
{
    for port in f.ports() {
        if port.dir != PortDir::Input || port.name == "clk" {
            continue;
        }
        let width = port.nets.len();
        let mut v = LogicVec::zeros(width);
        for bit in 0..width {
            v.set_bit(bit, Logic::from_bool(rng.next_u64() & 1 == 1));
        }
        set(&port.name, &v);
    }
}

/// The core differential claim: every net the oracle proves constant
/// stays at that constant in both engines under random driven
/// stimulus, across the whole zoo. Zero disagreements allowed.
#[test]
fn zoo_proved_constants_hold_in_both_engines() {
    let mut rng = XorShift64::new(0x1d0c_5eed);
    for (name, circuit) in ipd_modgen::example_zoo() {
        let f = flat(&circuit);
        let mut oracle = match Oracle::new(&FlatIndex::new(&f), OracleOptions::default()) {
            Ok(o) => o,
            Err(_) => continue,
        };
        if !oracle.has_model() {
            continue;
        }
        // Mine candidates by signature, then prove.
        let sigs = oracle.net_signatures().to_vec();
        let mut proved: Vec<(NetId, bool)> = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            let Some(sig) = sig else { continue };
            let value = if sig.iter().all(|&w| w == 0) {
                false
            } else if sig.iter().all(|&w| w == u64::MAX) {
                true
            } else {
                continue;
            };
            let net = NetId::from_index(i);
            if oracle.prove_constant(net, value).unwrap().is_proved() {
                proved.push((net, value));
            }
        }
        let mut scalar: Vec<Simulator> = (0..4)
            .map(|_| Simulator::from_flat(&f, None).unwrap())
            .collect();
        let mut compiled = CompiledSimulator::from_flat(&f, None, 4).unwrap();
        for _round in 0..4 {
            for (lane, sim) in scalar.iter_mut().enumerate() {
                randomize_inputs(&f, &mut rng, |p, v| {
                    sim.set(p, v.clone()).unwrap();
                    compiled.set_lane(p, lane, v).unwrap();
                });
            }
            scalar.iter_mut().for_each(|s| s.cycle(1).unwrap());
            compiled.cycle(1).unwrap();
            for &(net, value) in &proved {
                let net_name = &f.nets()[net.index()].name;
                for (lane, sim) in scalar.iter_mut().enumerate() {
                    for (engine, got) in [
                        ("scalar", sim.peek_net(net_name).unwrap()),
                        ("compiled", compiled.peek_net_lane(net_name, lane).unwrap()),
                    ] {
                        if got.is_driven() {
                            assert_eq!(
                                got,
                                Logic::from_bool(value),
                                "{name}: oracle/{engine} disagree on proved-constant {net_name}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Never-X verdicts pinned against both engines: a proved net never
/// reads X under driven inputs from power-on, across the zoo.
#[test]
fn zoo_proved_never_x_holds_in_both_engines() {
    let mut rng = XorShift64::new(0xace1_ace1);
    for (name, circuit) in ipd_modgen::example_zoo() {
        let f = flat(&circuit);
        let mut oracle = match Oracle::new(&FlatIndex::new(&f), OracleOptions::default()) {
            Ok(o) => o,
            Err(_) => continue,
        };
        // Check output port nets (the lint client's use).
        let mut proved_nets: Vec<String> = Vec::new();
        for port in f.ports() {
            if port.dir == PortDir::Input {
                continue;
            }
            for &net in &port.nets {
                if oracle.prove_never_x(net).unwrap().is_proved() {
                    proved_nets.push(f.nets()[net.index()].name.clone());
                }
            }
        }
        if proved_nets.is_empty() {
            continue;
        }
        let mut scalar: Vec<Simulator> = (0..2)
            .map(|_| Simulator::from_flat(&f, None).unwrap())
            .collect();
        let mut compiled = CompiledSimulator::from_flat(&f, None, 2).unwrap();
        for _round in 0..6 {
            for (lane, sim) in scalar.iter_mut().enumerate() {
                randomize_inputs(&f, &mut rng, |p, v| {
                    sim.set(p, v.clone()).unwrap();
                    compiled.set_lane(p, lane, v).unwrap();
                });
            }
            for net in &proved_nets {
                for (lane, sim) in scalar.iter_mut().enumerate() {
                    assert!(
                        sim.peek_net(net).unwrap().is_driven(),
                        "{name}: scalar saw X on proved-never-X net {net}"
                    );
                    assert!(
                        compiled.peek_net_lane(net, lane).unwrap().is_driven(),
                        "{name}: compiled saw X on proved-never-X net {net}"
                    );
                }
            }
            scalar.iter_mut().for_each(|s| s.cycle(1).unwrap());
            compiled.cycle(1).unwrap();
        }
    }
}

#[test]
fn never_x_refuted_on_undriven_cone() {
    // y = a OR floating; the floating leg makes y X whenever a=0.
    let mut c = Circuit::new("floaty");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let dangle = ctx.wire("dangle", 1);
    ctx.or2(a, dangle, y).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    assert!(
        !oracle.has_model(),
        "undriven read net must suppress the two-valued model"
    );
    let y_net = net_id(&f, "y");
    let v = oracle.prove_never_x(y_net).unwrap();
    assert!(
        matches!(v, Verdict::Refuted(_)),
        "floating cone must refute never-X, got {v:?}"
    );
    // But a net the float cannot poison is still proved.
    let mut c2 = Circuit::new("masked");
    let mut ctx = c2.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let dangle = ctx.wire("dangle", 1);
    let z = ctx.wire("z", 1);
    ctx.gnd(z).unwrap();
    let m = ctx.wire("m", 1);
    ctx.and2(z, dangle, m).unwrap();
    ctx.or2(a, m, y).unwrap();
    let f2 = flat(&c2);
    let mut oracle2 = Oracle::new(&FlatIndex::new(&f2), OracleOptions::default()).unwrap();
    let y2 = net_id(&f2, "y");
    assert!(
        oracle2.prove_never_x(y2).unwrap().is_proved(),
        "0 & X = 0 masks the float"
    );
}

#[test]
fn stateful_never_x_tracks_register_init() {
    // q feeds y; FD powers on to a known value, so y is never X.
    let mut c = Circuit::new("ffy");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let q = ctx.wire("q", 1);
    ctx.fd(clk, d, q).unwrap();
    ctx.buffer(q, y).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let y_net = net_id(&f, "y");
    let v = oracle.prove_never_x(y_net).unwrap();
    assert!(v.is_proved(), "known-init FF output must be never-X: {v:?}");
}

#[test]
fn sdc_and_odc_cubes() {
    // w1 = a&b, w2 = a|b, g = w1&w2: the minterm w1=1,w2=0 is
    // unproducible — an SDC.
    let mut c = Circuit::new("dc");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let w1 = ctx.wire("w1", 1);
    let w2 = ctx.wire("w2", 1);
    ctx.and2(a, b, w1).unwrap();
    ctx.or2(a, b, w2).unwrap();
    ctx.and2(w1, w2, y).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let y_net = net_id(&f, "y");
    let cubes = oracle.sdc(y_net).unwrap().expect("y has a producer node");
    assert!(cubes.complete);
    let w1_bit = cubes
        .inputs
        .iter()
        .position(|n| n.ends_with("/w1"))
        .unwrap();
    let w2_bit = cubes
        .inputs
        .iter()
        .position(|n| n.ends_with("/w2"))
        .unwrap();
    let impossible = (1 << w1_bit) as u16;
    assert!(
        cubes.minterms.contains(&impossible),
        "w1=1,w2=0 must be an SDC: {cubes:?}"
    );
    assert!(
        !cubes.minterms.contains(&((1 << w2_bit) as u16)),
        "w1=0,w2=1 is producible (a^b)"
    );

    // n = b|k, y = b & n: with b=0 the AND masks n — an ODC. (The
    // second input is named `k`, not `c`: a port named `c` would be
    // auto-detected as the clock.)
    let mut c2 = Circuit::new("odc");
    let mut ctx = c2.root_ctx();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let k = ctx.add_port(PortSpec::input("k", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let n = ctx.wire("n", 1);
    ctx.or2(b, k, n).unwrap();
    ctx.and2(b, n, y).unwrap();
    let f2 = flat(&c2);
    let mut oracle2 = Oracle::new(&FlatIndex::new(&f2), OracleOptions::default()).unwrap();
    let n_net = net_id(&f2, "n");
    let cubes = oracle2.odc(n_net).unwrap().expect("n has a producer node");
    assert!(cubes.complete);
    let b_bit = cubes.inputs.iter().position(|x| x.ends_with("/b")).unwrap();
    for m in 0u16..4 {
        let b_is_zero = (m >> b_bit) & 1 == 0;
        assert_eq!(
            cubes.minterms.contains(&m),
            b_is_zero,
            "ODC set must be exactly the b=0 minterms: {cubes:?}"
        );
    }
}

#[test]
fn unobservable_net_is_proved() {
    // m = a & dangle-free logic that y ignores: y = a, m unused
    // downstream except through a 0-AND.
    let mut c = Circuit::new("unobs");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let z = ctx.wire("z", 1);
    ctx.gnd(z).unwrap();
    let m = ctx.wire("m", 1);
    let k = ctx.wire("k", 1);
    ctx.xor2(a, b, m).unwrap();
    ctx.and2(m, z, k).unwrap();
    ctx.or2(a, k, y).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let m_net = net_id(&f, "m");
    assert!(
        oracle.prove_unobservable(m_net).unwrap().is_proved(),
        "a net ANDed with 0 is unobservable"
    );
    let a_net = net_id(&f, "a");
    let v = oracle.prove_unobservable(a_net).unwrap();
    assert!(
        !v.is_proved(),
        "a drives y directly; flipping it must be observable"
    );
}

#[test]
fn reachable_states_enumerate_counters() {
    for (name, circuit) in ipd_modgen::example_zoo() {
        if !name.contains("gray") {
            continue;
        }
        let f = flat(&circuit);
        let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
        let reach = oracle
            .reachable_states()
            .unwrap()
            .expect("gray counter is within state caps");
        assert!(reach.complete, "{name}: enumeration must close");
        assert_eq!(
            reach.states.len(),
            64,
            "{name}: a 6-bit gray counter visits all 64 states"
        );
        assert!(reach.stuck_bits().is_empty());
    }
}

#[test]
fn reachability_finds_dead_onehot_state() {
    // Two FFs ping-ponging (01 -> 10 -> 01) plus a third one-hot leg
    // that can never fire: its bit is stuck at 0.
    let mut c = Circuit::new("onehot");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let q0 = ctx.wire("q0", 1);
    let q1 = ctx.wire("q1", 1);
    let q2 = ctx.wire("q2", 1);
    let nq0 = ctx.wire("nq0", 1);
    ctx.inv(q0, nq0).unwrap();
    // q0 <= !q0; q1 <= q0; q2 <= q1 & q0 (never true in the cycle).
    ctx.fd(clk, nq0, q0).unwrap();
    ctx.fd(clk, q0, q1).unwrap();
    let both = ctx.wire("both", 1);
    ctx.and2(q0, q1, both).unwrap();
    ctx.fd(clk, both, q2).unwrap();
    ctx.buffer(q2, y).unwrap();
    let f = flat(&c);
    let mut oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default()).unwrap();
    let reach = oracle.reachable_states().unwrap().expect("3 FFs fit");
    assert!(reach.complete);
    // From 000 the machine cycles 100 -> 010 -> 100; q0 and q1 are
    // never both 1, so q2 can never load a 1: a dead one-hot leg.
    let expected: std::collections::HashSet<Vec<bool>> = {
        let mut seen = std::collections::HashSet::new();
        let mut s = (false, false, false);
        for _ in 0..16 {
            seen.insert(vec![s.0, s.1, s.2]);
            s = (!s.0, s.0, s.0 && s.1);
        }
        seen
    };
    let got: std::collections::HashSet<Vec<bool>> = reach.states.iter().cloned().collect();
    // Bit order in `reach` follows seq order; the three `fd` cells
    // were instantiated q0-first, so their auto paths map in order.
    let pos: Vec<usize> = ["/fd", "/fd_2", "/fd_3"]
        .iter()
        .map(|n| {
            reach
                .bits
                .iter()
                .position(|(p, _)| p.ends_with(n))
                .unwrap_or_else(|| panic!("no state bit for {n} in {:?}", reach.bits))
        })
        .collect();
    let got_mapped: std::collections::HashSet<Vec<bool>> = got
        .iter()
        .map(|s| pos.iter().map(|&i| s[i]).collect())
        .collect();
    assert_eq!(got_mapped, expected, "exact reachable set");
    let stuck = reach.stuck_bits();
    assert!(
        stuck
            .iter()
            .any(|(path, _, value)| path.ends_with("/fd_3") && !*value),
        "q2 (fd_3) must be proved stuck at 0: {stuck:?}"
    );
    assert!(
        !stuck.iter().any(|(path, _, _)| path.ends_with("/fd")),
        "q0 (fd) toggles"
    );
}

#[test]
fn structural_consts_and_model_presence_across_zoo() {
    for (name, circuit) in ipd_modgen::example_zoo() {
        let f = flat(&circuit);
        let oracle = Oracle::new(&FlatIndex::new(&f), OracleOptions::default())
            .unwrap_or_else(|e| panic!("{name}: oracle build failed: {e}"));
        assert!(
            oracle.has_model(),
            "{name}: zoo designs are clean, the two-valued model must exist"
        );
    }
}
