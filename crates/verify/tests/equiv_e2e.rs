//! End-to-end equivalence checks: the modgen zoo against itself and
//! its EDIF round-trips, hand-resynthesized pairs, refuted pairs with
//! replay-confirmed counterexamples, and a direct AIG-vs-simulator
//! agreement sweep.

use ipd_hdl::{Circuit, FlatNetlist, PortSpec};
use ipd_sim::graph::NetlistGraph;
use ipd_sim::CompiledSimulator;
use ipd_techlib::{FlatIndex, LogicCtx};
use ipd_testutil::XorShift64;
use ipd_verify::{check_equiv, lower_into, Aig, EquivConfig, EquivVerdict, Lit};
use std::collections::HashMap;
use std::sync::Arc;

fn flat(c: &Circuit) -> FlatNetlist {
    FlatNetlist::build(c).expect("flatten")
}

#[test]
fn zoo_designs_are_self_equivalent() {
    for (name, circuit) in ipd_modgen::example_zoo() {
        let f = flat(&circuit);
        let report = check_equiv(
            &FlatIndex::new(f.clone()),
            &FlatIndex::new(f),
            &EquivConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.is_equivalent(), "{name} is not equal to itself");
        // Identical lowerings strash to the same literals: nothing
        // should survive to a final SAT miter.
        assert_eq!(
            report.stats.outputs_by_hash, report.stats.outputs_checked,
            "{name}: identity pair needed SAT"
        );
    }
}

#[test]
fn zoo_edif_round_trips_are_equivalent() {
    for (name, circuit) in ipd_modgen::example_zoo() {
        let mut text = Vec::new();
        ipd_netlist::write_edif(&circuit, &mut text).expect("write edif");
        let text = String::from_utf8(text).expect("edif is utf-8");
        let back = ipd_netlist::read_edif(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = check_equiv(
            &FlatIndex::new(flat(&circuit)),
            &FlatIndex::new(flat(&back)),
            &EquivConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.is_equivalent(),
            "{name} EDIF round-trip changed function"
        );
    }
}

/// Majority-of-three as one LUT3 (INIT=0xE8).
fn majority_lut() -> Circuit {
    let mut c = Circuit::new("maj");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.lut(0xE8, &[a.into(), b.into(), d.into()], y).unwrap();
    c
}

/// The same majority function factored into AND/OR gates:
/// `ab | d(a|b)`.
fn majority_gates() -> Circuit {
    let mut c = Circuit::new("maj");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let ab = ctx.wire("ab", 1);
    let aob = ctx.wire("aob", 1);
    let dab = ctx.wire("dab", 1);
    ctx.and2(a, b, ab).unwrap();
    ctx.or2(a, b, aob).unwrap();
    ctx.and2(d, aob, dab).unwrap();
    ctx.or2(ab, dab, y).unwrap();
    c
}

#[test]
fn resynthesized_majority_proves_equivalent() {
    let report = check_equiv(
        &FlatIndex::new(flat(&majority_lut())),
        &FlatIndex::new(flat(&majority_gates())),
        &EquivConfig::default(),
    )
    .expect("check runs");
    assert!(report.is_equivalent());
}

/// A registered design: `q' = f(d, en)`, `y = q`, where `f` is the
/// caller's gate.
fn registered(and_gate: bool) -> Circuit {
    let mut c = Circuit::new("reg");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let g = ctx.wire("g", 1);
    if and_gate {
        ctx.and2(d, en, g).unwrap();
    } else {
        ctx.or2(d, en, g).unwrap();
    }
    ctx.fd(clk, g, y).unwrap();
    c
}

#[test]
fn differing_next_state_functions_are_refuted_with_replayed_cex() {
    let golden = flat(&registered(true));
    let revised = flat(&registered(false));
    let report = check_equiv(
        &FlatIndex::new(golden),
        &FlatIndex::new(revised),
        &EquivConfig::default(),
    )
    .expect("check runs");
    let EquivVerdict::NotEquivalent(cex) = report.verdict else {
        panic!("AND-FF vs OR-FF proved equivalent");
    };
    // d=0,en=1 (or d=1,en=0) distinguishes; d must differ from en.
    // The counterexample was already replayed through both simulators
    // inside check_equiv; sanity-check its shape here.
    assert!(cex.function.starts_with("next(") || cex.function.starts_with('y'));
    let d = cex.inputs.iter().find(|(p, _)| p == "d").unwrap();
    let en = cex.inputs.iter().find(|(p, _)| p == "en").unwrap();
    assert_ne!(d.1.bit(0), en.1.bit(0), "cex must split AND from OR");
    assert_ne!(cex.golden_value, cex.revised_value);
}

/// Random loop-free LUT/gate network over 4 primary inputs.
fn random_comb(rng: &mut XorShift64) -> Circuit {
    let mut c = Circuit::new("rand");
    let mut ctx = c.root_ctx();
    let mut sigs: Vec<ipd_hdl::Signal> = (0..4)
        .map(|i| {
            ctx.add_port(PortSpec::input(format!("in{i}"), 1))
                .unwrap()
                .into()
        })
        .collect();
    let gates = 4 + rng.index(10);
    for g in 0..gates {
        let out = ctx.wire(&format!("w{g}"), 1);
        let x = sigs[rng.index(sigs.len())].clone();
        let y = sigs[rng.index(sigs.len())].clone();
        let z = sigs[rng.index(sigs.len())].clone();
        match rng.index(4) {
            0 => ctx.and2(x, y, out).unwrap(),
            1 => ctx.xor2(x, y, out).unwrap(),
            2 => ctx.mux2(x, y, z, out).unwrap(),
            _ => {
                let init = (rng.next_u64() & 0xFF) as u16;
                ctx.lut(init, &[x, y, z], out).unwrap()
            }
        };
        sigs.push(out.into());
    }
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(sigs.last().unwrap().clone(), y).unwrap();
    c
}

/// The AIG lowering must agree with the compiled simulator bit-for-bit
/// over the full input space of small random designs.
#[test]
fn aig_lowering_agrees_with_simulator_exhaustively() {
    ipd_testutil::check_n("aig vs simulator", 24, |rng| {
        let circuit = random_comb(rng);
        let graph =
            Arc::new(NetlistGraph::build(&FlatIndex::new(flat(&circuit)), None).expect("graph"));
        let mut aig = Aig::new();
        let mut port_lit: HashMap<(String, usize), Lit> = HashMap::new();
        for i in 0..4 {
            let lit = aig.input();
            port_lit.insert((format!("in{i}"), 0), lit);
        }
        let outs = lower_into(&mut aig, &graph, "rand", &port_lit, &HashMap::new()).expect("lower");
        assert_eq!(outs.len(), 1);

        let lanes = 16;
        let mut sim = CompiledSimulator::from_graph(Arc::clone(&graph), lanes).expect("sim");
        for v in 0..16u64 {
            for i in 0..4 {
                sim.set_u64_lane(&format!("in{i}"), v as usize, (v >> i) & 1)
                    .unwrap();
            }
        }
        for v in 0..16u64 {
            let inputs: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            let aig_val = aig.eval(outs[0].lit, &inputs);
            let sim_val = sim.peek_lane("y", v as usize).unwrap().bit(0);
            assert_eq!(
                ipd_hdl::Logic::from_bool(aig_val),
                sim_val,
                "input {v:04b}: AIG={aig_val}, simulator={sim_val:?}"
            );
        }
    });
}
