//! Differential validation of the static analyses against the
//! simulator.
//!
//! * X-propagation: on loop-free designs built from taint-exact
//!   primitives (inv / buf / xor / fd) the static mask must agree with
//!   the scalar `Simulator` and the `CompiledSimulator` *exactly* —
//!   every lint-marked net really carries X after settling, and no
//!   lint-clean net ever does.
//! * Combinational loops: lint's Tarjan SCC detection must agree with
//!   both simulators' levelized/relaxation verdict, the timing
//!   estimator's loop refusal and the equivalence checker's, on a
//!   latch, a gate reading its own output, random netlists with
//!   feedback and random loop-free ones.

use ipd_estimate::{estimate_timing, EstimateError};
use ipd_hdl::{Circuit, FlatNetlist, Logic, PortSpec, Primitive, Signal};
use ipd_lint::{lint, x_reachable, LintModel};
use ipd_sim::{CompiledSimulator, Simulator};
use ipd_techlib::{FlatIndex, LogicCtx};
use ipd_testutil::XorShift64;
use ipd_verify::{check_equiv, EquivConfig, VerifyError};

/// Loop-free mixed design: one X-contaminated pipeline (a floating
/// wire XORed in, then registered) beside a clean one. Only inv, buf,
/// xor and fd — primitives whose X propagation is exact, so the static
/// may-analysis equals the dynamic must-behaviour.
fn xprop_fixture() -> Circuit {
    let mut c = Circuit::new("xdiff");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let yx = ctx.add_port(PortSpec::output("yx", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let floating = ctx.wire("floating", 1);
    // Tainted pipeline: (a ^ floating) -> fd -> inv -> fd -> yx.
    let w1 = ctx.wire("w1", 1);
    let q1 = ctx.wire("q1", 1);
    let w2 = ctx.wire("w2", 1);
    ctx.xor2(a, floating, w1).unwrap();
    ctx.fd(clk, w1, q1).unwrap();
    ctx.inv(q1, w2).unwrap();
    ctx.fd(clk, w2, yx).unwrap();
    // Clean pipeline: (a ^ b) -> fd -> buf -> fd -> y.
    let w3 = ctx.wire("w3", 1);
    let q3 = ctx.wire("q3", 1);
    let w4 = ctx.wire("w4", 1);
    ctx.xor2(a, b, w3).unwrap();
    ctx.fd(clk, w3, q3).unwrap();
    ctx.buffer(q3, w4).unwrap();
    ctx.fd(clk, w4, y).unwrap();
    c
}

/// Stimulus lanes of the X-propagation differential.
const LANES: usize = 8;

/// Lane `lane`'s known, lane-distinct `(a, b)` inputs.
fn xprop_stimulus(lane: usize) -> (u64, u64) {
    ((lane & 1) as u64, ((lane >> 1) & 1) as u64)
}

/// Shared body of the X-propagation differential: `values[lane][net]`
/// is what an engine read on every net of the fixture after driving
/// lane `lane` and running 4 cycles (X reaches the deepest register
/// at pipeline depth 2); each must be unknown exactly where the static
/// mask says.
fn check_xprop(engine: &str, values: &[Vec<Logic>]) {
    let circuit = xprop_fixture();
    let flat = FlatNetlist::build(&circuit).unwrap();
    let mask = x_reachable(&LintModel::new(&FlatIndex::new(flat.clone())));
    for (lane, nets) in values.iter().enumerate() {
        for (i, net) in flat.nets().iter().enumerate() {
            let value = nets[i];
            assert_eq!(
                value.to_bool().is_none(),
                mask[i],
                "[{engine}] net {} lane {lane}: simulator says {value}, lint mask says {}",
                net.name,
                mask[i]
            );
        }
    }
    // And the report flags exactly the contaminated output.
    let report = lint(&circuit).unwrap();
    let objects: Vec<_> = report
        .by_rule("x-reachable")
        .map(|d| d.object.as_str())
        .collect();
    assert_eq!(objects, vec!["yx[0]"]);
}

#[test]
fn xprop_mask_matches_compiled_simulator_exactly() {
    let circuit = xprop_fixture();
    let flat = FlatNetlist::build(&circuit).unwrap();
    let mut sim = CompiledSimulator::with_clock(&circuit, "clk", LANES).unwrap();
    assert!(sim.is_levelized());
    for lane in 0..LANES {
        let (a, b) = xprop_stimulus(lane);
        sim.set_u64_lane("a", lane, a).unwrap();
        sim.set_u64_lane("b", lane, b).unwrap();
    }
    sim.cycle(4).unwrap();
    let values: Vec<Vec<Logic>> = (0..LANES)
        .map(|lane| {
            flat.nets()
                .iter()
                .map(|net| sim.peek_net_lane(&net.name, lane).unwrap())
                .collect()
        })
        .collect();
    check_xprop("compiled", &values);
}

#[test]
fn xprop_mask_matches_scalar_simulator_exactly() {
    let circuit = xprop_fixture();
    let flat = FlatNetlist::build(&circuit).unwrap();
    let values: Vec<Vec<Logic>> = (0..LANES)
        .map(|lane| {
            let mut sim = Simulator::with_clock(&circuit, "clk").unwrap();
            assert!(sim.is_levelized());
            let (a, b) = xprop_stimulus(lane);
            sim.set_u64("a", a).unwrap();
            sim.set_u64("b", b).unwrap();
            sim.cycle(4).unwrap();
            flat.nets()
                .iter()
                .map(|net| sim.peek_net(&net.name).unwrap())
                .collect()
        })
        .collect();
    check_xprop("scalar", &values);
}

fn nor2_ports() -> Vec<PortSpec> {
    vec![
        PortSpec::input("i0", 1),
        PortSpec::input("i1", 1),
        PortSpec::output("o", 1),
    ]
}

/// A cross-coupled NOR latch.
fn nor_latch() -> Circuit {
    let mut c = Circuit::new("latch");
    let mut ctx = c.root_ctx();
    let s = ctx.add_port(PortSpec::input("s", 1)).unwrap();
    let r = ctx.add_port(PortSpec::input("r", 1)).unwrap();
    let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
    let nq = ctx.wire("nq", 1);
    ctx.leaf(
        Primitive::new("virtex", "nor2"),
        nor2_ports(),
        "n0",
        &[("i0", r.into()), ("i1", nq.into()), ("o", q.into())],
    )
    .unwrap();
    ctx.leaf(
        Primitive::new("virtex", "nor2"),
        nor2_ports(),
        "n1",
        &[("i0", s.into()), ("i1", q.into()), ("o", nq.into())],
    )
    .unwrap();
    c
}

/// `y = or2(en, y)`: one gate reading its own output.
fn self_loop() -> Circuit {
    let mut c = Circuit::new("selfloop");
    let mut ctx = c.root_ctx();
    let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.or2(en, y, y).unwrap();
    c
}

/// Whether each consumer of the structural index calls `c` a loop:
/// lint, the scalar and compiled simulators, the timing estimator.
fn loop_verdicts(c: &Circuit) -> [bool; 4] {
    let timing = estimate_timing(c);
    [
        lint(c).unwrap().by_rule("comb-loop").count() > 0,
        !Simulator::new(c).unwrap().is_levelized(),
        !CompiledSimulator::new(c, 1).unwrap().is_levelized(),
        matches!(timing, Err(EstimateError::CombinationalLoop { .. })),
    ]
}

#[test]
fn comb_loop_agrees_across_consumers_on_latch_and_self_loop() {
    for c in [nor_latch(), self_loop()] {
        let sim = Simulator::new(&c).unwrap();
        assert!(!sim.is_levelized(), "levelizer sees the loop");
        let report = lint(&c).unwrap();
        assert_eq!(report.by_rule("comb-loop").count(), 1, "{report}");
        assert_eq!(loop_verdicts(&c), [true; 4], "{}", c.name());
        let index = FlatIndex::new(FlatNetlist::build(&c).unwrap());
        let verdict = check_equiv(&index, &index, &EquivConfig::default());
        assert!(
            matches!(verdict, Err(VerifyError::CombLoop { .. })),
            "{}: {verdict:?}",
            c.name()
        );
    }
    // Both engines relax the self-loop to the same values: y holds 1
    // once en has been 1.
    let c = self_loop();
    let mut scalar = Simulator::new(&c).unwrap();
    let mut compiled = CompiledSimulator::new(&c, 1).unwrap();
    for (en, want) in [(0, Logic::X), (1, Logic::One), (0, Logic::One)] {
        scalar.set_u64("en", en).unwrap();
        compiled.set_u64_lane("en", 0, en).unwrap();
        let y = scalar.peek("y").unwrap();
        assert_eq!(y, compiled.peek_lane("y", 0).unwrap(), "en={en}");
        assert_eq!(y.bit(0), want, "en={en}");
    }
}

/// Random gate network with feedback: every gate input may name any
/// wire, including the gate's own output and wires driven later.
fn random_feedback(rng: &mut XorShift64) -> Circuit {
    let mut c = Circuit::new("fb");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let gates = 2 + rng.index(8);
    let wires: Vec<_> = (0..gates).map(|g| ctx.wire(&format!("w{g}"), 1)).collect();
    let mut nets: Vec<Signal> = vec![a.into(), b.into()];
    nets.extend(wires.iter().map(|&w| Signal::from(w)));
    for &out in &wires {
        let x = nets[rng.index(nets.len())].clone();
        let y = nets[rng.index(nets.len())].clone();
        match rng.index(3) {
            0 => ctx.and2(x, y, out).unwrap(),
            1 => ctx.xor2(x, y, out).unwrap(),
            _ => ctx.or2(x, y, out).unwrap(),
        };
    }
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(wires[gates - 1], y).unwrap();
    c
}

#[test]
fn comb_loop_agrees_across_consumers_on_random_feedback() {
    let loops = std::cell::Cell::new(0usize);
    ipd_testutil::check_n("random feedback loop verdicts agree", 48, |rng| {
        let verdicts = loop_verdicts(&random_feedback(rng));
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "lint, scalar, compiled, timing: {verdicts:?}"
        );
        loops.set(loops.get() + usize::from(verdicts[0]));
    });
    assert!(loops.get() > 0, "the generator draws loops");
}

/// Random loop-free gate network: every gate reads only wires defined
/// before it, so the graph is a DAG by construction.
fn random_dag(rng: &mut XorShift64) -> Circuit {
    let mut c = Circuit::new("dag");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let mut nets: Vec<Signal> = vec![a.into(), b.into()];
    let gates = 3 + rng.index(12);
    for g in 0..gates {
        let out = ctx.wire(&format!("w{g}"), 1);
        let x = nets[rng.index(nets.len())].clone();
        let y = nets[rng.index(nets.len())].clone();
        match rng.index(3) {
            0 => ctx.and2(x, y, out).unwrap(),
            1 => ctx.xor2(x, y, out).unwrap(),
            _ => ctx.or2(x, y, out).unwrap(),
        };
        nets.push(out.into());
    }
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(nets.last().unwrap().clone(), y).unwrap();
    c
}

#[test]
fn comb_loop_agrees_with_levelizer_on_random_dags() {
    ipd_testutil::check_n("random dags levelize and lint loop-free", 16, |rng| {
        let c = random_dag(rng);
        let sim = Simulator::new(&c).unwrap();
        assert!(sim.is_levelized());
        let report = lint(&c).unwrap();
        assert_eq!(report.by_rule("comb-loop").count(), 0, "{report}");
    });
}
