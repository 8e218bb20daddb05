//! Differential validation of the STA engine on random combinational
//! DAGs, plus an input-delay edit on independent chains.
//!
//! Arrival times are validated two ways:
//!
//! 1. **Depth reference** — under a unit delay model (every gate 1 ns,
//!    every net 0 ns) the STA arrival at the output must equal the
//!    longest gate depth, computed here by an independent dynamic
//!    program over the generator's own edge list.
//! 2. **`CompiledSimulator` cross-check** — the same DAG is batch-
//!    simulated and compared against a software evaluation of the edge
//!    list, proving the netlist the STA graph was built from is the
//!    netlist the simulator executes (`CompiledSimulator` exposes no
//!    propagation-depth API, so depth itself comes from the reference
//!    DP above).

use ipd_estimate::{Sta, TimingConstraints};
use ipd_hdl::{Circuit, FlatNetlist, PortSpec, Signal};
use ipd_sim::CompiledSimulator;
use ipd_techlib::{DelayModel, FlatIndex, LogicCtx, NetDelaySource};
use ipd_testutil::XorShift64;

/// Gate op in the reference edge list.
#[derive(Clone, Copy)]
enum Op {
    And,
    Or,
    Xor,
}

/// A random DAG plus its own edge list for independent evaluation.
struct RandomDag {
    circuit: Circuit,
    n_inputs: usize,
    /// Per gate: (op, input a, input b) as net indices, where nets
    /// `0..n_inputs` are the inputs and `n_inputs + g` is gate `g`.
    gates: Vec<(Op, usize, usize)>,
}

fn random_dag(rng: &mut XorShift64, n_inputs: usize, n_gates: usize) -> RandomDag {
    let mut circuit = Circuit::new("rand");
    let mut ctx = circuit.root_ctx();
    let mut nets: Vec<Signal> = (0..n_inputs)
        .map(|i| {
            ctx.add_port(PortSpec::input(format!("x{i}"), 1))
                .unwrap()
                .into()
        })
        .collect();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    let mut gates = Vec::new();
    for g in 0..n_gates {
        let a = (rng.next_u64() as usize) % nets.len();
        let b = (rng.next_u64() as usize) % nets.len();
        let out = ctx.wire(&format!("g{g}"), 1);
        let op = match rng.next_u64() % 3 {
            0 => Op::And,
            1 => Op::Or,
            _ => Op::Xor,
        };
        match op {
            Op::And => ctx.and2(nets[a].clone(), nets[b].clone(), out),
            Op::Or => ctx.or2(nets[a].clone(), nets[b].clone(), out),
            Op::Xor => ctx.xor2(nets[a].clone(), nets[b].clone(), out),
        }
        .unwrap();
        gates.push((op, a, b));
        nets.push(out.into());
    }
    // Route the last gate (or an input, for degenerate sizes) to y
    // through one more gate so the output depth is well-defined.
    let last = nets.len() - 1;
    gates.push((Op::Xor, last, last));
    let fin = ctx.wire("fin", 1);
    ctx.xor2(nets[last].clone(), nets[last].clone(), fin)
        .unwrap();
    ctx.buffer(fin, y).unwrap();
    RandomDag {
        circuit,
        n_inputs,
        gates,
    }
}

impl RandomDag {
    /// Longest gate depth from any input to the final gate.
    fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.n_inputs + self.gates.len()];
        for (g, &(_, a, b)) in self.gates.iter().enumerate() {
            depth[self.n_inputs + g] = 1 + depth[a].max(depth[b]);
        }
        *depth.last().unwrap()
    }

    /// Evaluates the edge list for one input assignment.
    fn eval(&self, inputs: &[bool]) -> bool {
        let mut v = inputs.to_vec();
        for &(op, a, b) in &self.gates {
            v.push(match op {
                Op::And => v[a] && v[b],
                Op::Or => v[a] || v[b],
                Op::Xor => v[a] ^ v[b],
            });
        }
        *v.last().unwrap()
    }
}

/// Every gate 1 ns, every net and boundary effect 0 ns: STA arrival
/// becomes pure gate depth.
fn unit_model() -> DelayModel {
    DelayModel {
        lut_ns: 1.0,
        carry_ns: 1.0,
        clk_to_q_ns: 0.0,
        setup_ns: 0.0,
        carry_net_ns: 0.0,
        net_base_ns: 0.0,
        net_per_clb_ns: 0.0,
        net_per_fanout_ns: 0.0,
        unplaced_factor: 1.0,
    }
}

/// Constrain the single output against a virtual clock so its arrival
/// is reported; the period is arbitrary.
fn output_constraints(period: f64) -> TimingConstraints {
    let mut c = TimingConstraints::new();
    c.clock("virt", period, "no_such_net");
    c.output_delay("virt", 0.0, "y");
    c
}

#[test]
fn sta_arrival_matches_depth_reference_on_random_dags() {
    ipd_testutil::check_n("sta-depth", 20, |rng| {
        let n_inputs = 3 + (rng.next_u64() % 6) as usize;
        let n_gates = 5 + (rng.next_u64() % 120) as usize;
        let dag = random_dag(rng, n_inputs, n_gates);
        let index = FlatIndex::new(FlatNetlist::build(&dag.circuit).expect("flatten"));
        let mut sta = Sta::new(&index, &unit_model(), NetDelaySource::Heuristic).expect("build");
        let period = 1_000.0;
        let report = sta.analyze(&output_constraints(period));
        let y = report
            .endpoints
            .iter()
            .find(|e| e.endpoint == "y")
            .expect("y endpoint");
        let arrival = period - y.slack_ns;
        // The final buffer is 0 ns (Buf class), so arrival == depth.
        let depth = dag.depth() as f64;
        assert!(
            (arrival - depth).abs() < 1e-9,
            "arrival {arrival} vs depth {depth} ({} gates)",
            dag.gates.len()
        );
        // Levels on the reported worst path agree with the DP too.
        let path = report
            .paths
            .iter()
            .find(|p| p.endpoint == "y")
            .expect("y path");
        assert_eq!(path.levels, dag.depth());
    });
}

#[test]
fn batch_simulator_agrees_with_the_same_edge_list() {
    ipd_testutil::check_n("sta-sim", 10, |rng| {
        let n_inputs = 3 + (rng.next_u64() % 5) as usize;
        let n_gates = 5 + (rng.next_u64() % 60) as usize;
        let dag = random_dag(rng, n_inputs, n_gates);
        let lanes = 16usize;
        let mut sim = CompiledSimulator::new(&dag.circuit, lanes).expect("compile");
        let mut stimuli: Vec<Vec<bool>> = Vec::new();
        for lane in 0..lanes {
            let bits: Vec<bool> = (0..n_inputs).map(|_| rng.next_u64() & 1 == 1).collect();
            for (i, &b) in bits.iter().enumerate() {
                sim.set_u64_lane(&format!("x{i}"), lane, u64::from(b))
                    .expect("drive input");
            }
            stimuli.push(bits);
        }
        sim.cycle(1).expect("settle");
        for (lane, bits) in stimuli.iter().enumerate() {
            let got = sim
                .peek_lane("y", lane)
                .expect("read output")
                .to_u64()
                .expect("binary output");
            assert_eq!(got == 1, dag.eval(bits), "lane {lane}");
        }
    });
}

/// An input-delay edit on one of 64 independent chains moves exactly
/// that chain's slack, and re-analysing the same analyzer under the
/// edited set matches a fresh analyzer's analysis. (The name is kept
/// from the incremental mode this once measured; every analysis is
/// now a full propagation.)
#[test]
fn incremental_reanalysis_is_at_least_5x_cheaper() {
    let chains = 64usize;
    let depth = 24usize;
    let mut circuit = Circuit::new("many_chains");
    {
        let mut ctx = circuit.root_ctx();
        for k in 0..chains {
            let x = ctx.add_port(PortSpec::input(format!("x{k}"), 1)).unwrap();
            let y = ctx.add_port(PortSpec::output(format!("y{k}"), 1)).unwrap();
            let mut cur: Signal = x.into();
            for i in 0..depth {
                let nxt = ctx.wire(&format!("c{k}_{i}"), 1);
                ctx.inv(cur, nxt).unwrap();
                cur = nxt.into();
            }
            ctx.buffer(cur, y).unwrap();
        }
    }
    let index = FlatIndex::new(FlatNetlist::build(&circuit).expect("flatten"));
    let model = DelayModel::virtex();
    let mut sta = Sta::new(&index, &model, NetDelaySource::Heuristic).expect("build");
    let mut base = TimingConstraints::new();
    base.clock("virt", 100.0, "no_such_net");
    base.output_delay("virt", 0.0, "*");
    base.input_delay("virt", 0.0, "x7");
    let before = sta.analyze(&base);

    let mut edited = TimingConstraints::new();
    edited.clock("virt", 100.0, "no_such_net");
    edited.output_delay("virt", 0.0, "*");
    edited.input_delay("virt", 2.0, "x7");
    let after = sta.analyze(&edited);

    // Identical to a fresh analyzer on the edited constraints.
    let mut fresh = Sta::new(&index, &model, NetDelaySource::Heuristic).expect("build");
    assert_eq!(after, fresh.analyze(&edited));
    // And the edit moved exactly the x7 chain's slack.
    let slack = |r: &ipd_estimate::StaReport, ep: &str| {
        r.endpoints
            .iter()
            .find(|e| e.endpoint == ep)
            .map(|e| e.slack_ns)
            .unwrap()
    };
    assert!((slack(&before, "y7") - slack(&after, "y7") - 2.0).abs() < 1e-9);
    assert!((slack(&before, "y9") - slack(&after, "y9")).abs() < 1e-9);
}
