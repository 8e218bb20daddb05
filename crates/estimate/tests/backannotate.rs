//! Backannotation differential suite: the [`NetDelaySource`] seam must
//! be invisible when heuristic. `NetDelaySource::Heuristic` and a
//! routed source with an *empty* database, which falls back everywhere,
//! must produce bit-identical `StaReport`s and `TimingReport`s across
//! random DAGs, placed and unplaced, through both `Sta::analyze` and
//! `Sta::estimate` — and a *populated* routed database must actually
//! reach the arrival math.

use std::sync::Arc;

use ipd_estimate::{auto_place, PlacerConfig, Sta, TimingConstraints};
use ipd_hdl::{Circuit, FlatNetlist, PortSpec, Signal};
use ipd_techlib::{DelayModel, FlatIndex, LogicCtx, NetDelaySource, RoutedDelays};
use ipd_testutil::XorShift64;

/// A random combinational DAG with one registered output.
fn random_dag(rng: &mut XorShift64, n_inputs: usize, n_gates: usize) -> Circuit {
    let mut circuit = Circuit::new("rand");
    let mut ctx = circuit.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let mut nets: Vec<Signal> = (0..n_inputs)
        .map(|i| {
            ctx.add_port(PortSpec::input(format!("x{i}"), 1))
                .unwrap()
                .into()
        })
        .collect();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    for g in 0..n_gates {
        let a = (rng.next_u64() as usize) % nets.len();
        let b = (rng.next_u64() as usize) % nets.len();
        let out = ctx.wire(&format!("g{g}"), 1);
        match rng.next_u64() % 3 {
            0 => ctx.and2(nets[a].clone(), nets[b].clone(), out),
            1 => ctx.or2(nets[a].clone(), nets[b].clone(), out),
            _ => ctx.xor2(nets[a].clone(), nets[b].clone(), out),
        }
        .unwrap();
        nets.push(out.into());
    }
    let last = nets.len() - 1;
    ctx.fd(clk, nets[last].clone(), y).unwrap();
    circuit
}

fn constraints(period: f64) -> TimingConstraints {
    let mut c = TimingConstraints::new();
    c.clock("clk", period, "clk");
    c.output_delay("clk", 0.0, "y");
    c
}

/// The heuristic source and an empty routed database agree bit for bit
/// on unplaced and placed layouts, in the slack report and the
/// one-number estimate alike.
#[test]
fn heuristic_and_empty_routed_sources_are_bit_identical() {
    ipd_testutil::check_n("backannotate-identity", 12, |rng| {
        let n_inputs = 3 + (rng.next_u64() % 5) as usize;
        let n_gates = 5 + (rng.next_u64() % 80) as usize;
        let unplaced = random_dag(rng, n_inputs, n_gates);
        let placed = auto_place(&unplaced, &PlacerConfig::default())
            .expect("place")
            .circuit;
        let model = DelayModel::virtex();
        for circuit in [&unplaced, &placed] {
            let index = FlatIndex::new(FlatNetlist::build(circuit).expect("flatten"));
            let cons = constraints(25.0);

            let mut heuristic = Sta::new(&index, &model, NetDelaySource::Heuristic).expect("build");
            let empty = NetDelaySource::Routed(Arc::new(RoutedDelays::new()));
            let mut routed = Sta::new(&index, &model, empty).expect("build");
            assert_eq!(heuristic.analyze(&cons), routed.analyze(&cons));
            assert_eq!(heuristic.estimate(), routed.estimate());
        }
    });
}

/// A populated routed database must change arrivals: inflating every
/// net the design uses by a fixed amount strictly reduces the worst
/// slack, proving the seam feeds the arrival math (not just storage).
#[test]
fn populated_routed_database_reaches_the_arrival_math() {
    let mut rng = XorShift64::new(0xBACC_A11E);
    let circuit = random_dag(&mut rng, 5, 40);
    let placed = auto_place(&circuit, &PlacerConfig::default())
        .expect("place")
        .circuit;
    let flat = FlatNetlist::build(&placed).expect("flatten");
    let index = FlatIndex::new(flat.clone());
    let model = DelayModel::virtex();
    let cons = constraints(25.0);

    let mut heuristic = Sta::new(&index, &model, NetDelaySource::Heuristic).expect("build");
    let base = heuristic.analyze(&cons);

    // Backannotate every net at every placed sink with heuristic + 3ns.
    let mut db = RoutedDelays::new();
    let drivers = flat.drivers();
    let readers = flat.readers();
    for net in 0..flat.net_count() {
        let Some(&(dli, _)) = drivers[net].first() else {
            continue;
        };
        let Some(from) = flat.leaves()[dli].loc else {
            continue;
        };
        let fanout = readers[net].len();
        for &(rli, _) in &readers[net] {
            if let Some(to) = flat.leaves()[rli].loc {
                db.insert(
                    ipd_hdl::NetId::from_index(net),
                    to,
                    model.net_delay_placed(from, to, fanout) + 3.0,
                );
            }
        }
    }
    assert!(!db.is_empty());
    let mut routed = Sta::new(&index, &model, NetDelaySource::Routed(Arc::new(db))).expect("build");
    let slow = routed.analyze(&cons);
    let base_worst = base.worst_slack().expect("worst");
    let slow_worst = slow.worst_slack().expect("worst");
    assert!(
        slow_worst < base_worst - 1.0,
        "inflated routed delays must cost slack: {base_worst} -> {slow_worst}"
    );
}
