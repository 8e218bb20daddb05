//! Differential testing of the compiled bytecode engine against its
//! reference, the scalar simulator: every lane of a
//! `CompiledSimulator` must be bit-identical (including `X`/`Z`
//! propagation) to a scalar `Simulator` run of the same stimulus,
//! cycle for cycle and net for net — across the full 256-lane plane
//! width, all stateful primitives, the state back doors, sweeps, and
//! comb-loop relaxation mode.

use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicVec, PortDir, PortSpec, Signal};
use ipd_sim::{CompiledSimulator, SimError, Simulator, VectorSweep, COMPILED_MAX_LANES};
use ipd_techlib::LogicCtx;
use ipd_testutil::{check_n, XorShift64};

fn any_logic(rng: &mut XorShift64) -> Logic {
    match rng.below(8) {
        0..=2 => Logic::Zero,
        3..=5 => Logic::One,
        6 => Logic::X,
        _ => Logic::Z,
    }
}

fn any_vec(rng: &mut XorShift64, width: usize) -> LogicVec {
    (0..width).map(|_| any_logic(rng)).collect()
}

/// A random combinational DAG over `inputs` primary bits; the wire
/// names `g0..gN` are stable for net-level probing.
fn random_dag(rng: &mut XorShift64, inputs: usize, max_ops: usize) -> (Circuit, usize) {
    let ops = 1 + rng.index(max_ops - 1);
    let mut circuit = Circuit::new("dag");
    let mut ctx = circuit.root_ctx();
    let a = ctx
        .add_port(PortSpec::input("a", inputs as u32))
        .expect("port");
    let y = ctx.add_port(PortSpec::output("y", 1)).expect("port");
    let mut pool: Vec<Signal> = (0..inputs).map(|b| Signal::bit_of(a, b as u32)).collect();
    for k in 0..ops {
        let out = ctx.wire(&format!("g{k}"), 1);
        let pick = |rng: &mut XorShift64| pool[rng.index(pool.len())].clone();
        match rng.below(8) {
            0 => ctx.inv(pick(rng), out).expect("inv"),
            1 => ctx.and2(pick(rng), pick(rng), out).expect("and2"),
            2 => ctx.or2(pick(rng), pick(rng), out).expect("or2"),
            3 => ctx.xor2(pick(rng), pick(rng), out).expect("xor2"),
            4 => ctx
                .mux2(pick(rng), pick(rng), pick(rng), out)
                .expect("mux2"),
            5 => ctx
                .muxcy(pick(rng), pick(rng), pick(rng), out)
                .expect("muxcy"),
            6 => ctx.xorcy(pick(rng), pick(rng), out).expect("xorcy"),
            _ => {
                let init = (rng.next_u64() & 0xFFFF) as u16;
                let srcs = [pick(rng), pick(rng), pick(rng), pick(rng)];
                ctx.lut(init, &srcs, out).expect("lut4")
            }
        };
        pool.push(out.into());
    }
    let last = pool.last().expect("non-empty").clone();
    ctx.buffer(last, y).expect("buffer");
    (circuit, ops)
}

/// Random four-state stimulus on combinational DAGs: every lane of the
/// compiled engine equals the scalar simulator, on the output and on
/// every internal net.
#[test]
fn comb_dags_match_scalar_on_every_net() {
    check_n("comb_dags_compiled", 16, |rng| {
        let inputs = 1 + rng.index(7);
        let (circuit, ops) = random_dag(rng, inputs, 24);
        let lanes = 1 + rng.index(COMPILED_MAX_LANES);
        let mut compiled = CompiledSimulator::new(&circuit, lanes).expect("compiled");
        let mut scalars: Vec<Simulator> = Vec::new();
        for lane in 0..lanes {
            let stim = any_vec(rng, inputs);
            compiled.set_lane("a", lane, &stim).expect("compiled set");
            let mut s = Simulator::new(&circuit).expect("scalar compile");
            s.set("a", stim).expect("scalar set");
            scalars.push(s);
        }
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            assert_eq!(
                compiled.peek_lane("y", lane).expect("compiled y"),
                scalar.peek("y").expect("scalar y"),
                "output lane {lane}"
            );
            for k in 0..ops {
                let net = format!("dag/g{k}");
                assert_eq!(
                    compiled.peek_net_lane(&net, lane).expect("compiled net"),
                    scalar.peek_net(&net).expect("scalar net"),
                    "net {net} lane {lane}"
                );
            }
        }
    });
}

/// A circuit exercising every stateful primitive: FD, FDCE, FDRE,
/// SRL16 and RAM16X1, plus combinational mixing of their outputs.
fn stateful_circuit() -> Circuit {
    let mut c = Circuit::new("stateful");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).expect("clk");
    let ce = ctx.add_port(PortSpec::input("ce", 1)).expect("ce");
    let clr = ctx.add_port(PortSpec::input("clr", 1)).expect("clr");
    let we = ctx.add_port(PortSpec::input("we", 1)).expect("we");
    let d = ctx.add_port(PortSpec::input("d", 4)).expect("d");
    let a = ctx.add_port(PortSpec::input("a", 4)).expect("a");
    let q = ctx.add_port(PortSpec::output("q", 4)).expect("q");
    let tap = ctx.add_port(PortSpec::output("tap", 1)).expect("tap");
    let ram_o = ctx.add_port(PortSpec::output("ram_o", 1)).expect("ram_o");
    let mix = ctx.add_port(PortSpec::output("mix", 1)).expect("mix");
    ctx.fd(clk, Signal::bit_of(d, 0), Signal::bit_of(q, 0))
        .expect("fd");
    ctx.fdce(clk, ce, clr, Signal::bit_of(d, 1), Signal::bit_of(q, 1))
        .expect("fdce");
    ctx.fdre(clk, ce, clr, Signal::bit_of(d, 2), Signal::bit_of(q, 2))
        .expect("fdre");
    ctx.fd(clk, Signal::bit_of(d, 3), Signal::bit_of(q, 3))
        .expect("fd");
    ctx.srl16(0x0F0F, clk, ce, Signal::bit_of(d, 0), a, tap)
        .expect("srl16");
    ctx.ram16x1(0x1234, clk, we, Signal::bit_of(d, 1), a, ram_o)
        .expect("ram16x1");
    ctx.mux2(tap, ram_o, Signal::bit_of(q, 0), mix)
        .expect("mux2");
    c
}

/// Per-cycle, per-net equality on sequential circuits with changing
/// four-state inputs, including all state elements, across the full
/// 256-lane width.
#[test]
fn stateful_circuits_match_scalar_per_cycle() {
    let circuit = stateful_circuit();
    check_n("stateful_compiled", 8, |rng| {
        let lanes = 1 + rng.index(COMPILED_MAX_LANES);
        let cycles = 3 + rng.index(8);
        let mut compiled = CompiledSimulator::new(&circuit, lanes).expect("compiled");
        let mut scalars: Vec<Simulator> = (0..lanes)
            .map(|_| Simulator::new(&circuit).expect("scalar compile"))
            .collect();
        let out_ports = ["q", "tap", "ram_o", "mix"];
        for _cycle in 0..cycles {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for (port, width) in STATEFUL_INPUTS {
                    let v = any_vec(rng, width);
                    compiled.set_lane(port, lane, &v).expect("compiled set");
                    scalar.set(port, v).expect("scalar set");
                }
            }
            compiled.cycle(1).expect("compiled cycle");
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar.cycle(1).expect("scalar cycle");
                for port in out_ports {
                    assert_eq!(
                        compiled.peek_lane(port, lane).expect("compiled peek"),
                        scalar.peek(port).expect("scalar peek"),
                        "port {port} lane {lane} cycle {}",
                        scalar.cycle_count()
                    );
                }
                for path in scalar.state_elements().to_vec() {
                    match (compiled.ff_state_lane(&path, lane), scalar.ff_state(&path)) {
                        (Some(b), Some(s)) => assert_eq!(b, s, "ff {path} lane {lane}"),
                        (None, None) => {
                            assert_eq!(
                                compiled.memory_lane(&path, lane),
                                scalar.memory(&path),
                                "memory {path} lane {lane}"
                            );
                        }
                        (b, s) => panic!("state kind mismatch on {path}: {b:?} vs {s:?}"),
                    }
                }
            }
        }
    });
}

/// Reset restores power-on state in every lane and keeps inputs, like
/// the scalar simulator's reset.
#[test]
fn reset_matches_scalar() {
    let circuit = stateful_circuit();
    let mut compiled = CompiledSimulator::new(&circuit, 200).expect("compiled");
    let mut scalar = Simulator::new(&circuit).expect("scalar");
    for lane in [0, 70, 199] {
        compiled.set_u64_lane("d", lane, 5).expect("set");
        compiled.set_u64_lane("ce", lane, 1).expect("set");
        compiled.set_u64_lane("clr", lane, 0).expect("set");
        compiled.set_u64_lane("we", lane, 0).expect("set");
        compiled.set_u64_lane("a", lane, 2).expect("set");
    }
    scalar.set_u64("d", 5).expect("set");
    scalar.set_u64("ce", 1).expect("set");
    scalar.set_u64("clr", 0).expect("set");
    scalar.set_u64("we", 0).expect("set");
    scalar.set_u64("a", 2).expect("set");
    compiled.cycle(4).expect("cycle");
    scalar.cycle(4).expect("cycle");
    compiled.reset();
    scalar.reset();
    assert_eq!(compiled.cycle_count(), 0);
    compiled.cycle(1).expect("cycle");
    scalar.cycle(1).expect("cycle");
    for lane in [0, 70, 199] {
        for port in ["q", "tap", "ram_o", "mix"] {
            assert_eq!(
                compiled.peek_lane(port, lane).expect("compiled"),
                scalar.peek(port).expect("scalar"),
                "{port} after reset, lane {lane}"
            );
        }
    }
}

/// Relaxation-mode circuits (combinational cycles) also match: an SR
/// latch built from cross-coupled NORs, driven with a random
/// set/reset sequence per lane.
#[test]
fn relaxation_mode_matches_scalar() {
    let mut c = Circuit::new("latch");
    let mut ctx = c.root_ctx();
    let s = ctx.add_port(PortSpec::input("s", 1)).expect("s");
    let r = ctx.add_port(PortSpec::input("r", 1)).expect("r");
    let q = ctx.add_port(PortSpec::output("q", 1)).expect("q");
    let nq = ctx.wire("nq", 1);
    let nor = |ctx: &mut ipd_hdl::CellCtx<'_>, name: &str, a: Signal, b: Signal, o: Signal| {
        ctx.leaf(
            ipd_hdl::Primitive::new("virtex", "nor2"),
            vec![
                PortSpec::input("i0", 1),
                PortSpec::input("i1", 1),
                PortSpec::output("o", 1),
            ],
            name,
            &[("i0", a), ("i1", b), ("o", o)],
        )
        .expect("nor2");
    };
    nor(&mut ctx, "n0", r.into(), nq.into(), q.into());
    nor(&mut ctx, "n1", s.into(), q.into(), nq.into());

    // The same set/hold/reset sequence replayed per lane: the compiled
    // engine's prefix-once relaxation must land on the same fixpoints
    // as the scalar simulator's full-network iteration.
    let seqs: [(u64, u64); 5] = [(1, 0), (0, 0), (0, 1), (0, 0), (1, 0)];
    let lanes = 100;
    let mut compiled = CompiledSimulator::new(&c, lanes).expect("compiled");
    assert!(!compiled.is_levelized());
    for lane in 0..lanes {
        let mut scalar = Simulator::new(&c).expect("scalar");
        for &(sv, rv) in &seqs[..=lane % seqs.len()] {
            scalar.set_u64("s", sv).expect("set");
            scalar.set_u64("r", rv).expect("set");
            let _ = scalar.peek("q").expect("settle");
        }
        for &(sv, rv) in &seqs[..=lane % seqs.len()] {
            compiled
                .set_lane("s", lane, &LogicVec::from_u64(sv, 1))
                .expect("set");
            compiled
                .set_lane("r", lane, &LogicVec::from_u64(rv, 1))
                .expect("set");
            let _ = compiled.peek_lane("q", lane).expect("settle");
        }
        assert_eq!(
            compiled.peek_lane("q", lane).expect("compiled q"),
            scalar.peek("q").expect("scalar q"),
            "latch lane {lane}"
        );
    }
}

/// A buffered inverter ring settles to X under pessimistic four-state
/// relaxation (the power-on X is a fixpoint), as in the scalar
/// simulator.
#[test]
fn ring_settles_to_x() {
    let mut c = Circuit::new("osc");
    let mut ctx = c.root_ctx();
    let q = ctx.add_port(PortSpec::output("q", 1)).expect("q");
    let a = ctx.wire("a", 1);
    ctx.inv(a, q).expect("inv");
    ctx.buffer(q, a).expect("buf");
    let mut sim = CompiledSimulator::new(&c, 256).expect("compiled");
    assert!(!sim.is_levelized());
    for lane in [0, 63, 64, 255] {
        assert_eq!(sim.peek_lane("q", lane).expect("peek").bit(0), Logic::X);
    }
}

/// The stimulus ports of `stateful_circuit` with their widths.
const STATEFUL_INPUTS: [(&str, usize); 5] = [("ce", 1), ("clr", 1), ("we", 1), ("d", 4), ("a", 4)];

/// The compiled sweep agrees vector-for-vector with a scalar run of
/// each vector on random four-state stimulus, and its report covers
/// every vector.
#[test]
fn sweep_engines_agree_on_random_stimulus() {
    let circuit = stateful_circuit();
    check_n("sweep_engines", 4, |rng| {
        let mut scalar = Simulator::new(&circuit).expect("scalar");
        let count = 1 + rng.index(300);
        let stimuli: Vec<Vec<(String, LogicVec)>> = (0..count)
            .map(|_| {
                STATEFUL_INPUTS
                    .into_iter()
                    .map(|(port, width)| (port.to_owned(), any_vec(rng, width)))
                    .collect()
            })
            .collect();
        let report = VectorSweep::new(&circuit)
            .expect("sweep")
            .cycles(2)
            .run(&stimuli)
            .expect("compiled run");
        assert_eq!(report.total_vectors(), count);
        for (k, stim) in stimuli.iter().enumerate() {
            scalar.reset();
            for (port, value) in stim {
                scalar.set(port, value.clone()).expect("scalar set");
            }
            scalar.cycle(2).expect("scalar cycle");
            assert_eq!(report.outputs[k].len(), 4, "every output port");
            for (port, value) in &report.outputs[k] {
                assert_eq!(
                    value,
                    &scalar.peek(port).expect("scalar peek"),
                    "vector {k} port {port} (count {count})"
                );
            }
        }
    });
}

/// Lane-edge sweep sizes: counts straddling the 64-bit plane words and
/// the 256-lane shard width all produce scalar-identical outputs, the
/// right shard structure, and exact (never padded) per-shard vector
/// counts.
#[test]
fn sweep_lane_edges_match_scalar() {
    let circuit = stateful_circuit();
    let width = COMPILED_MAX_LANES;
    for count in [1usize, 63, 64, 65, 130, 257] {
        let stimuli: Vec<Vec<(String, LogicVec)>> = (0..count)
            .map(|k| {
                vec![
                    ("ce".to_owned(), LogicVec::from_u64(1, 1)),
                    ("clr".to_owned(), LogicVec::from_u64(0, 1)),
                    (
                        "we".to_owned(),
                        LogicVec::from_u64(u64::from(k % 2 == 0), 1),
                    ),
                    ("d".to_owned(), LogicVec::from_u64(k as u64 & 0xF, 4)),
                    ("a".to_owned(), LogicVec::from_u64((k as u64 >> 1) & 0xF, 4)),
                ]
            })
            .collect();
        let report = VectorSweep::new(&circuit)
            .expect("sweep compile")
            .cycles(2)
            .run(&stimuli)
            .expect("sweep run");
        assert_eq!(report.total_vectors(), count, "count {count}");
        assert_eq!(report.shards.len(), count.div_ceil(width), "shards {count}");
        // Every shard holds exactly the vectors it simulated; the final
        // partial shard is not padded to the plane width.
        for (s, stats) in report.shards.iter().enumerate() {
            let expect = (count - s * width).min(width);
            assert_eq!(stats.vectors, expect, "shard {s} count {count}");
        }
        assert_eq!(
            report.shards.iter().map(|s| s.vectors).sum::<usize>(),
            count
        );
        assert!(report.vectors_per_sec() > 0.0);
        // Scalar cross-check on a sample of vectors (all of them for
        // small counts).
        let stride = if count > 8 { 13 } else { 1 };
        for (k, stim) in stimuli.iter().enumerate().step_by(stride) {
            let mut scalar = Simulator::new(&circuit).expect("scalar");
            for (port, value) in stim {
                scalar.set(port, value.clone()).expect("set");
            }
            scalar.cycle(2).expect("cycle");
            for (port, value) in &report.outputs[k] {
                assert_eq!(
                    value,
                    &scalar.peek(port).expect("peek"),
                    "vector {k} port {port} (count {count})"
                );
            }
        }
    }
}

/// The state back doors agree across engines: random four-state
/// flip-flop bits and memory words forced through the scalar
/// `set_ff`/`set_memory` and through compiled lane `k` leave every net
/// and state element equal, before and after a clock edge. Refused
/// calls (an unknown path, or a path of the other state kind) return
/// `false` on both engines and change nothing.
#[test]
fn state_back_doors_agree_across_engines() {
    let circuit = stateful_circuit();
    let flat = FlatNetlist::build(&circuit).expect("flatten");
    let nets: Vec<String> = flat.nets().iter().map(|n| n.name.clone()).collect();
    check_n("state_back_doors", 6, |rng| {
        let lanes = 1 + rng.index(COMPILED_MAX_LANES);
        let mut compiled = CompiledSimulator::new(&circuit, lanes).expect("compiled");
        let mut scalars: Vec<Simulator> = (0..lanes)
            .map(|_| Simulator::new(&circuit).expect("scalar"))
            .collect();
        let paths = scalars[0].state_elements().to_vec();
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            for (port, width) in STATEFUL_INPUTS {
                let v = any_vec(rng, width);
                compiled.set_lane(port, lane, &v).expect("compiled set");
                scalar.set(port, v).expect("scalar set");
            }
            for path in &paths {
                if scalar.ff_state(path).is_some() {
                    let v = any_logic(rng);
                    assert!(scalar.set_ff(path, v), "scalar ff {path}");
                    assert!(compiled.set_ff_lane(path, lane, v), "compiled ff {path}");
                } else {
                    let v = any_vec(rng, 16);
                    assert!(scalar.set_memory(path, &v), "scalar word {path}");
                    assert!(
                        compiled.set_memory_lane(path, lane, &v),
                        "compiled word {path}"
                    );
                }
            }
        }
        for cycles in 0..2 {
            if cycles == 1 {
                compiled.cycle(1).expect("compiled cycle");
            }
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                if cycles == 1 {
                    scalar.cycle(1).expect("scalar cycle");
                }
                for net in &nets {
                    assert_eq!(
                        compiled.peek_net_lane(net, lane).expect("compiled net"),
                        scalar.peek_net(net).expect("scalar net"),
                        "net {net} lane {lane} after {cycles} cycle(s)"
                    );
                }
                for path in &paths {
                    assert_eq!(
                        compiled.ff_state_lane(path, lane),
                        scalar.ff_state(path),
                        "ff {path} lane {lane} after {cycles} cycle(s)"
                    );
                    assert_eq!(
                        compiled.memory_lane(path, lane),
                        scalar.memory(path),
                        "word {path} lane {lane} after {cycles} cycle(s)"
                    );
                }
            }
        }
    });

    let mut scalar = Simulator::new(&circuit).expect("scalar");
    let mut compiled = CompiledSimulator::new(&circuit, 1).expect("compiled");
    let paths = scalar.state_elements().to_vec();
    let ff = paths
        .iter()
        .find(|p| scalar.ff_state(p).is_some())
        .expect("an ff");
    let word = paths
        .iter()
        .find(|p| scalar.memory(p).is_some())
        .expect("a word");
    let value = LogicVec::from_u64(0xBEEF, 16);
    for path in ["stateful/nope", word.as_str()] {
        assert!(!scalar.set_ff(path, Logic::Z), "scalar set_ff {path}");
        assert!(
            !compiled.set_ff_lane(path, 0, Logic::Z),
            "compiled set_ff {path}"
        );
    }
    for path in ["stateful/nope", ff.as_str()] {
        assert!(!scalar.set_memory(path, &value), "scalar set_memory {path}");
        assert!(
            !compiled.set_memory_lane(path, 0, &value),
            "compiled set_memory {path}"
        );
    }
    let fresh = Simulator::new(&circuit).expect("scalar");
    for path in &paths {
        assert_eq!(scalar.ff_state(path), fresh.ff_state(path), "{path}");
        assert_eq!(scalar.memory(path), fresh.memory(path), "{path}");
        assert_eq!(
            compiled.ff_state_lane(path, 0),
            fresh.ff_state(path),
            "{path}"
        );
        assert_eq!(compiled.memory_lane(path, 0), fresh.memory(path), "{path}");
    }
}

/// Out-of-range lanes and invalid lane counts are rejected, not
/// wrapped, and the port list is the circuit's.
#[test]
fn lane_bounds_are_enforced() {
    let mut c = Circuit::new("buf");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).expect("a");
    let y = ctx.add_port(PortSpec::output("y", 1)).expect("y");
    ctx.buffer(a, y).expect("buf");
    let mut sim = CompiledSimulator::new(&c, 100).expect("compiled");
    assert!(matches!(
        sim.set_lane("a", 100, &LogicVec::from_u64(0, 1)),
        Err(SimError::LaneOutOfRange {
            lane: 100,
            lanes: 100
        })
    ));
    assert!(sim.peek_lane("y", 100).is_err());
    assert!(sim.set_lane("a", 99, &LogicVec::from_u64(1, 1)).is_ok());
    assert_eq!(sim.peek_lane("y", 99).expect("peek").to_u64(), Some(1));
    // Unset lanes read X through the buffer.
    assert_eq!(sim.peek_lane("y", 0).expect("peek").bit(0), Logic::X);
    assert!(matches!(
        CompiledSimulator::new(&c, 300),
        Err(SimError::InvalidLanes { lanes: 300 })
    ));
    let ports = sim.ports();
    assert_eq!(ports.len(), 2);
    assert_eq!(
        ports
            .iter()
            .filter(|(_, d, _)| *d == PortDir::Input)
            .count(),
        1
    );
}
