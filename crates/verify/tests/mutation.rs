//! Mutation coverage: single-gate faults injected into flattened
//! designs must be caught whenever they change function, and must NOT
//! be reported when they provably do not (equivalent mutants).
//!
//! Ground truth comes from the compiled simulator — an engine whose
//! code path shares nothing with the AIG/SAT pipeline above the
//! levelizer — so a verdict mismatch in either direction is a real
//! engine bug, not a flaky oracle.

use ipd_hdl::{Circuit, FlatKind, FlatNetlist, PortDir, PortSpec};
use ipd_sim::CompiledSimulator;
use ipd_techlib::{FlatIndex, LogicCtx};
use ipd_testutil::XorShift64;
use ipd_verify::{check_equiv, EquivConfig, EquivVerdict};

/// One single-gate mutation applied to a flattened design.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip one truth-table bit of the LUT at leaf `leaf`.
    LutFlip { leaf: usize, bit: usize },
    /// Swap the nets of two single-bit input connections of one leaf.
    InputSwap { leaf: usize, a: usize, b: usize },
    /// Tie LUT input `input` to constant zero (rewrites the truth
    /// table to its zero-cofactor along that variable).
    ConstTie { leaf: usize, input: usize },
}

/// LUT input count from the primitive name (`lut1`..`lut4`).
fn lut_inputs(name: &str) -> Option<usize> {
    name.strip_prefix("lut")
        .and_then(|k| k.parse::<usize>().ok())
        .filter(|k| (1..=4).contains(k))
}

/// Enumerates every applicable mutation site of a flattened design.
fn mutation_sites(flat: &FlatNetlist) -> Vec<Mutation> {
    let mut out = Vec::new();
    for (li, leaf) in flat.leaves().iter().enumerate() {
        let FlatKind::Primitive(prim) = &leaf.kind else {
            continue;
        };
        if let (Some(k), Some(_)) = (lut_inputs(&prim.name), prim.init) {
            for bit in 0..(1usize << k) {
                out.push(Mutation::LutFlip { leaf: li, bit });
            }
            for input in 0..k {
                out.push(Mutation::ConstTie { leaf: li, input });
            }
        }
        // Swappable connections: single-bit inputs that are not the
        // clock (reclocking would not flatten to the same cut).
        let swappable: Vec<usize> = leaf
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dir == PortDir::Input && c.nets.len() == 1 && c.port != "c")
            .map(|(i, _)| i)
            .collect();
        for i in 0..swappable.len() {
            for j in (i + 1)..swappable.len() {
                out.push(Mutation::InputSwap {
                    leaf: li,
                    a: swappable[i],
                    b: swappable[j],
                });
            }
        }
    }
    out
}

/// Applies one mutation to a clone of `flat`.
fn mutate(flat: &FlatNetlist, m: &Mutation) -> FlatNetlist {
    let mut out = flat.clone();
    match *m {
        Mutation::LutFlip { leaf, bit } => {
            let FlatKind::Primitive(prim) = &mut out.leaves_mut()[leaf].kind else {
                unreachable!("site enumeration only picks primitives");
            };
            let init = prim.init.expect("LUT has INIT");
            prim.init = Some(init ^ (1 << bit));
        }
        Mutation::InputSwap { leaf, a, b } => {
            let conns = &mut out.leaves_mut()[leaf].conns;
            let net_a = conns[a].nets[0];
            let net_b = conns[b].nets[0];
            conns[a].nets[0] = net_b;
            conns[b].nets[0] = net_a;
        }
        Mutation::ConstTie { leaf, input } => {
            let FlatKind::Primitive(prim) = &mut out.leaves_mut()[leaf].kind else {
                unreachable!("site enumeration only picks primitives");
            };
            let k = lut_inputs(&prim.name).expect("LUT leaf");
            let init = prim.init.expect("LUT has INIT");
            let mut tied = 0u64;
            for row in 0..(1usize << k) {
                let src = row & !(1usize << input);
                tied |= ((init >> src) & 1) << row;
            }
            prim.init = Some(tied);
        }
    }
    out
}

/// Random loop-free network over `pis` single-bit inputs, rich in
/// LUTs so every mutation operator has sites.
fn random_design(rng: &mut XorShift64, pis: usize) -> Circuit {
    let mut c = Circuit::new("mut");
    let mut ctx = c.root_ctx();
    let mut sigs: Vec<ipd_hdl::Signal> = (0..pis)
        .map(|i| {
            ctx.add_port(PortSpec::input(format!("in{i}"), 1))
                .unwrap()
                .into()
        })
        .collect();
    let gates = 5 + rng.index(10);
    for g in 0..gates {
        let out = ctx.wire(&format!("w{g}"), 1);
        let x = sigs[rng.index(sigs.len())].clone();
        let y = sigs[rng.index(sigs.len())].clone();
        let z = sigs[rng.index(sigs.len())].clone();
        match rng.index(3) {
            0 => {
                let init = (rng.next_u64() & 0xF) as u16;
                ctx.lut(init, &[x, y], out).unwrap()
            }
            1 => {
                let init = (rng.next_u64() & 0xFF) as u16;
                ctx.lut(init, &[x, y, z], out).unwrap()
            }
            _ => ctx.mux2(x, y, z, out).unwrap(),
        };
        sigs.push(out.into());
    }
    // Tap the last two signals so faults near the top stay observable.
    let y0 = ctx.add_port(PortSpec::output("y0", 1)).unwrap();
    let y1 = ctx.add_port(PortSpec::output("y1", 1)).unwrap();
    ctx.buffer(sigs[sigs.len() - 1].clone(), y0).unwrap();
    ctx.buffer(sigs[sigs.len() - 2].clone(), y1).unwrap();
    c
}

/// Exhaustive output comparison of two combinational designs over all
/// `2^pis` input vectors; `true` means they differ somewhere.
fn differ_exhaustively(a: &FlatNetlist, b: &FlatNetlist, pis: usize) -> bool {
    let total = 1usize << pis;
    let lanes = total.min(64);
    let out_ports: Vec<String> = a
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .collect();
    for base in (0..total).step_by(lanes) {
        let mut sa = CompiledSimulator::from_flat(a, None, lanes).expect("sim a");
        let mut sb = CompiledSimulator::from_flat(b, None, lanes).expect("sim b");
        for lane in 0..lanes {
            let v = (base + lane) as u64;
            for i in 0..pis {
                sa.set_u64_lane(&format!("in{i}"), lane, (v >> i) & 1)
                    .unwrap();
                sb.set_u64_lane(&format!("in{i}"), lane, (v >> i) & 1)
                    .unwrap();
            }
        }
        for port in &out_ports {
            for lane in 0..lanes {
                if sa.peek_lane(port, lane).unwrap() != sb.peek_lane(port, lane).unwrap() {
                    return true;
                }
            }
        }
    }
    false
}

/// Every mutation of a small random design is classified exhaustively
/// and the engine's verdict must match in BOTH directions: catch all
/// real faults, report no false ones.
#[test]
fn random_design_mutations_match_exhaustive_ground_truth() {
    let caught = std::cell::Cell::new(0usize);
    ipd_testutil::check_n("mutation ground truth", 12, |rng| {
        let pis = 4 + rng.index(3); // 4..=6 inputs, exhaustible
        let circuit = random_design(rng, pis);
        let golden = FlatNetlist::build(&circuit).expect("flatten");
        let sites = mutation_sites(&golden);
        assert!(!sites.is_empty(), "design has mutation sites");
        // A bounded random sample keeps the suite fast while the site
        // choice still varies per case.
        for _ in 0..6 {
            let m = &sites[rng.index(sites.len())];
            let mutant = mutate(&golden, m);
            let truly_different = differ_exhaustively(&golden, &mutant, pis);
            let report = check_equiv(
                &FlatIndex::new(&golden),
                &FlatIndex::new(&mutant),
                &EquivConfig::default(),
            )
            .expect("check runs");
            match (truly_different, &report.verdict) {
                (true, EquivVerdict::Equivalent) => {
                    panic!("MISSED mutation {m:?}: designs differ but engine proved equal")
                }
                (false, EquivVerdict::NotEquivalent(cex)) => {
                    panic!("FALSE ALARM on {m:?}: equivalent mutant refuted with {cex:?}")
                }
                (true, EquivVerdict::NotEquivalent(_)) => caught.set(caught.get() + 1),
                (false, EquivVerdict::Equivalent) => {}
            }
        }
    });
    // The sample must actually have exercised the catching path.
    assert!(
        caught.get() >= 20,
        "only {} real mutants in the sample",
        caught.get()
    );
}

/// Zoo designs: inject mutations and cross-check against randomized
/// simulation. Any mutant the simulator can distinguish, the engine
/// must refute; anything the engine refutes was already
/// replay-confirmed inside `check_equiv`.
#[test]
fn zoo_mutations_are_caught() {
    let mut rng = XorShift64::new(0x5eed_0001);
    let mut sim_different = 0usize;
    for (name, circuit) in ipd_modgen::example_zoo() {
        let golden = FlatNetlist::build(&circuit).expect("flatten");
        let sites = mutation_sites(&golden);
        if sites.is_empty() {
            continue;
        }
        for _ in 0..4 {
            let m = &sites[rng.index(sites.len())];
            let mutant = mutate(&golden, m);
            let Some(differs) = differ_randomly(&golden, &mutant, &mut rng) else {
                continue; // mutant broke clocking; not a fair fault
            };
            let report = match check_equiv(
                &FlatIndex::new(&golden),
                &FlatIndex::new(&mutant),
                &EquivConfig::default(),
            ) {
                Ok(r) => r,
                Err(e) => panic!("{name} mutation {m:?}: {e}"),
            };
            if differs {
                sim_different += 1;
                assert!(
                    !report.is_equivalent(),
                    "{name}: MISSED mutation {m:?} (simulation distinguishes the designs)"
                );
            }
        }
    }
    assert!(
        sim_different >= 10,
        "sample too weak: {sim_different} distinguishable mutants"
    );
}

/// Randomized differential run over both designs: same stimulus,
/// several cycles, all outputs compared every cycle. `None` when the
/// mutant cannot even be simulated (e.g. a swap broke clocking).
fn differ_randomly(a: &FlatNetlist, b: &FlatNetlist, rng: &mut XorShift64) -> Option<bool> {
    let lanes = 32;
    let clock = a.port("clk").map(|_| "clk");
    let mut sa = CompiledSimulator::from_flat(a, clock, lanes).ok()?;
    let mut sb = CompiledSimulator::from_flat(b, clock, lanes).ok()?;
    let in_ports: Vec<(String, usize)> = a
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input && Some(p.name.as_str()) != clock)
        .map(|p| (p.name.clone(), p.nets.len()))
        .collect();
    let out_ports: Vec<String> = a
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .collect();
    for _cycle in 0..6 {
        for (port, width) in &in_ports {
            for lane in 0..lanes {
                let mask = if *width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << *width) - 1
                };
                let v = ipd_hdl::LogicVec::from_u64(rng.next_u64() & mask, *width);
                sa.set_lane(port, lane, &v).ok()?;
                sb.set_lane(port, lane, &v).ok()?;
            }
        }
        for port in &out_ports {
            for lane in 0..lanes {
                let va = sa.peek_lane(port, lane).ok()?;
                let vb = sb.peek_lane(port, lane).ok()?;
                if va != vb {
                    return Some(true);
                }
            }
        }
        if clock.is_some() {
            sa.cycle(1).ok()?;
            sb.cycle(1).ok()?;
        }
    }
    Some(false)
}
