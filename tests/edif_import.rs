//! The interchange fidelity guarantee: a netlist generated by an
//! applet, re-imported from EDIF text, behaves exactly like the
//! original circuit — the "import into the user's conventional design
//! environment" path, closed end to end.

use ipd::estimate::estimate_timing;
use ipd::hdl::{Circuit, FlatNetlist, Generator};
use ipd::lint::Linter;
use ipd::modgen::{
    ArrayMultiplier, BarrelShifter, Comparator, CompareOp, CountDirection, Counter, FirFilter,
    GrayCounter, KcmMultiplier, Lfsr, PopCount, Register, RippleAdder, Rom, ShiftRegister,
};
use ipd::netlist::{edif_string, read_edif};
use ipd::sim::{CompiledSimulator, Simulator};
use ipd::techlib::FlatIndex;
use ipd::verify::{check_equiv, EquivConfig};

fn zoo() -> Vec<Box<dyn Generator>> {
    vec![
        Box::new(RippleAdder::new(8).with_cin().with_cout()),
        Box::new(Comparator::new(6, CompareOp::Lt)),
        Box::new(Counter::new(6, CountDirection::Down)),
        Box::new(Register::new(8).with_ce().with_clr()),
        Box::new(ShiftRegister::new(2, 18)),
        Box::new(Rom::new(5, 8, (0..32).map(|i| i * 7 % 256).collect()).expect("rom")),
        Box::new(KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true)),
        Box::new(ArrayMultiplier::new(5, 5)),
        Box::new(FirFilter::new(vec![2, -3, 4], 6).expect("fir")),
        Box::new(GrayCounter::new(5)),
        Box::new(Lfsr::maximal(8)),
        Box::new(BarrelShifter::new(8)),
        Box::new(PopCount::new(9)),
    ]
}

/// Deterministic input patterns per port width.
fn patterns(width: u32, round: u64) -> u64 {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    (0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(round + 3)
        .rotate_left((round * 7) as u32))
        & mask
}

#[test]
fn imported_edif_simulates_identically() {
    for generator in zoo() {
        let name = generator.type_name();
        let original = Circuit::from_generator(generator.as_ref()).expect("build");
        let text = edif_string(&original).expect("emit");
        let imported = read_edif(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            imported.primitive_count(),
            original.primitive_count(),
            "{name}: primitive count"
        );

        let mut sim_a = Simulator::new(&original).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut sim_b =
            Simulator::new(&imported).unwrap_or_else(|e| panic!("{name} (imported): {e}"));
        let ports = sim_a.ports();
        for round in 0..6u64 {
            for (port, dir, width) in &ports {
                if *dir == ipd::hdl::PortDir::Input && port != "clk" {
                    let value =
                        ipd::hdl::LogicVec::from_u64(patterns(*width, round), *width as usize);
                    sim_a.set(port, value.clone()).expect("set a");
                    sim_b.set(port, value).expect("set b");
                }
            }
            sim_a.cycle(1).expect("cycle a");
            sim_b.cycle(1).expect("cycle b");
            for (port, dir, _) in &ports {
                if *dir == ipd::hdl::PortDir::Output {
                    assert_eq!(
                        sim_a.peek(port).expect("peek a"),
                        sim_b.peek(port).expect("peek b"),
                        "{name}: output {port} diverged at round {round}"
                    );
                }
            }
        }
    }
}

#[test]
fn import_preserves_placement_and_estimates() {
    let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
    let original = Circuit::from_generator(&kcm).unwrap();
    let imported = read_edif(&edif_string(&original).unwrap()).unwrap();
    let area_a = ipd::estimate::estimate_area(&original).unwrap();
    let area_b = ipd::estimate::estimate_area(&imported).unwrap();
    assert_eq!(
        area_a.total, area_b.total,
        "area identical after round trip"
    );
    let t_a = ipd::estimate::estimate_timing(&original).unwrap();
    let t_b = ipd::estimate::estimate_timing(&imported).unwrap();
    assert!(
        (t_a.critical_path_ns - t_b.critical_path_ns).abs() < 1e-6,
        "timing identical after round trip ({} vs {})",
        t_a.critical_path_ns,
        t_b.critical_path_ns
    );
    assert!(t_b.placed_fraction > 0.0, "RLOCs survived the EDIF text");
}

#[test]
fn import_round_trips_twice() {
    // Emit → import → emit again: the second emission must describe
    // the same design (idempotent modulo uniquified names).
    let adder = RippleAdder::new(6).with_cout();
    let original = Circuit::from_generator(&adder).unwrap();
    let once = read_edif(&edif_string(&original).unwrap()).unwrap();
    let twice = read_edif(&edif_string(&once).unwrap()).unwrap();
    assert_eq!(once.primitive_count(), twice.primitive_count());
    let mut s1 = Simulator::new(&once).unwrap();
    let mut s2 = Simulator::new(&twice).unwrap();
    s1.set_u64("a", 21).unwrap();
    s1.set_u64("b", 42).unwrap();
    s2.set_u64("a", 21).unwrap();
    s2.set_u64("b", 42).unwrap();
    assert_eq!(s1.peek("s").unwrap(), s2.peek("s").unwrap());
}

#[test]
fn watermarked_obfuscated_netlist_reimports_and_verifies() {
    // The complete leak-forensics loop: watermark → obfuscate →
    // netlist → (leak) → reimport → identify the customer.
    let mut circuit =
        Circuit::from_generator(&KcmMultiplier::new(-77, 8, 15).signed(true)).unwrap();
    ipd::core::embed_watermark(&mut circuit, "acme", "kcm", b"vendor-key").unwrap();
    let delivered = ipd::core::obfuscate(&circuit).unwrap();
    let leaked_text = edif_string(&delivered).unwrap();
    let recovered = read_edif(&leaked_text).unwrap();
    assert!(ipd::core::verify_watermark(
        &recovered,
        "acme",
        "kcm",
        b"vendor-key"
    ));
    assert!(!ipd::core::verify_watermark(
        &recovered,
        "rival",
        "kcm",
        b"vendor-key"
    ));
    // And the recovered circuit still works.
    let mut sim = Simulator::new(&recovered).unwrap();
    sim.set_i64("multiplicand", 3).unwrap();
    assert_eq!(sim.peek("product").unwrap().to_i64(), Some(-231));
}

/// The committed `redundant.edif` fixture, and the same text with the
/// `i1` pin deleted from its `lut2` cell's interface and from the net
/// that reached it: an interface the technology library disagrees with.
fn redundant_and_lut2_without_i1() -> (Circuit, Circuit) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/redundant.edif");
    let text = std::fs::read_to_string(path).expect("fixture");
    let (head, lut2) = text.split_once("(cell lut2").expect("lut2 cell");
    let lut2 = lut2.replacen("(port i1 (direction INPUT))", "", 1);
    let mutated = format!("{head}(cell lut2{lut2}").replace(" (portRef i1 (instanceRef lut2))", "");
    assert_ne!(mutated.len(), text.len(), "the mutation applies");
    (
        read_edif(&text).expect("fixture parses"),
        read_edif(&mutated).expect("mutation still parses"),
    )
}

#[test]
fn primitive_missing_a_library_pin_is_refused_not_a_panic() {
    let refusal = "primitive lut2 needs port i1 of width 1";
    let (golden, circuit) = redundant_and_lut2_without_i1();
    let index = FlatIndex::new(FlatNetlist::build(&circuit).expect("flattens"));
    assert_eq!(index.unknown_primitives().len(), 1);
    assert_eq!(index.unknown_primitives()[0].1.to_string(), refusal);

    let report = Linter::new().run_index(&index);
    let diag = report
        .by_rule("unknown-primitive")
        .next()
        .expect("lint reports the leaf");
    assert!(diag.message.contains(refusal), "{}", diag.message);
    assert!(report.error_count() >= 1);

    let sta = estimate_timing(&circuit);
    assert!(
        matches!(&sta, Err(e) if e.to_string().contains(refusal)),
        "{sta:?}"
    );
    let scalar = Simulator::new(&circuit).map(|_| ());
    assert!(
        matches!(&scalar, Err(e) if e.to_string().contains(refusal)),
        "{scalar:?}"
    );
    let compiled = CompiledSimulator::new(&circuit, 64).map(|_| ());
    assert!(
        matches!(&compiled, Err(e) if e.to_string().contains(refusal)),
        "{compiled:?}"
    );

    let golden_flat = FlatNetlist::build(&golden).expect("flattens");
    let equiv = check_equiv(
        &FlatIndex::new(golden_flat),
        &index,
        &EquivConfig::default(),
    )
    .map(|_| ());
    assert!(
        matches!(&equiv, Err(e) if e.to_string().contains(refusal)),
        "{equiv:?}"
    );
}
