//! The physical flow elaborates once: the placer writes leaf locations
//! into the design's index instead of re-flattening the placed
//! circuit. Across the generator zoo, under both placer modes, the
//! index's locations must be exactly the ones the placed circuit's
//! `RLOC`s compose to, including a moved leaf's `RLOC` under a placed
//! composite cell.

use ipd_estimate::{auto_place, place_and_route, PlacerMode, PnrConfig};
use ipd_hdl::{Circuit, FlatNetlist, FnGenerator, PortSpec, Rloc, Signal};
use ipd_modgen::example_zoo;
use ipd_techlib::LogicCtx;

/// Two placed instances of a half-placed inverter pair. Each pair's
/// second inverter carries no `RLOC`, so the pinned placer moves it
/// under a placed composite cell; no zoo generator leaves a leaf
/// unplaced inside a placed composite.
fn placed_composites() -> Circuit {
    let pair = FnGenerator::new(
        "pair",
        vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
        |ctx| {
            let i = ctx.port("i")?;
            let o = ctx.port("o")?;
            let t = ctx.wire("t", 1);
            let first = ctx.inv(i, t)?;
            ctx.set_rloc(first, Rloc::new(0, 0));
            ctx.inv(t, o)?;
            Ok(())
        },
    );
    let mut c = Circuit::new("composites");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 2)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 2)).unwrap();
    for bit in 0..2u32 {
        let bind = [("i", Signal::bit_of(a, bit)), ("o", Signal::bit_of(y, bit))];
        let u = ctx.instantiate(&pair, &format!("u{bit}"), &bind).unwrap();
        ctx.set_rloc(u, Rloc::new(3 * bit as i32 + 1, 2));
    }
    c
}

fn locations(flat: &FlatNetlist) -> Vec<(&str, Option<Rloc>)> {
    flat.leaves()
        .iter()
        .map(|leaf| (leaf.path.as_str(), leaf.loc))
        .collect()
}

#[test]
fn placed_index_matches_the_placed_circuit_across_the_zoo() {
    let mut moved_under_placed_ancestor = 0usize;
    let designs = example_zoo()
        .into_iter()
        .chain([("composites".to_owned(), placed_composites())]);
    for (name, circuit) in designs {
        let before = FlatNetlist::build(&circuit).expect("flattens");
        for mode in [PlacerMode::Pinned, PlacerMode::Scratch] {
            let mut config = PnrConfig::virtex();
            config.placer.mode = mode;
            let phys = place_and_route(&circuit, &config)
                .unwrap_or_else(|e| panic!("{name} {mode:?}: place_and_route failed: {e}"));
            let placed = phys.index().flat();
            let reflattened = FlatNetlist::build(phys.circuit()).expect("placed circuit flattens");
            assert_eq!(
                locations(placed),
                locations(&reflattened),
                "{name} {mode:?}: index and placed circuit disagree"
            );

            // `auto_place` runs the same placer on its own index: its
            // placed circuit flattens to the locations that placer wrote.
            let auto = auto_place(&circuit, &config.placer).expect("auto_place");
            let auto_flat = FlatNetlist::build(&auto.circuit).expect("flattens");
            assert_eq!(
                locations(&auto_flat),
                locations(placed),
                "{name} {mode:?}: auto_place disagrees with place_and_route"
            );
            assert_eq!(auto.final_wirelength, phys.placement.final_wirelength);
            assert_eq!(auto.accepted_moves, phys.placement.accepted_moves);

            for (old, new) in before.leaves().iter().zip(placed.leaves()) {
                let moved = old.loc != new.loc && new.loc.is_some();
                if moved && phys.circuit().ancestor_rloc(new.cell) != Rloc::default() {
                    moved_under_placed_ancestor += 1;
                }
            }
        }
    }
    assert!(
        moved_under_placed_ancestor > 0,
        "no zoo design moved a leaf under a placed composite cell"
    );
}
