//! Router validity over the generator zoo: every design in
//! [`ipd_modgen::example_zoo`] is placed (hand `RLOC`s pinned) and
//! routed, and the routed trees are checked independently of the
//! router's own bookkeeping — sinks reached exactly once, trees
//! connected, capacities respected at convergence (or overflow
//! reported honestly), delays dominated from below by the Manhattan
//! heuristic, and full determinism per seed.

use std::collections::{HashMap, HashSet, VecDeque};

use ipd_estimate::{estimate_timing, place_and_route, PhysicalDesign, PnrConfig};
use ipd_hdl::{FlatNetlist, Rloc};
use ipd_modgen::example_zoo;

fn routed_zoo() -> Vec<(String, PhysicalDesign)> {
    example_zoo()
        .into_iter()
        .map(|(name, circuit)| {
            let phys = place_and_route(&circuit, &PnrConfig::virtex())
                .unwrap_or_else(|e| panic!("{name}: place_and_route failed: {e}"));
            (name, phys)
        })
        .collect()
}

#[test]
fn every_sink_is_reached_exactly_once() {
    for (name, phys) in routed_zoo() {
        for net in &phys.routing.nets {
            assert!(
                !net.sinks.is_empty(),
                "{name}: net {} has no sinks",
                net.name
            );
            let mut seen = HashSet::new();
            for sink in &net.sinks {
                assert!(
                    seen.insert(sink.loc),
                    "{name}: net {} reaches sink {} twice",
                    net.name,
                    sink.loc
                );
            }
        }
    }
}

#[test]
fn routed_trees_are_connected_and_cover_their_sinks() {
    for (name, phys) in routed_zoo() {
        for net in &phys.routing.nets {
            // BFS over the undirected segment list from the source.
            let mut adjacency: HashMap<Rloc, Vec<Rloc>> = HashMap::new();
            for &(a, b) in &net.segments {
                adjacency.entry(a).or_default().push(b);
                adjacency.entry(b).or_default().push(a);
            }
            let mut reached = HashSet::new();
            reached.insert(net.source);
            let mut queue = VecDeque::from([net.source]);
            while let Some(cur) = queue.pop_front() {
                for &next in adjacency.get(&cur).into_iter().flatten() {
                    if reached.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
            for sink in &net.sinks {
                assert!(
                    reached.contains(&sink.loc),
                    "{name}: net {} sink {} disconnected from source {}",
                    net.name,
                    sink.loc,
                    net.source
                );
            }
            // A tree: segment count equals reached cells minus one.
            assert_eq!(
                net.segments.len(),
                reached.len() - 1,
                "{name}: net {} route is not a tree",
                net.name
            );
        }
    }
}

#[test]
fn capacities_hold_at_convergence_or_overflow_is_honest() {
    for (name, phys) in routed_zoo() {
        // Recompute channel occupancy from the published segment lists,
        // independent of the router's internal accounting.
        let mut occupancy: HashMap<(Rloc, Rloc), u32> = HashMap::new();
        for net in &phys.routing.nets {
            for &(a, b) in &net.segments {
                let key = if a < b { (a, b) } else { (b, a) };
                *occupancy.entry(key).or_insert(0) += 1;
            }
        }
        let cap = u32::from(phys.routing.stats.channel_capacity);
        let overused = occupancy.values().filter(|&&o| o > cap).count();
        if phys.routing.stats.converged {
            assert_eq!(
                overused, 0,
                "{name}: claims convergence with {overused} overused segment(s)"
            );
            assert_eq!(phys.routing.stats.overused_segments, 0, "{name}");
        } else {
            assert!(
                phys.routing.stats.overused_segments > 0,
                "{name}: unconverged but reports no overuse"
            );
            assert_eq!(
                phys.routing.stats.overused_segments, overused,
                "{name}: reported overuse disagrees with the segment lists"
            );
        }
    }
}

#[test]
fn routing_is_deterministic_per_seed_across_the_zoo() {
    for ((name, a), (_, b)) in routed_zoo().into_iter().zip(routed_zoo()) {
        assert_eq!(a.routing.stats, b.routing.stats, "{name}: stats differ");
        assert_eq!(
            a.routing.nets.len(),
            b.routing.nets.len(),
            "{name}: net counts differ"
        );
        for (na, nb) in a.routing.nets.iter().zip(&b.routing.nets) {
            assert_eq!(na, nb, "{name}: net {} routed differently", na.name);
        }
    }
}

#[test]
fn routed_delays_dominate_the_placed_heuristic() {
    for (name, phys) in routed_zoo() {
        let flat = FlatNetlist::build(phys.circuit()).expect("flatten");
        let drivers = flat.drivers();
        // Per sink: routed delay ≥ heuristic placed delay, because the
        // routed wire length is at least the Manhattan distance.
        for net in &phys.routing.nets {
            let (dli, _) = drivers[net.net.index()][0];
            let from = flat.leaves()[dli]
                .loc
                .expect("routed nets have placed drivers");
            for sink in &net.sinks {
                let manhattan = (sink.loc.row - from.row).unsigned_abs()
                    + (sink.loc.col - from.col).unsigned_abs();
                assert!(
                    sink.wirelength >= manhattan,
                    "{name}: net {} sink {} wirelength {} below Manhattan {}",
                    net.name,
                    sink.loc,
                    sink.wirelength,
                    manhattan
                );
                let heuristic = phys.model.net_delay_placed(from, sink.loc, net.fanout);
                assert!(
                    sink.delay_ns >= heuristic - 1e-12,
                    "{name}: net {} sink {}: routed {} < heuristic {}",
                    net.name,
                    sink.loc,
                    sink.delay_ns,
                    heuristic
                );
            }
        }
        // And in aggregate: the routed critical path can only be
        // slower than the heuristic on the same placement.
        let heuristic = estimate_timing(phys.circuit()).expect("heuristic timing");
        let routed = phys.timing().expect("routed timing");
        assert!(
            routed.critical_path_ns >= heuristic.critical_path_ns - 1e-9,
            "{name}: routed {} < heuristic {}",
            routed.critical_path_ns,
            heuristic.critical_path_ns
        );
    }
}
