//! A simulated-annealing placer.
//!
//! The paper's module generators ship *hand-crafted* relative placement
//! and sell it through the layout viewer. To quantify that choice, this
//! placer provides the middle baseline: automatic placement by annealing
//! on half-perimeter wirelength, between "no placement at all" (router
//! guesses) and the generator's hand layout.
//!
//! The annealer reads leaf kinds and net membership from the design's
//! [`FlatIndex`] and writes the leaf locations it chooses back into it
//! ([`FlatIndex::set_locations`]), so routing and STA need no second
//! elaboration. The placed [`Circuit`] carries the same placement as
//! `RLOC`s.

use ipd_hdl::{Circuit, FlatNetlist, NetId, Rloc};
use ipd_techlib::{area_of, FlatIndex};

use crate::error::EstimateError;
use crate::route::bounding_box;

/// What the annealer is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacerMode {
    /// Discard all existing placement and anneal every placeable leaf.
    #[default]
    Scratch,
    /// Keep already-placed leaves pinned at their hand `RLOC`s and
    /// anneal only the unplaced leaves into the free sites around
    /// them. The hand layout is preserved bit-for-bit.
    Pinned,
}

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerConfig {
    /// RNG seed (placement is deterministic per seed).
    pub seed: u64,
    /// Proposed moves per placeable leaf.
    pub moves_per_leaf: u32,
    /// Starting temperature, in cost units.
    pub initial_temperature: f64,
    /// Multiplicative cooling applied each sweep.
    pub cooling: f64,
    /// Whether existing `RLOC`s are discarded or pinned.
    pub mode: PlacerMode,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            seed: 0x5EED_CAFE,
            moves_per_leaf: 400,
            initial_temperature: 8.0,
            cooling: 0.95,
            mode: PlacerMode::Scratch,
        }
    }
}

/// The outcome of automatic placement.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// The placed circuit (every slice-consuming leaf has an absolute
    /// `RLOC`; prior placement is discarded in [`PlacerMode::Scratch`]
    /// and preserved bit-for-bit in [`PlacerMode::Pinned`]).
    pub circuit: Circuit,
    /// Half-perimeter wirelength of the random initial placement.
    pub initial_wirelength: f64,
    /// Half-perimeter wirelength after annealing.
    pub final_wirelength: f64,
    /// Accepted moves.
    pub accepted_moves: u64,
    /// Grid side length used.
    pub grid_side: u32,
}

/// Places a circuit automatically with simulated annealing.
///
/// [`PlacerMode::Scratch`] (the default) discards any existing
/// placement and anneals every slice-consuming leaf.
/// [`PlacerMode::Pinned`] keeps hand-placed leaves fixed at their
/// `RLOC`s and anneals only the unplaced remainder into the open sites
/// around them — the paper's hand layouts stay authoritative while the
/// glue logic finds a home.
///
/// # Errors
///
/// Propagates flattening errors, and refuses what
/// [`FlatIndex::check_primitives`] refuses.
///
/// # Examples
///
/// ```
/// use ipd_estimate::{auto_place, PlacerConfig};
/// use ipd_hdl::{Circuit, PortSpec, Signal};
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("xor_chain");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 8))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// let mut cur: Signal = Signal::bit_of(a, 0);
/// for b in 1..8 {
///     let t = ctx.wire("t", 1);
///     ctx.xor2(cur, Signal::bit_of(a, b), t)?;
///     cur = t.into();
/// }
/// ctx.buffer(cur, y)?;
///
/// let placed = auto_place(&circuit, &PlacerConfig::default())?;
/// assert!(placed.final_wirelength <= placed.initial_wirelength);
/// # Ok(())
/// # }
/// ```
pub fn auto_place(
    circuit: &Circuit,
    config: &PlacerConfig,
) -> Result<PlacementResult, EstimateError> {
    let mut index = FlatIndex::new(FlatNetlist::build(circuit)?);
    place(circuit, &mut index, config)
}

/// Anneals the slice-consuming leaves of `circuit`, whose index is
/// `index`, and writes every leaf's resulting location into the index.
pub(crate) fn place(
    circuit: &Circuit,
    index: &mut FlatIndex,
    config: &PlacerConfig,
) -> Result<PlacementResult, EstimateError> {
    index.check_primitives()?;
    let flat = index.flat();
    let pinned_mode = config.mode == PlacerMode::Pinned;
    // Placeable leaves: anything that occupies fabric (zero-cost
    // buffers/constants/pads float; a black box, whose kind is `None`,
    // occupies). In pinned mode, already-placed leaves keep their
    // absolute location and never move.
    let mut leaves = Vec::new();
    let mut fixed: Vec<Option<Rloc>> = Vec::new();
    // Leaf → its index within `leaves`.
    let mut slot: Vec<Option<usize>> = vec![None; flat.leaves().len()];
    for (li, (leaf, kind)) in flat.leaves().iter().zip(index.kinds()).enumerate() {
        let occupies = kind.is_none_or(|kind| {
            let a = area_of(&kind);
            a.luts + a.ffs + a.carries > 0
        });
        if occupies {
            slot[li] = Some(leaves.len());
            leaves.push(li);
            fixed.push(if pinned_mode { leaf.loc } else { None });
        }
    }
    let n = leaves.len();
    if n == 0 {
        return Ok(PlacementResult {
            circuit: commit(circuit, index, config.mode, &[]),
            initial_wirelength: 0.0,
            final_wirelength: 0.0,
            accepted_moves: 0,
            grid_side: 0,
        });
    }
    let free: Vec<usize> = (0..n).filter(|&i| fixed[i].is_none()).collect();
    let n_free = free.len();

    // The site grid. From scratch: a square with ~40% slack. Pinned:
    // the pinned bounding box, grown until ~40% slack worth of open
    // sites exists for the free leaves.
    let bbox = bounding_box(fixed.iter().flatten().copied());
    let needed = ((n_free as f64) * 1.4).ceil() as usize;
    let (row0, col0, mut height, mut width) = match bbox {
        Some((r0, c0, r1, c1)) => (r0, c0, (r1 - r0 + 1) as u32, (c1 - c0 + 1) as u32),
        None => {
            let side = ((n as f64 * 1.4).sqrt().ceil() as u32).max(2);
            (0, 0, side, side)
        }
    };
    let pinned_locs: std::collections::HashSet<Rloc> = fixed.iter().flatten().copied().collect();
    while ((height * width) as usize).saturating_sub(pinned_locs.len()) < needed {
        if width <= height {
            width += 1;
        } else {
            height += 1;
        }
    }
    let (width, height) = (width, height);
    let grid_side = width.max(height);
    let sites = (height * width) as usize;
    let site_at = |loc: Rloc| -> usize {
        ((loc.row - row0) as u32 * width + (loc.col - col0) as u32) as usize
    };
    let mut blocked = vec![false; sites];
    for &loc in &pinned_locs {
        blocked[site_at(loc)] = true;
    }

    // Net membership: for each net spanning 2+ placeable leaves, the
    // indices (within `leaves`) of the leaves driving or reading it.
    let mut net_members: Vec<Vec<usize>> = Vec::new();
    for net in (0..flat.net_count()).map(NetId::from_index) {
        let pins = index.drivers_of(net).iter().chain(index.readers_of(net));
        let mut members: Vec<usize> = pins.filter_map(|&(li, _)| slot[li]).collect();
        members.sort_unstable();
        members.dedup();
        if members.len() >= 2 {
            net_members.push(members);
        }
    }
    // Per-leaf net list for incremental cost evaluation.
    let mut leaf_nets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ni, members) in net_members.iter().enumerate() {
        for &li in members {
            leaf_nets[li].push(ni);
        }
    }

    // Initial placement: pinned leaves at their sites, free leaves
    // shuffled onto the first open sites; remaining sites empty.
    // position[li] = site index; site_of[site] = Some(li) for free
    // leaves only (pinned leaves never participate in moves and may
    // legally share a CLB with each other).
    let mut rng = XorShift64::new(config.seed | 1);
    let open: Vec<usize> = (0..sites).filter(|&s| !blocked[s]).collect();
    let mut assign: Vec<usize> = (0..n_free).collect();
    for i in (1..n_free).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        assign.swap(i, j);
    }
    let mut position: Vec<usize> = vec![0; n];
    for (i, &li) in free.iter().enumerate() {
        position[li] = open[assign[i]];
    }
    for (li, f) in fixed.iter().enumerate() {
        if let Some(loc) = f {
            position[li] = site_at(*loc);
        }
    }
    let mut site_of: Vec<Option<usize>> = vec![None; sites];
    for &li in &free {
        site_of[position[li]] = Some(li);
    }

    let coord = |site: usize| -> (f64, f64) {
        ((site as u32 % width) as f64, (site as u32 / width) as f64)
    };
    let net_cost = |members: &[usize], position: &[usize]| -> f64 {
        let mut min_x = f64::MAX;
        let mut max_x = f64::MIN;
        let mut min_y = f64::MAX;
        let mut max_y = f64::MIN;
        for &li in members {
            let (x, y) = coord(position[li]);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        (max_x - min_x) + (max_y - min_y)
    };
    let total_cost =
        |position: &[usize]| -> f64 { net_members.iter().map(|m| net_cost(m, position)).sum() };

    let initial_wirelength = total_cost(&position);
    let mut cost = initial_wirelength;
    let mut best_cost = cost;
    let mut best_position = position.clone();
    let mut temperature = config.initial_temperature;
    let mut accepted = 0u64;
    let total_moves = (config.moves_per_leaf as u64) * n_free as u64;
    let sweep = (n as u64 * 16).max(64);
    for step in 0..total_moves {
        // Pick a free leaf and a target site (occupied by another free
        // leaf → swap, empty → move; pinned sites are off limits).
        let li = free[(rng.next() % n_free as u64) as usize];
        let target = (rng.next() % sites as u64) as usize;
        let source = position[li];
        if target == source || blocked[target] {
            continue;
        }
        let other = site_of[target];
        // Affected nets: the leaf's nets plus the displaced leaf's.
        let mut affected: Vec<usize> = leaf_nets[li].clone();
        if let Some(lo) = other {
            affected.extend_from_slice(&leaf_nets[lo]);
        }
        affected.sort_unstable();
        affected.dedup();
        let before: f64 = affected
            .iter()
            .map(|&ni| net_cost(&net_members[ni], &position))
            .sum();
        // Apply.
        position[li] = target;
        site_of[target] = Some(li);
        site_of[source] = other;
        if let Some(lo) = other {
            position[lo] = source;
        }
        let after: f64 = affected
            .iter()
            .map(|&ni| net_cost(&net_members[ni], &position))
            .sum();
        let delta = after - before;
        let accept = delta <= 0.0 || {
            let u = (rng.next() as f64) / (u64::MAX as f64);
            u < (-delta / temperature.max(1e-9)).exp()
        };
        if accept {
            cost += delta;
            accepted += 1;
            if cost < best_cost {
                best_cost = cost;
                best_position.clone_from(&position);
            }
        } else {
            // Revert.
            if let Some(lo) = other {
                position[lo] = target;
            }
            site_of[source] = Some(li);
            site_of[target] = other;
            position[li] = source;
        }
        if step % sweep == sweep - 1 {
            temperature *= config.cooling;
        }
    }

    let abs_of = |site: usize| -> Rloc {
        Rloc::new(
            row0 + (site as u32 / width) as i32,
            col0 + (site as u32 % width) as i32,
        )
    };
    let moved: Vec<(usize, Rloc)> = free
        .iter()
        .map(|&i| (leaves[i], abs_of(best_position[i])))
        .collect();
    Ok(PlacementResult {
        circuit: commit(circuit, index, config.mode, &moved),
        initial_wirelength,
        final_wirelength: best_cost,
        accepted_moves: accepted,
        grid_side,
    })
}

/// Writes the `(leaf, absolute location)` pairs the annealer chose into
/// the index and returns the placed circuit.
fn commit(
    circuit: &Circuit,
    index: &mut FlatIndex,
    mode: PlacerMode,
    moved: &[(usize, Rloc)],
) -> Circuit {
    let scratch = mode == PlacerMode::Scratch;
    let leaves = index.flat().leaves();
    let mut locs: Vec<_> = leaves.iter().map(|l| l.loc.filter(|_| !scratch)).collect();
    let mut out = circuit.clone();
    if scratch {
        out.strip_placement();
    }
    // `set_rloc` composes with ancestor offsets, so each moved leaf's
    // RLOC is its absolute target minus its placed ancestors' offset.
    let targets: Vec<_> = moved
        .iter()
        .map(|&(li, abs)| {
            locs[li] = Some(abs);
            let cell = leaves[li].cell;
            let anc = out.ancestor_rloc(cell);
            (cell, Rloc::new(abs.row - anc.row, abs.col - anc.col))
        })
        .collect();
    let mut ctx = out.root_ctx();
    for (cell, rloc) in targets {
        ctx.set_rloc(cell, rloc);
    }
    index.set_locations(&locs);
    out
}

/// A tiny deterministic RNG (xorshift64*), keeping the placer free of
/// external dependencies.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::estimate_timing;

    fn adder16() -> Circuit {
        use ipd_hdl::{PortSpec, Signal};
        use ipd_techlib::LogicCtx;
        // A hand-rolled 16-bit xor chain so this test does not depend
        // on ipd-modgen (which would be a dependency cycle).
        let mut c = Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 16)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur: Signal = Signal::bit_of(a, 0);
        for b in 1..16 {
            let t = ctx.wire(&format!("t{b}"), 1);
            ctx.xor2(cur, Signal::bit_of(a, b), t).unwrap();
            cur = t.into();
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let circuit = adder16();
        let result = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        assert!(result.final_wirelength <= result.initial_wirelength);
        assert!(result.accepted_moves > 0);
        assert!(result.grid_side >= 2);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let circuit = adder16();
        let a = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        let b = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        assert_eq!(a.final_wirelength, b.final_wirelength);
        let mut different_seed = PlacerConfig::default();
        different_seed.seed ^= 0xFFFF;
        let c = auto_place(&circuit, &different_seed).unwrap();
        // Same circuit, almost surely a different layout cost.
        assert!(a.accepted_moves > 0 && c.accepted_moves > 0);
    }

    #[test]
    fn auto_placed_beats_unplaced_timing() {
        let circuit = adder16();
        let mut unplaced = circuit.clone();
        unplaced.strip_placement();
        let placed = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        let t_unplaced = estimate_timing(&unplaced).unwrap();
        let t_placed = estimate_timing(&placed.circuit).unwrap();
        assert!(
            t_placed.critical_path_ns < t_unplaced.critical_path_ns,
            "placed {} vs unplaced {}",
            t_placed.critical_path_ns,
            t_unplaced.critical_path_ns
        );
        assert!(t_placed.placed_fraction > 0.5);
    }

    #[test]
    fn every_placeable_leaf_gets_a_unique_site() {
        let circuit = adder16();
        let placed = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        let flat = FlatNetlist::build(&placed.circuit).unwrap();
        let mut seen = std::collections::HashSet::new();
        for leaf in flat.leaves() {
            if let Some(loc) = leaf.loc {
                assert!(seen.insert(loc), "two leaves at {loc}");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn empty_circuit_is_fine() {
        let circuit = Circuit::new("empty");
        let result = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        assert_eq!(result.final_wirelength, 0.0);
    }

    /// The chain with its first 8 xors hand-placed down column 0.
    fn half_placed_chain() -> Circuit {
        use ipd_hdl::{PortSpec, Signal};
        use ipd_techlib::LogicCtx;
        let mut c = Circuit::new("half");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 16)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur: Signal = Signal::bit_of(a, 0);
        for b in 1..16 {
            let t = ctx.wire(&format!("t{b}"), 1);
            let x = ctx.xor2(cur, Signal::bit_of(a, b), t).unwrap();
            if b <= 8 {
                ctx.set_rloc(x, Rloc::new(b as i32 - 1, 0));
            }
            cur = t.into();
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    #[test]
    fn pinned_mode_keeps_hand_rlocs_and_places_the_rest() {
        let circuit = half_placed_chain();
        let flat_before = FlatNetlist::build(&circuit).unwrap();
        let hand: std::collections::HashMap<String, Rloc> = flat_before
            .leaves()
            .iter()
            .filter_map(|l| l.loc.map(|loc| (l.path.clone(), loc)))
            .collect();
        assert_eq!(hand.len(), 8, "fixture should be half placed");

        let config = PlacerConfig {
            mode: PlacerMode::Pinned,
            ..PlacerConfig::default()
        };
        let placed = auto_place(&circuit, &config).unwrap();
        let flat_after = FlatNetlist::build(&placed.circuit).unwrap();
        let mut moved = 0usize;
        for leaf in flat_after.leaves() {
            match hand.get(&leaf.path) {
                // Every hand RLOC survives bit-for-bit.
                Some(&loc) => assert_eq!(leaf.loc, Some(loc), "{} moved", leaf.path),
                None => {
                    if leaf.loc.is_some() {
                        moved += 1;
                    }
                }
            }
        }
        // All previously unplaced slice-consuming leaves got a site.
        assert_eq!(moved, 8, "7 free xors + 1 ff should be placed");
        // Free leaves never landed on a pinned CLB.
        let pinned: std::collections::HashSet<Rloc> = hand.values().copied().collect();
        for leaf in flat_after.leaves() {
            if !hand.contains_key(&leaf.path) {
                if let Some(loc) = leaf.loc {
                    assert!(!pinned.contains(&loc), "{} collides at {loc}", leaf.path);
                }
            }
        }
    }

    #[test]
    fn pinned_mode_with_everything_placed_is_identity() {
        let circuit = half_placed_chain();
        let config = PlacerConfig {
            mode: PlacerMode::Pinned,
            ..PlacerConfig::default()
        };
        let once = auto_place(&circuit, &config).unwrap();
        // A second pinned pass has nothing left to move.
        let fully = auto_place(&once.circuit, &config).unwrap();
        assert_eq!(fully.accepted_moves, 0);
        let a = FlatNetlist::build(&once.circuit).unwrap();
        let b = FlatNetlist::build(&fully.circuit).unwrap();
        let locs = |f: &FlatNetlist| -> Vec<(String, Option<Rloc>)> {
            f.leaves().iter().map(|l| (l.path.clone(), l.loc)).collect()
        };
        assert_eq!(locs(&a), locs(&b));
    }

    #[test]
    fn scratch_mode_is_unchanged_by_the_pinned_refactor() {
        // Scratch on a pre-placed circuit still discards placement and
        // produces the same result as scratch on the stripped circuit:
        // the pinned seam must not perturb the default path.
        let circuit = half_placed_chain();
        let mut stripped = circuit.clone();
        stripped.strip_placement();
        let a = auto_place(&circuit, &PlacerConfig::default()).unwrap();
        let b = auto_place(&stripped, &PlacerConfig::default()).unwrap();
        assert_eq!(a.final_wirelength, b.final_wirelength);
        assert_eq!(a.accepted_moves, b.accepted_moves);
    }
}
