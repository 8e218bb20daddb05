//! A congestion-aware global router over the Virtex CLB grid.
//!
//! PathFinder-style negotiated congestion (McMurchie & Ebeling): the
//! routing resources are the channel segments between adjacent CLB
//! coordinates, each with a wire capacity. Every net is routed as a
//! tree over the grid by repeated multi-source maze expansion; nets
//! negotiate for oversubscribed segments across iterations through a
//! present-congestion cost that sharpens each round and a history cost
//! that remembers chronic hot spots. At convergence no segment carries
//! more wires than its capacity — or the overflow is reported honestly
//! in [`RouteStats`].
//!
//! The router's product is geometry: per-net routed trees with a wire
//! length per sink, convertible to a [`RoutedDelays`] database that
//! [`crate::Sta`] consumes through the [`NetDelaySource`] seam —
//! replacing the Manhattan-distance guess with the path wires actually
//! take.
//!
//! The router reads leaf kinds, drivers and readers from the placed
//! design's [`FlatIndex`], which STA then times.

use std::collections::HashMap;
use std::sync::Arc;

use ipd_hdl::{NetId, PortDir, Rloc};
use ipd_techlib::{DelayModel, Device, FlatIndex, NetDelaySource, RoutedDelays};

use crate::error::EstimateError;

/// Router parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// RNG seed: fixes the net ordering of the negotiation (routing is
    /// fully deterministic per seed).
    pub seed: u64,
    /// Wires per channel segment (one segment joins two adjacent CLB
    /// coordinates).
    pub channel_capacity: u16,
    /// Negotiation rounds before giving up and reporting overflow.
    pub max_iterations: u32,
    /// Routing device. `None` picks the smallest catalog part whose
    /// CLB grid covers the placed footprint.
    pub device: Option<Device>,
    /// Initial present-congestion factor.
    pub pres_fac: f64,
    /// Multiplier applied to the present-congestion factor each round.
    pub pres_mult: f64,
    /// History cost added to every overused segment each round.
    pub hist_fac: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            seed: 0x0907_E12B,
            channel_capacity: 8,
            max_iterations: 32,
            device: None,
            pres_fac: 0.5,
            pres_mult: 1.6,
            hist_fac: 0.4,
        }
    }
}

/// One routed load of a net.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedSink {
    /// The sink CLB.
    pub loc: Rloc,
    /// Routed wire length in channel segments (0 for an intra-CLB
    /// load). Always at least the Manhattan distance from the source.
    pub wirelength: u32,
    /// Backannotated net delay of this load under the delay model the
    /// route was produced with.
    pub delay_ns: f64,
}

/// One net's routed tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNet {
    /// The flat net.
    pub net: NetId,
    /// The net's hierarchical name.
    pub name: String,
    /// The driver's CLB.
    pub source: Rloc,
    /// Total reader-pin fanout of the net (the same count the
    /// heuristic model charges).
    pub fanout: usize,
    /// Routed loads, deduplicated per sink CLB.
    pub sinks: Vec<RoutedSink>,
    /// The tree's channel segments as `(from, to)` CLB pairs.
    pub segments: Vec<(Rloc, Rloc)>,
}

/// Convergence and quality statistics of one routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteStats {
    /// Nets routed (nets with a placed driver and ≥1 routable sink).
    pub nets: usize,
    /// Routed sinks across all nets.
    pub sinks: usize,
    /// Negotiation rounds executed (1 = first routing already legal).
    pub iterations: u32,
    /// Whether every channel segment ended within capacity.
    pub converged: bool,
    /// Segments still over capacity at exit.
    pub overused_segments: usize,
    /// Total wires above capacity across overused segments.
    pub overflow_wires: u64,
    /// Total routed wire length in channel segments.
    pub total_wirelength: u64,
    /// Routable grid rows.
    pub grid_rows: u32,
    /// Routable grid columns.
    pub grid_cols: u32,
    /// Wires per channel segment.
    pub channel_capacity: u16,
    /// The device whose CLB grid bounded the route, if any placement
    /// existed to route over.
    pub device: Option<&'static str>,
}

impl std::fmt::Display for RouteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "routed {} net(s), {} sink(s), {} segment-wirelength in {} iteration(s) on {} ({}x{} CLBs, capacity {}): {}",
            self.nets,
            self.sinks,
            self.total_wirelength,
            self.iterations,
            self.device.unwrap_or("(no device)"),
            self.grid_rows,
            self.grid_cols,
            self.channel_capacity,
            if self.converged {
                "converged".to_owned()
            } else {
                format!(
                    "OVERFLOW ({} segment(s), {} wire(s) over)",
                    self.overused_segments, self.overflow_wires
                )
            }
        )
    }
}

/// The routed design: per-net trees plus channel occupancy.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// Routed trees, in net-id order.
    pub nets: Vec<RoutedNet>,
    /// Convergence and quality statistics.
    pub stats: RouteStats,
    grid: Grid,
    occupancy: Vec<u16>,
}

impl RoutingResult {
    /// The backannotated per-`(net, sink)` delay database.
    #[must_use]
    pub fn routed_delays(&self) -> RoutedDelays {
        let mut out = RoutedDelays::new();
        for net in &self.nets {
            for sink in &net.sinks {
                out.insert(net.net, sink.loc, sink.delay_ns);
            }
        }
        out
    }

    /// The routed [`NetDelaySource`] for STA consumption.
    #[must_use]
    pub fn delay_source(&self) -> NetDelaySource {
        NetDelaySource::Routed(Arc::new(self.routed_delays()))
    }

    /// Wires currently using the channel segment between two adjacent
    /// CLB coordinates, or `None` when the pair is not an adjacent
    /// in-grid pair.
    #[must_use]
    pub fn occupancy_between(&self, a: Rloc, b: Rloc) -> Option<u16> {
        let ca = self.grid.cell(a)?;
        let cb = self.grid.cell(b)?;
        let edge = self.grid.edge_between(ca, cb)?;
        Some(self.occupancy[edge as usize])
    }

    /// The routable grid as `(first row, first col, rows, cols)`.
    #[must_use]
    pub fn grid_bounds(&self) -> (i32, i32, u32, u32) {
        (
            self.grid.row0,
            self.grid.col0,
            self.grid.rows,
            self.grid.cols,
        )
    }
}

/// The routable CLB grid in absolute `Rloc` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grid {
    row0: i32,
    col0: i32,
    rows: u32,
    cols: u32,
}

impl Grid {
    fn n_cells(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// Horizontal segments precede vertical ones in edge-id space.
    fn n_h_edges(&self) -> u32 {
        self.rows * self.cols.saturating_sub(1)
    }

    fn n_edges(&self) -> usize {
        (self.n_h_edges() + self.rows.saturating_sub(1) * self.cols) as usize
    }

    fn cell(&self, loc: Rloc) -> Option<u32> {
        let r = loc.row.checked_sub(self.row0)?;
        let c = loc.col.checked_sub(self.col0)?;
        if r < 0 || c < 0 || r as u32 >= self.rows || c as u32 >= self.cols {
            return None;
        }
        Some(r as u32 * self.cols + c as u32)
    }

    fn loc(&self, cell: u32) -> Rloc {
        Rloc::new(
            self.row0 + (cell / self.cols) as i32,
            self.col0 + (cell % self.cols) as i32,
        )
    }

    /// The channel segment joining two orthogonally adjacent cells.
    fn edge_between(&self, a: u32, b: u32) -> Option<u32> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (r, c) = (lo / self.cols, lo % self.cols);
        if hi == lo + 1 && c + 1 < self.cols {
            return Some(r * (self.cols - 1) + c);
        }
        if hi == lo + self.cols && r + 1 < self.rows {
            return Some(self.n_h_edges() + r * self.cols + c);
        }
        None
    }

    /// Orthogonal neighbors of `cell` with the joining segment.
    fn neighbors(&self, cell: u32, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let (r, c) = (cell / self.cols, cell % self.cols);
        if c + 1 < self.cols {
            out.push((cell + 1, r * (self.cols - 1) + c));
        }
        if c > 0 {
            out.push((cell - 1, r * (self.cols - 1) + c - 1));
        }
        if r + 1 < self.rows {
            out.push((cell + self.cols, self.n_h_edges() + r * self.cols + c));
        }
        if r > 0 {
            out.push((cell - self.cols, self.n_h_edges() + (r - 1) * self.cols + c));
        }
    }

    fn manhattan(&self, a: u32, b: u32) -> u32 {
        let (ra, ca) = (a / self.cols, a % self.cols);
        let (rb, cb) = (b / self.cols, b % self.cols);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }
}

/// One net's routing problem: source cell plus sink cells.
struct NetTask {
    net: NetId,
    source: u32,
    sinks: Vec<u32>,
    fanout: usize,
}

/// A routed tree: per-cell parent link (cell → (parent cell, edge)).
#[derive(Default, Clone)]
struct Tree {
    parent: HashMap<u32, (u32, u32)>,
    edges: Vec<u32>,
}

/// Routes a placed, indexed design over the CLB grid.
///
/// Nets with a placed driver and at least one placed, routable sink
/// are routed; everything else (port-driven nets, unplaced endpoints)
/// stays on the heuristic fallback of the [`NetDelaySource`] seam.
/// Clock pins of sequential primitives ride the dedicated clock
/// network and carry-to-carry hops the dedicated carry route, so
/// neither consumes channel capacity.
///
/// # Errors
///
/// Refuses what [`FlatIndex::check_primitives`] refuses; fails when an
/// explicitly requested device cannot cover the placed footprint.
pub fn route(
    index: &FlatIndex,
    model: &DelayModel,
    config: &RouterConfig,
) -> Result<RoutingResult, EstimateError> {
    index.check_primitives()?;
    let leaves = index.flat().leaves();
    let kinds = index.kinds();
    let is_carry = |li: usize| kinds[li].is_some_and(|k| k.is_carry());
    let is_seq = |li: usize| kinds[li].is_some_and(|k| k.is_sequential());

    let Some((r0, c0, r1, c1)) = bounding_box(leaves.iter().filter_map(|leaf| leaf.loc)) else {
        // Nothing placed, nothing to route.
        let grid = Grid {
            row0: 0,
            col0: 0,
            rows: 0,
            cols: 0,
        };
        return Ok(RoutingResult {
            nets: Vec::new(),
            stats: RouteStats {
                nets: 0,
                sinks: 0,
                iterations: 0,
                converged: true,
                overused_segments: 0,
                overflow_wires: 0,
                total_wirelength: 0,
                grid_rows: 0,
                grid_cols: 0,
                channel_capacity: config.channel_capacity,
                device: None,
            },
            grid,
            occupancy: Vec::new(),
        });
    };
    let bbox_rows = (r1 - r0 + 1) as u32;
    let bbox_cols = (c1 - c0 + 1) as u32;

    // The routable area is a real device's CLB grid, centered on the
    // placed footprint (detour room around a dense placement is what
    // the negotiation spends).
    let device = match config.device {
        Some(d) => {
            if d.rows < bbox_rows || d.cols < bbox_cols {
                return Err(EstimateError::DeviceTooSmall {
                    device: d.name.to_owned(),
                    rows: bbox_rows,
                    cols: bbox_cols,
                });
            }
            d
        }
        None => Device::catalog()
            .iter()
            .find(|d| d.rows >= bbox_rows && d.cols >= bbox_cols)
            .copied()
            .unwrap_or_else(|| *Device::catalog().last().expect("catalog is non-empty")),
    };
    let rows = device.rows.max(bbox_rows);
    let cols = device.cols.max(bbox_cols);
    let grid = Grid {
        row0: r0 - ((rows - bbox_rows) / 2) as i32,
        col0: c0 - ((cols - bbox_cols) / 2) as i32,
        rows,
        cols,
    };

    // Assemble the routing problems.
    let mut tasks: Vec<NetTask> = Vec::new();
    for net in (0..index.flat().net_count()).map(NetId::from_index) {
        let Some(&(dli, _)) = index.drivers_of(net).first() else {
            continue;
        };
        let Some(src_loc) = leaves[dli].loc else {
            continue;
        };
        let source = grid.cell(src_loc).expect("driver inside routable grid");
        let driver_carry = is_carry(dli);
        let readers = index.readers_of(net);
        let mut sinks: Vec<u32> = Vec::new();
        for &(rli, pi) in readers {
            if rli == dli && leaves[rli].conns[pi].dir != PortDir::Input {
                continue;
            }
            let Some(loc) = leaves[rli].loc else {
                continue;
            };
            // Clock pins of sequential leaves ride the dedicated
            // clock network.
            if is_seq(rli) && leaves[rli].conns[pi].port == "c" {
                continue;
            }
            // Carry-to-carry hops ride the dedicated carry route.
            if driver_carry && is_carry(rli) {
                continue;
            }
            sinks.push(grid.cell(loc).expect("sink inside routable grid"));
        }
        sinks.sort_unstable();
        sinks.dedup();
        if sinks.is_empty() {
            continue;
        }
        tasks.push(NetTask {
            net,
            source,
            sinks,
            fanout: readers.len(),
        });
    }

    // Deterministic seed-keyed net order for the negotiation.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (splitmix64(config.seed ^ (i as u64).wrapping_mul(0x9E37)), i));

    let n_edges = grid.n_edges();
    let mut occupancy = vec![0u16; n_edges];
    let mut history = vec![0.0f64; n_edges];
    let mut trees: Vec<Tree> = Vec::with_capacity(tasks.len());
    trees.resize_with(tasks.len(), Tree::default);
    let cap = config.channel_capacity;
    let mut maze = Maze::new(grid.n_cells());

    // Round 1: route everything.
    let mut pres_fac = config.pres_fac;
    for &ti in &order {
        trees[ti] = route_net(
            &grid, &tasks[ti], &occupancy, &history, cap, pres_fac, &mut maze,
        );
        for &e in &trees[ti].edges {
            occupancy[e as usize] += 1;
        }
    }
    let mut iterations = 1u32;

    // Negotiation: rip up and re-route the nets crossing overused
    // segments under sharpened congestion costs until legal.
    while iterations < config.max_iterations {
        let overused: Vec<u32> = (0..n_edges as u32)
            .filter(|&e| occupancy[e as usize] > cap)
            .collect();
        if overused.is_empty() {
            break;
        }
        for &e in &overused {
            history[e as usize] += config.hist_fac;
        }
        pres_fac *= config.pres_mult;
        let hot = |tree: &Tree| tree.edges.iter().any(|&e| occupancy[e as usize] > cap);
        let victims: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&ti| hot(&trees[ti]))
            .collect();
        for &ti in &victims {
            for &e in &trees[ti].edges {
                occupancy[e as usize] -= 1;
            }
        }
        for &ti in &victims {
            trees[ti] = route_net(
                &grid, &tasks[ti], &occupancy, &history, cap, pres_fac, &mut maze,
            );
            for &e in &trees[ti].edges {
                occupancy[e as usize] += 1;
            }
        }
        iterations += 1;
    }

    // Harvest geometry: per-sink wire lengths from the final trees.
    let mut routed: Vec<RoutedNet> = Vec::with_capacity(tasks.len());
    let mut total_wirelength = 0u64;
    let mut total_sinks = 0usize;
    for (ti, task) in tasks.iter().enumerate() {
        let tree = &trees[ti];
        let mut depth: HashMap<u32, u32> = HashMap::new();
        depth.insert(task.source, 0);
        let sink_depth = |cell: u32, depth: &mut HashMap<u32, u32>| -> u32 {
            let mut chain = Vec::new();
            let mut cur = cell;
            while !depth.contains_key(&cur) {
                chain.push(cur);
                cur = tree.parent[&cur].0;
            }
            let mut d = depth[&cur];
            for &c in chain.iter().rev() {
                d += 1;
                depth.insert(c, d);
            }
            d
        };
        let mut sinks = Vec::with_capacity(task.sinks.len());
        for &s in &task.sinks {
            let wirelength = sink_depth(s, &mut depth);
            let delay_ns = model.net_base_ns
                + model.net_per_clb_ns * f64::from(wirelength)
                + model.net_per_fanout_ns * task.fanout.saturating_sub(1) as f64;
            sinks.push(RoutedSink {
                loc: grid.loc(s),
                wirelength,
                delay_ns,
            });
        }
        total_wirelength += tree.edges.len() as u64;
        total_sinks += sinks.len();
        let segments = tree
            .parent
            .iter()
            .map(|(&cell, &(parent, _))| (grid.loc(parent), grid.loc(cell)))
            .collect::<Vec<_>>();
        let mut segments = segments;
        segments.sort_unstable_by_key(|&(a, b)| (a, b));
        routed.push(RoutedNet {
            net: task.net,
            name: index.net_name(task.net).to_owned(),
            source: grid.loc(task.source),
            fanout: task.fanout,
            sinks,
            segments,
        });
    }
    routed.sort_unstable_by_key(|n| n.net);

    let overused_segments = occupancy.iter().filter(|&&o| o > cap).count();
    let overflow_wires: u64 = occupancy
        .iter()
        .filter(|&&o| o > cap)
        .map(|&o| u64::from(o - cap))
        .sum();
    let stats = RouteStats {
        nets: routed.len(),
        sinks: total_sinks,
        iterations,
        converged: overused_segments == 0,
        overused_segments,
        overflow_wires,
        total_wirelength,
        grid_rows: grid.rows,
        grid_cols: grid.cols,
        channel_capacity: cap,
        device: Some(device.name),
    };
    Ok(RoutingResult {
        nets: routed,
        stats,
        grid,
        occupancy,
    })
}

/// `(first row, first col, last row, last col)` of some locations, or
/// `None` when there are none.
pub(crate) fn bounding_box(locs: impl Iterator<Item = Rloc>) -> Option<(i32, i32, i32, i32)> {
    locs.fold(None, |bbox, loc| {
        Some(match bbox {
            None => (loc.row, loc.col, loc.row, loc.col),
            Some((r0, c0, r1, c1)) => (
                r0.min(loc.row),
                c0.min(loc.col),
                r1.max(loc.row),
                c1.max(loc.col),
            ),
        })
    })
}

/// Routes one net: iterative multi-source A* maze expansion growing a
/// tree from the source, nearest remaining sink first.
fn route_net(
    grid: &Grid,
    task: &NetTask,
    occupancy: &[u16],
    history: &[f64],
    cap: u16,
    pres_fac: f64,
    maze: &mut Maze,
) -> Tree {
    let mut tree = Tree::default();
    let mut in_tree: Vec<u32> = vec![task.source];
    let mut remaining: Vec<u32> = task.sinks.clone();
    // Nearest-first gives short trunks for later sinks to tap.
    remaining.sort_unstable_by_key(|&s| (grid.manhattan(task.source, s), s));
    let edge_cost = |e: u32| -> f64 {
        // Overuse this edge would have if the net claimed one wire.
        let over = f64::from((occupancy[e as usize] + 1).saturating_sub(cap));
        (1.0 + history[e as usize]) * (1.0 + pres_fac * over)
    };
    for &sink in &remaining {
        if in_tree.contains(&sink) {
            continue;
        }
        let path = maze.search(grid, &in_tree, sink, &edge_cost);
        for (cell, parent, edge) in path {
            tree.parent.insert(cell, (parent, edge));
            tree.edges.push(edge);
            in_tree.push(cell);
        }
    }
    tree
}

/// Reusable A* scratch state (epoch-stamped to avoid reallocation).
struct Maze {
    g: Vec<f64>,
    stamp: Vec<u32>,
    came: Vec<(u32, u32)>,
    epoch: u32,
    scratch: Vec<(u32, u32)>,
}

impl Maze {
    fn new(n_cells: usize) -> Self {
        Maze {
            g: vec![0.0; n_cells],
            stamp: vec![0; n_cells],
            came: vec![(u32::MAX, u32::MAX); n_cells],
            epoch: 0,
            scratch: Vec::with_capacity(4),
        }
    }

    /// Multi-source A* from `sources` (cost 0) to `sink`; returns the
    /// new path as `(cell, parent, edge)` from the tree outward.
    fn search(
        &mut self,
        grid: &Grid,
        sources: &[u32],
        sink: u32,
        edge_cost: &dyn Fn(u32) -> f64,
    ) -> Vec<(u32, u32, u32)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        self.epoch += 1;
        let epoch = self.epoch;
        let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        for &s in sources {
            self.g[s as usize] = 0.0;
            self.stamp[s as usize] = epoch;
            self.came[s as usize] = (u32::MAX, u32::MAX);
            heap.push(Reverse((Cost(f64::from(grid.manhattan(s, sink))), s)));
        }
        while let Some(Reverse((_, cell))) = heap.pop() {
            if cell == sink {
                // Backtrack to the tree (a cell with no parent link).
                let mut path = Vec::new();
                let mut cur = cell;
                loop {
                    let (parent, edge) = self.came[cur as usize];
                    if parent == u32::MAX {
                        break;
                    }
                    path.push((cur, parent, edge));
                    cur = parent;
                }
                path.reverse();
                return path;
            }
            let g = self.g[cell as usize];
            let mut neigh = std::mem::take(&mut self.scratch);
            grid.neighbors(cell, &mut neigh);
            for &(next, edge) in &neigh {
                let ng = g + edge_cost(edge);
                let seen = self.stamp[next as usize] == epoch;
                if !seen || ng < self.g[next as usize] {
                    self.g[next as usize] = ng;
                    self.stamp[next as usize] = epoch;
                    self.came[next as usize] = (cell, edge);
                    heap.push(Reverse((
                        Cost(ng + f64::from(grid.manhattan(next, sink))),
                        next,
                    )));
                }
            }
            self.scratch = neigh;
        }
        // Unreachable only on a degenerate 0/1-cell grid; the sink is
        // then already in the tree.
        Vec::new()
    }
}

/// Total-order f64 wrapper so A* keys can live in a `BinaryHeap`.
#[derive(PartialEq)]
struct Cost(f64);

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// SplitMix64: one hop of a deterministic hash for seed-keyed orders.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, FlatNetlist, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    /// `n` parallel placed wires from column 0 to column `len`, all in
    /// distinct rows — independent two-pin nets.
    fn parallel_wires(n: usize, len: i32) -> Circuit {
        let mut c = Circuit::new("wires");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", n as u32)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", n as u32)).unwrap();
        for i in 0..n {
            let t = ctx.wire(&format!("t{i}"), 1);
            let src = ctx.inv(Signal::bit_of(a, i as u32), t).unwrap();
            ctx.set_rloc(src, Rloc::new(i as i32, 0));
            let dst = ctx.inv(t, Signal::bit_of(y, i as u32)).unwrap();
            ctx.set_rloc(dst, Rloc::new(i as i32, len));
        }
        c
    }

    /// `n` two-pin nets all forced through the same two endpoints: a
    /// congestion worst case for a narrow channel.
    fn overlapping_wires(n: usize, len: i32) -> Circuit {
        let mut c = Circuit::new("hot");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", n as u32)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", n as u32)).unwrap();
        for i in 0..n {
            let t = ctx.wire(&format!("t{i}"), 1);
            let src = ctx.inv(Signal::bit_of(a, i as u32), t).unwrap();
            ctx.set_rloc(src, Rloc::new(0, 0));
            let dst = ctx.inv(t, Signal::bit_of(y, i as u32)).unwrap();
            ctx.set_rloc(dst, Rloc::new(0, len));
        }
        c
    }

    fn index(c: &Circuit) -> FlatIndex {
        FlatIndex::new(FlatNetlist::build(c).unwrap())
    }

    fn route_circuit(c: &Circuit, config: &RouterConfig) -> RoutingResult {
        route(&index(c), &DelayModel::virtex(), config).unwrap()
    }

    #[test]
    fn straight_wires_route_at_manhattan_length() {
        let c = parallel_wires(4, 5);
        let r = route_circuit(&c, &RouterConfig::default());
        assert!(r.stats.converged, "{}", r.stats);
        assert_eq!(r.stats.nets, 4);
        for net in &r.nets {
            assert_eq!(net.sinks.len(), 1);
            assert_eq!(net.sinks[0].wirelength, 5, "{}", net.name);
        }
    }

    #[test]
    fn congestion_negotiation_spreads_wires() {
        // 6 identical 4-CLB wires, capacity 2: the direct channel can
        // carry only 2, so the others must detour — and converge.
        let c = overlapping_wires(6, 4);
        let config = RouterConfig {
            channel_capacity: 2,
            ..RouterConfig::default()
        };
        let r = route_circuit(&c, &config);
        assert!(r.stats.converged, "{}", r.stats);
        assert!(r.stats.iterations > 1, "should need negotiation");
        // Someone detoured: total wirelength exceeds 6 × direct.
        assert!(r.stats.total_wirelength > 6 * 4, "{}", r.stats);
        // Every wire still at least Manhattan length.
        for net in &r.nets {
            assert!(net.sinks[0].wirelength >= 4);
        }
    }

    #[test]
    fn hopeless_overflow_is_reported_honestly() {
        // 8 wires, capacity 1, a single iteration: cannot be legal.
        let c = overlapping_wires(8, 3);
        let config = RouterConfig {
            channel_capacity: 1,
            max_iterations: 1,
            ..RouterConfig::default()
        };
        let r = route_circuit(&c, &config);
        assert!(!r.stats.converged);
        assert!(r.stats.overused_segments > 0);
        assert!(r.stats.overflow_wires > 0);
    }

    #[test]
    fn routing_is_deterministic_per_seed() {
        let c = overlapping_wires(6, 4);
        let config = RouterConfig {
            channel_capacity: 2,
            ..RouterConfig::default()
        };
        let a = route_circuit(&c, &config);
        let b = route_circuit(&c, &config);
        assert_eq!(a.nets, b.nets);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn routed_delay_dominates_heuristic_placed_delay() {
        let c = overlapping_wires(6, 4);
        let config = RouterConfig {
            channel_capacity: 2,
            ..RouterConfig::default()
        };
        let r = route_circuit(&c, &config);
        let model = DelayModel::virtex();
        let flat = FlatNetlist::build(&c).unwrap();
        let drivers = flat.drivers();
        for net in &r.nets {
            let (dli, _) = drivers[net.net.index()][0];
            let from = flat.leaves()[dli].loc.unwrap();
            for sink in &net.sinks {
                let heuristic = model.net_delay_placed(from, sink.loc, net.fanout);
                assert!(
                    sink.delay_ns >= heuristic - 1e-12,
                    "net {} sink {}: routed {} < heuristic {}",
                    net.name,
                    sink.loc,
                    sink.delay_ns,
                    heuristic
                );
            }
        }
    }

    #[test]
    fn multi_sink_nets_share_a_tree() {
        // One driver at the origin fanning out to 3 placed loads.
        let mut c = Circuit::new("fan");
        {
            let mut ctx = c.root_ctx();
            let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
            let y = ctx.add_port(PortSpec::output("y", 3)).unwrap();
            let t = ctx.wire("t", 1);
            let src = ctx.inv(a, t).unwrap();
            ctx.set_rloc(src, Rloc::new(0, 0));
            for (i, loc) in [Rloc::new(0, 3), Rloc::new(2, 3), Rloc::new(2, 0)]
                .into_iter()
                .enumerate()
            {
                let dst = ctx.inv(t, Signal::bit_of(y, i as u32)).unwrap();
                ctx.set_rloc(dst, loc);
            }
        }
        let r = route_circuit(&c, &RouterConfig::default());
        assert!(r.stats.converged);
        let fan = r.nets.iter().find(|n| n.sinks.len() == 3).expect("fan net");
        // A tree shares trunk segments: fewer segments than the sum of
        // three independent Manhattan routes.
        let tree_len = fan.segments.len() as u32;
        let independent: u32 = fan.sinks.iter().map(|s| s.wirelength).sum();
        assert!(tree_len <= independent);
        // Each sink's wirelength is at least its Manhattan distance.
        for s in &fan.sinks {
            let d = (s.loc.row - fan.source.row).unsigned_abs()
                + (s.loc.col - fan.source.col).unsigned_abs();
            assert!(s.wirelength >= d);
        }
    }

    #[test]
    fn unplaced_design_routes_to_nothing() {
        let mut c = Circuit::new("u");
        {
            let mut ctx = c.root_ctx();
            let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
            let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
            ctx.inv(a, y).unwrap();
        }
        let r = route_circuit(&c, &RouterConfig::default());
        assert_eq!(r.stats.nets, 0);
        assert!(r.stats.converged);
        assert!(r.routed_delays().is_empty());
        assert_eq!(r.stats.device, None);
    }

    #[test]
    fn explicit_device_too_small_is_an_error() {
        let c = parallel_wires(2, 30);
        let config = RouterConfig {
            device: Device::by_name("xcv50"), // 16x24 < 31 cols needed
            ..RouterConfig::default()
        };
        assert!(matches!(
            route(&index(&c), &DelayModel::virtex(), &config),
            Err(EstimateError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn occupancy_is_queryable() {
        let c = parallel_wires(1, 1);
        let r = route_circuit(&c, &RouterConfig::default());
        assert_eq!(
            r.occupancy_between(Rloc::new(0, 0), Rloc::new(0, 1)),
            Some(1)
        );
        // Non-adjacent pair.
        assert_eq!(r.occupancy_between(Rloc::new(0, 0), Rloc::new(3, 3)), None);
    }
}
