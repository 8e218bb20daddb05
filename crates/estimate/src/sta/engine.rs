//! The propagation engine: forward arrival times per launch class,
//! lazily computed backward required times, and the two readings of
//! one propagation — constraint evaluation into an [`StaReport`]
//! ([`Sta::analyze`]) and the one-number [`TimingReport`] of the
//! applet's estimator ([`Sta::estimate`]).
//!
//! # Launch classes
//!
//! Exceptions (`false-path` / `multicycle`) are keyed by *startpoint*:
//! two paths converging on one endpoint may carry different exceptions.
//! Instead of per-path search, arrivals propagate per **launch class**
//! — the pair `(launch clock, exception mask)` where bit `i` of the
//! mask means "launched from a startpoint matching exception `i`'s
//! `from` pattern". Classes are few in practice (startpoints cluster on
//! the same clock and patterns), so storage is `nets × classes`.
//!
//! A class with no launch clock (`None`) models absolute-time arrivals
//! (primary inputs without `input-delay`, black-box outputs, constants)
//! and is checked against every endpoint; a class clocked by `k` is
//! checked only against endpoints captured by `k` — cross-domain paths
//! are not timed (that is `ipd-lint`'s CDC pass's job). Every
//! structural clock domain launches on a clock of its own: the
//! constraint clock that names it, or, when none does, an unconstrained
//! clock numbered after the constraint clocks. So a register on a clock
//! no constraint names is never timed against another domain's capture
//! or an output delay, and with no constraints at all each domain is
//! timed only against itself — the estimator's per-domain reading.

use std::collections::HashMap;

use ipd_hdl::NetId;
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use super::constraints::{
    clock_pattern_matches, pattern_matches, ExceptionKind, TimingConstraints,
};
use super::graph::{EndpointKind, TimingGraph};
use super::report::{ClockSlack, EndpointSlack, PathReport, PathStep, StaReport};
use crate::error::EstimateError;
use crate::timing::TimingReport;

/// How many critical paths [`Sta::analyze`] enumerates.
pub const TOP_PATHS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct LaunchClass {
    clock: Option<usize>,
    mask: u64,
}

/// A resolved startpoint seed: `net` starts at `at_ns` in `class`.
struct Seed {
    net: NetId,
    class: usize,
    at_ns: f64,
    name: String,
}

/// Launch classes, startpoint seeds, and each sequential domain's
/// launch clock, as produced by seed construction.
type SeedTable = (Vec<LaunchClass>, Vec<Seed>, Vec<(NetId, usize)>);

/// The static timing analyzer for one indexed design.
///
/// Build once over the design's [`FlatIndex`], then [`Sta::analyze`]
/// under any number of constraint sets, or [`Sta::estimate`] for the
/// one-number summary.
///
/// # Examples
///
/// ```
/// use ipd_estimate::{Sta, TimingConstraints};
/// use ipd_hdl::{Circuit, FlatNetlist, PortSpec};
/// use ipd_techlib::{DelayModel, FlatIndex, LogicCtx, NetDelaySource};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("demo");
/// let mut ctx = c.root_ctx();
/// let clk = ctx.add_port(PortSpec::input("clk", 1))?;
/// let d = ctx.add_port(PortSpec::input("d", 1))?;
/// let q = ctx.add_port(PortSpec::output("q", 1))?;
/// ctx.fd(clk, d, q)?;
/// let flat = FlatNetlist::build(&c)?;
/// let index = FlatIndex::new(&flat);
/// let mut sta = Sta::new(&index, &DelayModel::virtex(), NetDelaySource::Heuristic)?;
/// let mut constraints = TimingConstraints::new();
/// constraints.clock("sys", 10.0, "clk");
/// let report = sta.analyze(&constraints);
/// assert!(report.is_clean());
/// assert!(sta.estimate().critical_path_ns > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Sta<'a> {
    graph: TimingGraph<'a>,
    constraints: TimingConstraints,
    classes: Vec<LaunchClass>,
    seeds: Vec<Seed>,
    /// `(net, class)` → (seed time, seed index) for node recompute.
    seed_at: HashMap<(u32, u32), (f64, u32)>,
    /// Distinct structural clock-domain roots → launch clock index
    /// (at or past `constraints.clocks().len()` when unconstrained).
    domain_clock: Vec<(NetId, usize)>,
    arrival: Vec<f64>,
    pred: Vec<Option<NetId>>,
    level: Vec<u32>,
    required: Vec<f64>,
    required_valid: bool,
}

impl std::fmt::Debug for Sta<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sta")
            .field("nets", &self.graph.index.flat().net_count())
            .field("nodes", &self.graph.nodes.len())
            .field("classes", &self.classes.len())
            .finish()
    }
}

impl<'a> Sta<'a> {
    /// Builds the analyzer over a design's [`FlatIndex`], with net
    /// delays from `source`: [`NetDelaySource::Heuristic`] for the
    /// distance model, [`NetDelaySource::Routed`] to backannotate
    /// routed wire delays into every net-delay lookup.
    ///
    /// # Errors
    ///
    /// Fails on unknown primitives or combinational loops.
    pub fn new(
        index: &'a FlatIndex<'a>,
        model: &DelayModel,
        source: NetDelaySource,
    ) -> Result<Self, EstimateError> {
        Ok(Sta {
            graph: TimingGraph::new(index, model, source)?,
            constraints: TimingConstraints::new(),
            classes: Vec::new(),
            seeds: Vec::new(),
            seed_at: HashMap::new(),
            domain_clock: Vec::new(),
            arrival: Vec::new(),
            pred: Vec::new(),
            level: Vec::new(),
            required: Vec::new(),
            required_valid: false,
        })
    }

    /// Analysis under a constraint set: per-endpoint setup slack,
    /// per-clock summaries and the top critical paths.
    pub fn analyze(&mut self, constraints: &TimingConstraints) -> StaReport {
        self.propagate(constraints);
        self.build_report()
    }

    /// The one-number estimate an IP evaluation executable displays:
    /// with no constraints, the worst data arrival over sequential
    /// endpoints, each timed only against launches from its own clock
    /// domain (or over pin-to-pin endpoints when the design has no
    /// sequential ones), with its logic levels and net path.
    pub fn estimate(&mut self) -> TimingReport {
        self.propagate(&TimingConstraints::new());
        let has_seq = self
            .graph
            .endpoints
            .iter()
            .any(|e| matches!(e.kind, EndpointKind::Seq { .. }));
        let nc = self.classes.len();
        let mut critical = 0.0f64;
        let mut worst: Option<(NetId, usize)> = None;
        for ep in &self.graph.endpoints {
            let capture = match ep.kind {
                EndpointKind::Seq { domain } => self.clock_of_domain(domain),
                _ if has_seq => continue,
                _ => None,
            };
            let sink = self.graph.edge_delay(ep.net, ep.sink_loc);
            for (c, class) in self.classes.iter().enumerate() {
                if !compatible(class.clock, capture) {
                    continue;
                }
                let a = self.arrival[ep.net.index() * nc + c];
                if a == f64::NEG_INFINITY {
                    continue;
                }
                let t = a + sink + ep.extra_ns;
                if t > critical {
                    critical = t;
                    worst = Some((ep.net, c));
                }
            }
        }
        let (levels, path) = match worst {
            Some((net, c)) => (
                self.level[net.index() * nc + c] as usize,
                self.path_nets(net, c)
                    .into_iter()
                    .map(|n| self.graph.net_name(n).to_owned())
                    .collect(),
            ),
            None => (0, Vec::new()),
        };
        TimingReport {
            critical_path_ns: critical,
            fmax_mhz: self.graph.model.to_mhz(critical),
            levels,
            path,
            placed_fraction: self.graph.placed_fraction,
        }
    }

    /// Setup slack at a named net: minimum over launch classes of
    /// required minus arrival time. `None` when the net is untimed or
    /// unknown. Computes the backward required-time pass on first use
    /// after an analysis.
    pub fn net_slack(&mut self, net_name: &str) -> Option<f64> {
        let flat = self.graph.index.flat();
        let net = (0..flat.net_count())
            .find(|&i| flat.nets()[i].name == net_name)
            .map(NetId::from_index)?;
        self.ensure_required();
        let nc = self.classes.len();
        let mut best: Option<f64> = None;
        for c in 0..nc {
            let ix = net.index() * nc + c;
            let (a, r) = (self.arrival[ix], self.required[ix]);
            if a > f64::NEG_INFINITY && r < f64::INFINITY {
                let s = r - a;
                best = Some(best.map_or(s, |b: f64| b.min(s)));
            }
        }
        best
    }

    /// Seeds and classes for a constraint set. A structural domain
    /// that no constraint clock names launches on a clock of its own,
    /// `clocks().len()` plus the domain's position among the domains.
    fn build_seeds(&self, constraints: &TimingConstraints) -> SeedTable {
        let mut classes: Vec<LaunchClass> = Vec::new();
        let mut class_ix: HashMap<LaunchClass, usize> = HashMap::new();
        let mut intern = |classes: &mut Vec<LaunchClass>, class: LaunchClass| -> usize {
            *class_ix.entry(class).or_insert_with(|| {
                classes.push(class);
                classes.len() - 1
            })
        };
        // The universal class always exists so input-less gates have a
        // home (as in the historical estimator, their outputs arrive at
        // their primitive delay).
        intern(
            &mut classes,
            LaunchClass {
                clock: None,
                mask: 0,
            },
        );

        let mut domain_clock: Vec<(NetId, usize)> = Vec::new();
        let clock_of = |domain_clock: &mut Vec<(NetId, usize)>, root: NetId| -> usize {
            if let Some(&(_, c)) = domain_clock.iter().find(|(r, _)| *r == root) {
                return c;
            }
            let clocks = constraints.clocks();
            let c = clocks
                .iter()
                .position(|c| clock_pattern_matches(&c.pattern, self.graph.net_name(root)))
                .unwrap_or(clocks.len() + domain_clock.len());
            domain_clock.push((root, c));
            c
        };
        let from_mask = |name: &str| -> u64 {
            let mut mask = 0u64;
            for (i, e) in constraints.exceptions().iter().enumerate() {
                if pattern_matches(&e.from, name) {
                    mask |= 1 << i;
                }
            }
            mask
        };

        let mut seeds: Vec<Seed> = Vec::new();
        let mut seeded = vec![false; self.graph.index.flat().net_count()];
        for launch in &self.graph.seq_launches {
            let clock = clock_of(&mut domain_clock, launch.domain);
            let class = intern(
                &mut classes,
                LaunchClass {
                    clock: Some(clock),
                    mask: from_mask(&launch.path),
                },
            );
            for &net in &launch.nets {
                seeded[net.index()] = true;
                seeds.push(Seed {
                    net,
                    class,
                    at_ns: self.graph.model.clk_to_q_ns,
                    name: launch.path.clone(),
                });
            }
        }
        for (name, nets) in &self.graph.input_ports {
            for (bit, &net) in nets.iter().enumerate() {
                let bitname = if nets.len() > 1 {
                    format!("{name}[{bit}]")
                } else {
                    name.clone()
                };
                let delay = constraints.input_delays().iter().find(|d| {
                    pattern_matches(&d.pattern, &bitname) || pattern_matches(&d.pattern, name)
                });
                let (clock, at_ns) = match delay {
                    Some(d) => (
                        constraints.clocks().iter().position(|c| c.name == d.clock),
                        d.delay_ns,
                    ),
                    None => (None, 0.0),
                };
                let class = intern(
                    &mut classes,
                    LaunchClass {
                        clock,
                        mask: from_mask(&bitname),
                    },
                );
                seeded[net.index()] = true;
                seeds.push(Seed {
                    net,
                    class,
                    at_ns,
                    name: bitname,
                });
            }
        }
        for (path, nets) in &self.graph.bb_launches {
            let class = intern(
                &mut classes,
                LaunchClass {
                    clock: None,
                    mask: from_mask(path),
                },
            );
            for &net in nets {
                if seeded[net.index()] {
                    continue;
                }
                seeded[net.index()] = true;
                seeds.push(Seed {
                    net,
                    class,
                    at_ns: 0.0,
                    name: path.clone(),
                });
            }
        }
        // Everything else without a producer (constants, dangling
        // wires) arrives at t=0, matching the historical estimator's
        // all-zeros initial state.
        for (i, seeded) in seeded.iter().enumerate() {
            let net = NetId::from_index(i);
            if *seeded || self.graph.index.producer_index(net).is_some() {
                continue;
            }
            let name = self.graph.net_name(net).to_owned();
            let class = intern(
                &mut classes,
                LaunchClass {
                    clock: None,
                    mask: from_mask(&name),
                },
            );
            seeds.push(Seed {
                net,
                class,
                at_ns: 0.0,
                name,
            });
        }
        (classes, seeds, domain_clock)
    }

    fn rebuild_seed_index(&mut self) {
        self.seed_at.clear();
        for (i, seed) in self.seeds.iter().enumerate() {
            let key = (seed.net.index() as u32, seed.class as u32);
            let entry = self.seed_at.entry(key).or_insert((seed.at_ns, i as u32));
            if seed.at_ns > entry.0 {
                *entry = (seed.at_ns, i as u32);
            }
        }
    }

    fn propagate(&mut self, constraints: &TimingConstraints) {
        let (classes, seeds, domain_clock) = self.build_seeds(constraints);
        self.classes = classes;
        self.seeds = seeds;
        self.domain_clock = domain_clock;
        self.constraints = constraints.clone();
        self.rebuild_seed_index();

        let nc = self.classes.len();
        let len = self.graph.index.flat().net_count() * nc;
        self.arrival = vec![f64::NEG_INFINITY; len];
        self.pred = vec![None; len];
        self.level = vec![0; len];
        self.required_valid = false;
        for seed in &self.seeds {
            let ix = seed.net.index() * nc + seed.class;
            if seed.at_ns > self.arrival[ix] {
                self.arrival[ix] = seed.at_ns;
            }
        }
        for &ni in self.graph.index.topo_order() {
            self.propagate_node(ni);
        }
    }

    /// Computes one gate's output arrival in every class from its
    /// inputs and any static seed.
    fn propagate_node(&mut self, ni: usize) {
        let nc = self.classes.len();
        let node = &self.graph.nodes[ni];
        let prim = self.graph.model.prim_delay(&node.kind);
        let out = node.output.index();
        let lut = u32::from(node.is_lut_level());
        for c in 0..nc {
            let mut best = f64::NEG_INFINITY;
            let mut best_pred = None;
            let mut best_level = 0u32;
            for &input in &node.inputs {
                let a = self.arrival[input.index() * nc + c];
                if a == f64::NEG_INFINITY {
                    continue;
                }
                let t = a + self.graph.gate_edge_delay(input, node);
                if t > best {
                    best = t;
                    best_pred = Some(input);
                    best_level = self.level[input.index() * nc + c];
                }
            }
            if node.inputs.is_empty() && c == 0 {
                // As in the historical estimator, an input-less gate's
                // output still arrives at its primitive delay.
                best = 0.0;
            }
            let (mut val, mut pd, mut lv) = if best > f64::NEG_INFINITY {
                (best + prim, best_pred, best_level + lut)
            } else {
                (f64::NEG_INFINITY, None, 0)
            };
            if let Some(&(seed, _)) = self.seed_at.get(&(out as u32, c as u32)) {
                if seed >= val {
                    val = seed;
                    pd = None;
                    lv = 0;
                }
            }
            let ix = out * nc + c;
            self.arrival[ix] = val;
            self.pred[ix] = pd;
            self.level[ix] = lv;
        }
    }

    /// Launch clock of a structural domain, constrained or not.
    fn clock_of_domain(&self, domain: NetId) -> Option<usize> {
        self.domain_clock
            .iter()
            .find(|(r, _)| *r == domain)
            .map(|&(_, c)| c)
    }

    /// Capture clock of an endpoint under the current constraints, or
    /// `None` when it is unconstrained (a domain no clock names).
    fn capture_clock(&self, ep: &super::graph::Endpoint) -> Option<usize> {
        match ep.kind {
            EndpointKind::Seq { domain } => self
                .clock_of_domain(domain)
                .filter(|&k| k < self.constraints.clocks().len()),
            EndpointKind::Output => self
                .constraints
                .output_delays()
                .iter()
                .find(|d| port_pattern_matches(&d.pattern, &ep.name))
                .and_then(|d| {
                    self.constraints
                        .clocks()
                        .iter()
                        .position(|c| c.name == d.clock)
                }),
            EndpointKind::BlackBox => None,
        }
    }

    fn build_report(&mut self) -> StaReport {
        let nc = self.classes.len();
        let mut endpoints: Vec<EndpointSlack> = Vec::new();
        let mut unconstrained: Vec<String> = Vec::new();
        // Worst (endpoint net, class) per reported endpoint, for path
        // reconstruction of the top-K list; `None` when nothing
        // launches into the endpoint.
        let mut worst_key: Vec<Option<(NetId, usize)>> = Vec::new();

        for ep in &self.graph.endpoints {
            let Some(k) = self.capture_clock(ep) else {
                if !matches!(ep.kind, EndpointKind::BlackBox) {
                    unconstrained.push(ep.name.clone());
                }
                continue;
            };
            let clock = &self.constraints.clocks()[k];
            let output_delay = match ep.kind {
                EndpointKind::Output => self
                    .constraints
                    .output_delays()
                    .iter()
                    .find(|d| port_pattern_matches(&d.pattern, &ep.name))
                    .map_or(0.0, |d| d.delay_ns),
                _ => 0.0,
            };
            let sink = self.graph.edge_delay(ep.net, ep.sink_loc);
            let mut best: Option<(f64, f64, f64, usize)> = None; // slack, arrival, required, class
            for (c, class) in self.classes.iter().enumerate() {
                if !compatible(class.clock, Some(k)) {
                    continue;
                }
                let a = self.arrival[ep.net.index() * nc + c];
                if a == f64::NEG_INFINITY {
                    continue;
                }
                let data_arrival = a + sink + ep.extra_ns;
                let mut periods = 1u32;
                let mut skip = false;
                for (i, x) in self.constraints.exceptions().iter().enumerate() {
                    if class.mask & (1 << i) != 0 && pattern_matches(&x.to, &ep.name) {
                        match x.kind {
                            ExceptionKind::FalsePath => skip = true,
                            ExceptionKind::Multicycle(n) => periods = n,
                        }
                        break;
                    }
                }
                if skip {
                    continue;
                }
                let required = clock.period_ns * f64::from(periods) - output_delay;
                let slack = required - data_arrival;
                if best.is_none_or(|(s, ..)| slack < s) {
                    best = Some((slack, data_arrival, required, c));
                }
            }
            match best {
                Some((slack, arrival, required, c)) => {
                    let startpoint = self.startpoint(ep.net, c);
                    worst_key.push(Some((ep.net, c)));
                    endpoints.push(EndpointSlack {
                        endpoint: ep.name.clone(),
                        clock: clock.name.clone(),
                        slack_ns: slack,
                        arrival_ns: arrival,
                        required_ns: required,
                        startpoint,
                    });
                }
                None => {
                    // Constrained but nothing launches into it (e.g.
                    // every path is a false path): meets timing by
                    // construction, reported with bare sink arrival
                    // and no path.
                    let data_arrival = sink + ep.extra_ns;
                    worst_key.push(None);
                    endpoints.push(EndpointSlack {
                        endpoint: ep.name.clone(),
                        clock: clock.name.clone(),
                        slack_ns: clock.period_ns - output_delay - data_arrival,
                        arrival_ns: data_arrival,
                        required_ns: clock.period_ns - output_delay,
                        startpoint: "(none)".into(),
                    });
                }
            }
        }

        // Sort worst-first, carrying the path keys along.
        let mut idx: Vec<usize> = (0..endpoints.len()).collect();
        idx.sort_by(|&a, &b| {
            endpoints[a]
                .slack_ns
                .partial_cmp(&endpoints[b].slack_ns)
                .expect("finite slack")
                .then_with(|| endpoints[a].endpoint.cmp(&endpoints[b].endpoint))
        });
        let endpoints: Vec<EndpointSlack> = idx.iter().map(|&i| endpoints[i].clone()).collect();
        let worst_key: Vec<Option<(NetId, usize)>> = idx.iter().map(|&i| worst_key[i]).collect();
        unconstrained.sort();
        unconstrained.dedup();

        let clocks: Vec<ClockSlack> = self
            .constraints
            .clocks()
            .iter()
            .map(|c| {
                let mut count = 0usize;
                let mut violations = 0usize;
                let mut worst = f64::INFINITY;
                for e in endpoints.iter().filter(|e| e.clock == c.name) {
                    count += 1;
                    if e.slack_ns < 0.0 {
                        violations += 1;
                    }
                    worst = worst.min(e.slack_ns);
                }
                ClockSlack {
                    clock: c.name.clone(),
                    period_ns: c.period_ns,
                    endpoints: count,
                    violations,
                    worst_slack_ns: worst,
                }
            })
            .collect();

        let paths: Vec<PathReport> = endpoints
            .iter()
            .zip(&worst_key)
            .filter_map(|(e, key)| Some((e, (*key)?)))
            .take(TOP_PATHS)
            .map(|(e, (net, c))| PathReport {
                endpoint: e.endpoint.clone(),
                startpoint: e.startpoint.clone(),
                clock: e.clock.clone(),
                slack_ns: e.slack_ns,
                levels: self.level[net.index() * nc + c] as usize,
                steps: self
                    .path_nets(net, c)
                    .into_iter()
                    .map(|n| PathStep {
                        net: self.graph.net_name(n).to_owned(),
                        arrival_ns: self.arrival[n.index() * nc + c],
                    })
                    .collect(),
            })
            .collect();

        StaReport {
            design: self.graph.index.flat().design_name().to_owned(),
            clocks,
            endpoints,
            unconstrained,
            paths,
        }
    }

    /// The nets of the predecessor chain into `(net, class)`, launch to
    /// endpoint.
    fn path_nets(&self, net: NetId, class: usize) -> Vec<NetId> {
        let nc = self.classes.len();
        let mut nets = vec![net];
        while let Some(p) = self.pred[nets[nets.len() - 1].index() * nc + class] {
            nets.push(p);
        }
        nets.reverse();
        nets
    }

    /// Startpoint object name of the path into `(net, class)`: the seed
    /// name at the head of the predecessor chain, or the head net's
    /// name when no seed starts there.
    fn startpoint(&self, net: NetId, class: usize) -> String {
        let nc = self.classes.len();
        let mut head = net;
        while let Some(p) = self.pred[head.index() * nc + class] {
            head = p;
        }
        match self.seed_at.get(&(head.index() as u32, class as u32)) {
            Some(&(_, i)) => self.seeds[i as usize].name.clone(),
            None => self.graph.net_name(head).to_owned(),
        }
    }

    /// Computes backward required times once per analysis (lazily).
    fn ensure_required(&mut self) {
        if self.required_valid {
            return;
        }
        let nc = self.classes.len();
        let len = self.graph.index.flat().net_count() * nc;
        self.required = vec![f64::INFINITY; len];
        for ep in &self.graph.endpoints {
            let Some(k) = self.capture_clock(ep) else {
                continue;
            };
            let clock = &self.constraints.clocks()[k];
            let output_delay = match ep.kind {
                EndpointKind::Output => self
                    .constraints
                    .output_delays()
                    .iter()
                    .find(|d| port_pattern_matches(&d.pattern, &ep.name))
                    .map_or(0.0, |d| d.delay_ns),
                _ => 0.0,
            };
            let sink = self.graph.edge_delay(ep.net, ep.sink_loc);
            for (c, class) in self.classes.iter().enumerate() {
                if !compatible(class.clock, Some(k)) {
                    continue;
                }
                let mut periods = 1u32;
                let mut skip = false;
                for (i, x) in self.constraints.exceptions().iter().enumerate() {
                    if class.mask & (1 << i) != 0 && pattern_matches(&x.to, &ep.name) {
                        match x.kind {
                            ExceptionKind::FalsePath => skip = true,
                            ExceptionKind::Multicycle(n) => periods = n,
                        }
                        break;
                    }
                }
                if skip {
                    continue;
                }
                let req = clock.period_ns * f64::from(periods) - output_delay - sink - ep.extra_ns;
                let ix = ep.net.index() * nc + c;
                self.required[ix] = self.required[ix].min(req);
            }
        }
        for &ni in self.graph.index.topo_order().iter().rev() {
            let node = &self.graph.nodes[ni];
            let prim = self.graph.model.prim_delay(&node.kind);
            let out = node.output.index();
            for c in 0..nc {
                let r = self.required[out * nc + c];
                if r == f64::INFINITY {
                    continue;
                }
                for &input in &node.inputs {
                    let cand = r - prim - self.graph.gate_edge_delay(input, node);
                    let ix = input.index() * nc + c;
                    self.required[ix] = self.required[ix].min(cand);
                }
            }
        }
        self.required_valid = true;
    }
}

/// Port-delay patterns match the endpoint's bit name (`product[11]`)
/// or its plain port name (`product`) — mirroring how input delays
/// match either form in `build_seeds`.
fn port_pattern_matches(pattern: &str, ep_name: &str) -> bool {
    pattern_matches(pattern, ep_name)
        || ep_name
            .rsplit_once('[')
            .is_some_and(|(base, _)| pattern_matches(pattern, base))
}

/// A launch clocked by `launch` reaches a capture clocked by `capture`
/// iff the launch is unclocked (absolute-time data) or same-domain.
fn compatible(launch: Option<usize>, capture: Option<usize>) -> bool {
    match launch {
        None => true,
        Some(l) => capture == Some(l),
    }
}
