//! The place-and-route pipeline: placement → global routing → routed
//! static timing.
//!
//! [`place_and_route`] elaborates its circuit once: it flattens and
//! indexes it, the annealing placer (pinned to the hand layout or from
//! scratch) writes its leaf locations into that index, the
//! congestion-negotiated global router routes on it, and the returned
//! [`PhysicalDesign`] keeps it, so STA backannotated with routed wire
//! lengths answers timing questions from real geometry instead of the
//! Manhattan-distance heuristic without elaborating anything again.

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use crate::error::EstimateError;
use crate::place::{place, PlacementResult, PlacerConfig, PlacerMode};
use crate::route::{route, RouterConfig, RoutingResult};
use crate::sta::{Sta, StaReport, TimingConstraints};
use crate::timing::TimingReport;

/// Parameters for [`place_and_route`].
#[derive(Debug, Clone, PartialEq)]
pub struct PnrConfig {
    /// Annealer parameters. Its `mode` chooses between trusting the
    /// hand layout ([`PlacerMode::Pinned`], the default here: existing
    /// `RLOC`s stay and only unplaced leaves are annealed into the
    /// gaps, since the paper's module generators ship hand placement
    /// as part of the IP) and annealing everything from scratch.
    pub placer: PlacerConfig,
    /// Router parameters.
    pub router: RouterConfig,
    /// Delay model for backannotation and timing.
    pub model: DelayModel,
}

impl Default for PnrConfig {
    fn default() -> Self {
        PnrConfig {
            placer: PlacerConfig {
                mode: PlacerMode::Pinned,
                ..PlacerConfig::default()
            },
            router: RouterConfig::default(),
            model: DelayModel::virtex(),
        }
    }
}

impl PnrConfig {
    /// Hand placement with the Virtex delay model and default knobs
    /// (the same as [`PnrConfig::default`]).
    #[must_use]
    pub fn virtex() -> Self {
        PnrConfig::default()
    }
}

/// A placed and routed design with its backannotated delay source.
#[derive(Debug, Clone)]
pub struct PhysicalDesign {
    /// The placement (its `circuit` carries the final `RLOC`s).
    pub placement: PlacementResult,
    /// The routed trees, channel occupancy and convergence stats.
    pub routing: RoutingResult,
    /// The routed delay source consumed by STA.
    pub source: NetDelaySource,
    /// The delay model the route and timing were produced under.
    pub model: DelayModel,
    index: FlatIndex,
}

impl PhysicalDesign {
    /// The placed circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.placement.circuit
    }

    /// The placed design's index; its netlist carries the final leaf
    /// locations.
    #[must_use]
    pub fn index(&self) -> &FlatIndex {
        &self.index
    }

    /// The one-number timing estimate ([`Sta::estimate`]) under routed
    /// delays.
    ///
    /// # Errors
    ///
    /// Propagates loop errors.
    pub fn timing(&self) -> Result<TimingReport, EstimateError> {
        Ok(Sta::new(&self.index, &self.model, self.source.clone())?.estimate())
    }

    /// Full constraint-driven STA under routed delays.
    ///
    /// # Errors
    ///
    /// Propagates loop errors.
    pub fn analyze(&self, constraints: &TimingConstraints) -> Result<StaReport, EstimateError> {
        let mut sta = Sta::new(&self.index, &self.model, self.source.clone())?;
        Ok(sta.analyze(constraints))
    }
}

/// Places and routes a circuit, returning the [`PhysicalDesign`].
///
/// # Errors
///
/// Propagates flattening, placement and routing errors.
///
/// # Examples
///
/// ```
/// use ipd_estimate::{place_and_route, PnrConfig};
/// use ipd_hdl::{Circuit, PortSpec, Rloc, Signal};
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("pair");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 1))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// let t = ctx.wire("t", 1);
/// let u = ctx.inv(a, t)?;
/// ctx.set_rloc(u, Rloc::new(0, 0));
/// let v = ctx.inv(t, y)?;
/// ctx.set_rloc(v, Rloc::new(0, 4));
/// let phys = place_and_route(&circuit, &PnrConfig::virtex())?;
/// assert!(phys.routing.stats.converged);
/// assert!(phys.timing()?.critical_path_ns > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn place_and_route(
    circuit: &Circuit,
    config: &PnrConfig,
) -> Result<PhysicalDesign, EstimateError> {
    let mut index = FlatIndex::new(FlatNetlist::build(circuit)?);
    let placement = place(circuit, &mut index, &config.placer)?;
    let routing = route(&index, &config.model, &config.router)?;
    let source = routing.delay_source();
    Ok(PhysicalDesign {
        placement,
        routing,
        source,
        model: config.model.clone(),
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::estimate_timing;
    use ipd_hdl::{PortSpec, Primitive, Rloc, Signal};
    use ipd_techlib::{LogicCtx, TechError};

    /// A hand-placed 2x4 grid of xor pairs feeding a registered output.
    fn hand_placed() -> Circuit {
        let mut c = Circuit::new("hand");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 8)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur: Signal = Signal::bit_of(a, 0);
        for b in 1..8 {
            let t = ctx.wire(&format!("t{b}"), 1);
            let x = ctx.xor2(cur, Signal::bit_of(a, b), t).unwrap();
            ctx.set_rloc(x, Rloc::new((b as i32 - 1) / 4, (b as i32 - 1) % 4));
            cur = t.into();
        }
        let f = ctx.fd(clk, cur, q).unwrap();
        ctx.set_rloc(f, Rloc::new(1, 3));
        c
    }

    #[test]
    fn hand_strategy_preserves_rlocs_and_routes() {
        let circuit = hand_placed();
        let before = FlatNetlist::build(&circuit).unwrap();
        let phys = place_and_route(&circuit, &PnrConfig::virtex()).unwrap();
        let after = FlatNetlist::build(phys.circuit()).unwrap();
        for (b, a) in before.leaves().iter().zip(after.leaves()) {
            if b.loc.is_some() {
                assert_eq!(b.loc, a.loc, "{} moved under pinned placement", b.path);
            }
        }
        assert!(phys.routing.stats.converged, "{}", phys.routing.stats);
        assert!(phys.routing.stats.nets > 0);
    }

    #[test]
    fn routed_timing_is_at_least_heuristic_timing() {
        let circuit = hand_placed();
        let phys = place_and_route(&circuit, &PnrConfig::virtex()).unwrap();
        let heuristic = estimate_timing(phys.circuit()).unwrap();
        let routed = phys.timing().unwrap();
        assert!(
            routed.critical_path_ns >= heuristic.critical_path_ns - 1e-9,
            "routed {} < heuristic {}",
            routed.critical_path_ns,
            heuristic.critical_path_ns
        );
    }

    #[test]
    fn anneal_strategy_places_an_unplaced_circuit() {
        let mut circuit = hand_placed();
        circuit.strip_placement();
        let mut config = PnrConfig::virtex();
        config.placer.mode = PlacerMode::Scratch;
        let phys = place_and_route(&circuit, &config).unwrap();
        let flat = FlatNetlist::build(phys.circuit()).unwrap();
        assert!(flat.leaves().iter().any(|l| l.loc.is_some()));
        assert!(phys.routing.stats.converged);
        // Every routed sink reported a positive delay.
        for net in &phys.routing.nets {
            for sink in &net.sinks {
                assert!(sink.delay_ns > 0.0);
            }
        }
    }

    #[test]
    fn analyze_runs_constraint_sta_on_routed_delays() {
        let circuit = hand_placed();
        let phys = place_and_route(&circuit, &PnrConfig::virtex()).unwrap();
        let mut constraints = TimingConstraints::new();
        constraints.clock("clk", 10.0, "clk");
        let report = phys.analyze(&constraints).unwrap();
        assert!(!report.endpoints.is_empty());
    }

    /// Area, placement and routing refuse what the index refuses, as
    /// timing already did: here an `fd` whose clock pin is missing.
    #[test]
    fn a_leaf_missing_a_library_pin_is_refused_by_area_and_pnr() {
        let mut circuit = Circuit::new("noclk");
        let mut ctx = circuit.root_ctx();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let ff = ctx
            .leaf(
                Primitive::new("virtex", "fd"),
                vec![PortSpec::input("d", 1), PortSpec::output("q", 1)],
                "ff",
                &[("d", d.into()), ("q", q.into())],
            )
            .unwrap();
        ctx.set_rloc(ff, Rloc::new(0, 0));
        let refusal = EstimateError::Tech(TechError::PortMismatch {
            name: "fd".into(),
            port: "c".into(),
            width: 1,
        });
        assert_eq!(crate::estimate_area(&circuit), Err(refusal.clone()));
        assert_eq!(estimate_timing(&circuit), Err(refusal.clone()));
        let pnr = place_and_route(&circuit, &PnrConfig::virtex());
        assert_eq!(pnr.map(|_| ()), Err(refusal));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let circuit = hand_placed();
        let a = place_and_route(&circuit, &PnrConfig::virtex()).unwrap();
        let b = place_and_route(&circuit, &PnrConfig::virtex()).unwrap();
        assert_eq!(a.routing.stats, b.routing.stats);
        assert_eq!(
            a.timing().unwrap().critical_path_ns,
            b.timing().unwrap().critical_path_ns
        );
    }
}
