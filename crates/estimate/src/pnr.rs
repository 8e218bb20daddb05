//! The place-and-route pipeline: placement → global routing → routed
//! static timing.
//!
//! [`place_and_route`] chains the annealing placer (pinned to the hand
//! layout or from scratch), the congestion-negotiated global router,
//! and STA backannotated with routed wire lengths into one call,
//! returning a [`PhysicalDesign`] that answers timing questions from
//! real geometry instead of the Manhattan-distance heuristic.

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use crate::error::EstimateError;
use crate::place::{auto_place, PlacementResult, PlacerConfig, PlacerMode};
use crate::route::{route, RouterConfig, RoutingResult};
use crate::sta::{Sta, StaReport, TimingConstraints};
use crate::timing::TimingReport;

/// How the pipeline obtains a placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Trust the hand layout: existing `RLOC`s stay pinned and only
    /// unplaced leaves are annealed into the gaps (the paper's module
    /// generators ship hand placement as part of the IP).
    #[default]
    Hand,
    /// Ignore any existing `RLOC`s and anneal everything from scratch.
    Anneal,
}

/// Parameters for [`place_and_route`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PnrConfig {
    /// Placement strategy.
    pub strategy: PlacementStrategy,
    /// Annealer parameters (its `mode` is overridden by `strategy`).
    pub placer: PlacerConfig,
    /// Router parameters.
    pub router: RouterConfig,
    /// Delay model for backannotation and timing.
    pub model: DelayModel,
}

impl PnrConfig {
    /// A configuration with the Virtex delay model and default knobs.
    #[must_use]
    pub fn virtex() -> Self {
        PnrConfig {
            model: DelayModel::virtex(),
            ..PnrConfig::default()
        }
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
}

impl PhysicalDesign {
    /// The placed circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.placement.circuit
    }

    /// The one-number timing estimate ([`Sta::estimate`]) under routed
    /// delays.
    ///
    /// # Errors
    ///
    /// Propagates flattening, technology and loop errors.
    pub fn timing(&self) -> Result<TimingReport, EstimateError> {
        let flat = FlatNetlist::build(self.circuit())?;
        let index = FlatIndex::new(&flat);
        Ok(Sta::new(&index, &self.model, self.source.clone())?.estimate())
    }

    /// Full constraint-driven STA under routed delays.
    ///
    /// # Errors
    ///
    /// Propagates flattening, technology and loop errors.
    pub fn analyze(&self, constraints: &TimingConstraints) -> Result<StaReport, EstimateError> {
        let flat = FlatNetlist::build(self.circuit())?;
        let index = FlatIndex::new(&flat);
        let mut sta = Sta::new(&index, &self.model, self.source.clone())?;
        Ok(sta.analyze(constraints))
    }
}

/// Places and routes a circuit, returning the [`PhysicalDesign`].
///
/// # Errors
///
/// Propagates placement, flattening and routing errors.
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
    let placer = PlacerConfig {
        mode: match config.strategy {
            PlacementStrategy::Hand => PlacerMode::Pinned,
            PlacementStrategy::Anneal => PlacerMode::Scratch,
        },
        ..config.placer
    };
    let placement = auto_place(circuit, &placer)?;
    let flat = FlatNetlist::build(&placement.circuit)?;
    let routing = route(&flat, &config.model, &config.router)?;
    let source = routing.delay_source();
    Ok(PhysicalDesign {
        placement,
        routing,
        source,
        model: config.model.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::estimate_timing;
    use ipd_hdl::{PortSpec, Rloc, Signal};
    use ipd_techlib::LogicCtx;

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
                assert_eq!(b.loc, a.loc, "{} moved under Hand strategy", b.path);
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
        let config = PnrConfig {
            strategy: PlacementStrategy::Anneal,
            ..PnrConfig::virtex()
        };
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
