//! Fanout and port-width limit checks, fed by the timing estimator's
//! delay model.
//!
//! High-fanout nets dominate unplaced routing delay
//! (`DelayModel::net_delay_unplaced` grows linearly in fanout), so
//! each violation quotes the modelled net delay and, when the design
//! levelizes, the estimated critical path for scale. Clock nets are
//! exempt — the architecture routes them on dedicated low-skew trees.
//! Port widths beyond 64 bits exceed the simulator's `u64` convenience
//! API and usually indicate a generator parameter mistake.

use ipd_estimate::Sta;
use ipd_hdl::{NetId, Severity};
use ipd_techlib::{DelayModel, NetDelaySource};

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Flags over-limit fanout nets and over-wide primary ports.
pub struct FanoutPass;

const FANOUT_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "high-fanout",
        severity: Severity::Warning,
        help: "a non-clock net exceeds the configured fanout limit",
    },
    RuleInfo {
        id: "port-width",
        severity: Severity::Warning,
        help: "a primary port is wider than the configured limit",
    },
];

impl Pass for FanoutPass {
    fn name(&self) -> &'static str {
        "fanout"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        FANOUT_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        let delay = DelayModel::virtex();
        let limit = ctx.config().max_fanout;
        // Critical-path context, computed only once a violation needs
        // it (the estimate costs more than the whole scan on clean
        // designs); unavailable when the design does not levelize
        // (loops, unknown primitives) — omitted then.
        let mut critical: Option<Option<f64>> = None;

        for i in 0..model.flat().net_count() {
            let net = NetId::from_index(i);
            let fanout = model.fanout(net);
            if fanout <= limit || model.is_clock_net(net) {
                continue;
            }
            let mut message = format!(
                "fanout {fanout} exceeds limit {limit}; ~{:.2} ns modelled net delay",
                delay.net_delay_unplaced(fanout)
            );
            let cp = critical.get_or_insert_with(|| {
                Sta::new(model.index(), &delay, NetDelaySource::Heuristic)
                    .ok()
                    .map(|mut sta| sta.estimate().critical_path_ns)
            });
            if let Some(cp) = *cp {
                message.push_str(&format!(" (critical path {cp:.2} ns)"));
            }
            ctx.emit(
                "high-fanout",
                Severity::Warning,
                model.net_name(net),
                message,
            );
        }

        let width_limit = ctx.config().max_port_width;
        for port in model.flat().ports() {
            let width = port.nets.len() as u32;
            if width > width_limit {
                ctx.emit(
                    "port-width",
                    Severity::Warning,
                    &port.name,
                    format!("port is {width} bits wide (limit {width_limit})"),
                );
            }
        }
    }
}
