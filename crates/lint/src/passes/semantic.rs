//! The semantic lint tier: structural findings upgraded by SAT.
//!
//! Structural passes reason about graph shape; this pass re-derives
//! their claims and asks an `ipd-verify` [`Oracle`] whether each one
//! *holds over every input and reachable-state assignment*:
//!
//! * `dead-logic` — a structurally dead leaf is upgraded to `Proved`
//!   when flipping each of its outputs provably changes no primary
//!   output and no next-state function.
//! * `constant-logic` — each structural stuck-at claim is confirmed
//!   (`Proved`), retracted (the solver found a toggling assignment),
//!   or kept at `BudgetExhausted`; random-signature mining then finds
//!   *semantically* constant nets structure alone misses (a mux whose
//!   arms agree, cancelling XOR chains).
//! * `x-reachable` — each structurally X-tainted primary output is
//!   re-judged against the dual-rail model: proved-never-X findings
//!   are dropped, refuted ones ship a simulator-replayed witness.
//! * `unreachable-state` (new) — bounded reachability across the
//!   register cut; a state bit stuck at its power-on value across the
//!   entire reachable set means half its state space is dead.
//! * `redundant-logic` (new) — signature-bucketed SAT equivalence
//!   finds gates duplicating an existing net (possibly complemented),
//!   and observability don't-care analysis finds gates replaceable by
//!   a constant.
//!
//! Every verdict is three-valued; the conflict budget makes `Unknown`
//! (never a wrong answer) the worst case, and every refutation has
//! been replayed through both simulation engines before it reaches
//! the report. When the design refuses to lower (combinational
//! loops, black boxes, undriven cones), the pass degrades to the
//! structural findings at tier `Structural` — semantic lint never
//! reports *less* than structural lint.

use std::collections::BTreeMap;

use ipd_hdl::{Logic, NetId, PortDir, Severity};
use ipd_techlib::PrimKind;
use ipd_verify::{Oracle, OracleOptions, Verdict};

use super::dead::live_leaves;
use super::floatconst::is_buffer;
use super::xprop::x_reachable;
use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};
use crate::report::ProofTier;

/// Upgrades structural findings with SAT proofs and adds the
/// reachability and redundancy rule families.
pub struct SemanticPass {
    opts: OracleOptions,
    /// Cap on `prove_unobservable` queries (each may lower a flipped
    /// design copy); dead leaves beyond it stay `Structural`.
    unobservable_cap: usize,
    /// Cap on pairwise `prove_equal` queries.
    equal_cap: usize,
    /// Cap on ODC extractions (each is up to 16 SAT calls).
    odc_cap: usize,
}

const SEMANTIC_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "unreachable-state",
        severity: Severity::Warning,
        help: "a register bit is stuck at its power-on value across every reachable state",
    },
    RuleInfo {
        id: "redundant-logic",
        severity: Severity::Warning,
        help: "a gate is SAT-equivalent to an existing net, or constant under observability don't-cares",
    },
];

const DEAD_MSG: &str = "leaf is outside the cone of influence of every primary output";

impl SemanticPass {
    /// A semantic pass querying an [`Oracle`] built with `opts`.
    #[must_use]
    pub fn new(opts: OracleOptions) -> Self {
        SemanticPass {
            opts,
            unobservable_cap: 32,
            equal_cap: 64,
            odc_cap: 24,
        }
    }
}

/// One structural `constant-logic` claim, re-derived exactly as
/// [`super::FloatConstPass`] derives it (same skip conditions, so the
/// semantic tier confirms or retracts precisely what the structural
/// tier would have reported).
struct ConstClaim {
    leaf: usize,
    net: NetId,
    value: Logic,
}

fn structural_const_claims(model: &LintModel<'_>) -> Vec<ConstClaim> {
    let value = model.const_values();
    let mut claims = Vec::new();
    for node in model.comb_nodes() {
        let Some(kind) = node.kind else { continue };
        if is_buffer(kind) {
            continue;
        }
        let Some(v) = value[node.output.index()] else {
            continue;
        };
        let has_varying_input = node.inputs.iter().any(|n| value[n.index()].is_none());
        if !has_varying_input {
            continue;
        }
        if model.fanout(node.output) == 0 {
            continue;
        }
        claims.push(ConstClaim {
            leaf: node.leaf,
            net: node.output,
            value: v,
        });
    }
    claims
}

fn const_message(model: &LintModel<'_>, net: NetId, v: Logic) -> String {
    format!(
        "output net {} is stuck at {v} despite varying inputs",
        model.net_name(net)
    )
}

/// The structural `dead-logic`/`constant-logic` findings at tier
/// `Structural` — the degradation path when the design has no
/// two-valued model (loops, black boxes, undriven cones).
fn structural_dead_const(model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
    let live = live_leaves(model);
    for (li, leaf) in model.flat().leaves().iter().enumerate() {
        if !live[li] {
            ctx.emit(
                "dead-logic",
                Severity::Warning,
                &leaf.path,
                DEAD_MSG.to_owned(),
            );
        }
    }
    for claim in structural_const_claims(model) {
        ctx.emit(
            "constant-logic",
            Severity::Warning,
            model.leaf_path(claim.leaf),
            const_message(model, claim.net, claim.value),
        );
    }
}

/// The structural `x-reachable` findings at tier `Structural` — used
/// only when even the oracle's graph refuses to build.
fn structural_x(model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
    let x = x_reachable(model);
    for port in model.flat().ports() {
        if port.dir == PortDir::Input {
            continue;
        }
        for (bit, &net) in port.nets.iter().enumerate() {
            if x[net.index()] {
                ctx.emit(
                    "x-reachable",
                    Severity::Warning,
                    format!("{}[{bit}]", port.name),
                    format!(
                        "primary output can carry X (via net {})",
                        model.net_name(net)
                    ),
                );
            }
        }
    }
}

impl Pass for SemanticPass {
    fn name(&self) -> &'static str {
        "semantic"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        SEMANTIC_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        let mut oracle = match Oracle::new(model.index(), self.opts.clone()) {
            Ok(o) => o,
            Err(_) => {
                structural_dead_const(model, ctx);
                structural_x(model, ctx);
                return;
            }
        };
        if oracle.has_model() {
            let live = live_leaves(model);
            self.dead_logic(model, &mut oracle, &live, ctx);
            let claimed = self.constant_logic(model, &mut oracle, ctx);
            self.unreachable_state(&mut oracle, ctx);
            self.redundant_logic(model, &mut oracle, &live, &claimed, ctx);
        } else {
            // No two-valued model (undriven cones, loops): the proof
            // families above degrade to structural claims, but the
            // dual-rail X analysis below still works — undriven nets
            // are exactly what it models.
            structural_dead_const(model, ctx);
        }
        self.x_reach(model, &mut oracle, ctx);
    }
}

impl SemanticPass {
    /// Structurally dead leaves, upgraded to `Proved` when every
    /// output net of the leaf is provably unobservable.
    fn dead_logic(
        &self,
        model: &LintModel<'_>,
        oracle: &mut Oracle<'_>,
        live: &[bool],
        ctx: &mut PassCtx<'_>,
    ) {
        let mut budget = self.unobservable_cap;
        for (li, leaf) in model.flat().leaves().iter().enumerate() {
            if live[li] {
                continue;
            }
            let outs: Vec<NetId> = leaf
                .conns
                .iter()
                .filter(|c| c.dir != PortDir::Input)
                .flat_map(|c| c.nets.iter().copied())
                .collect();
            let mut tier = ProofTier::Structural;
            if budget >= outs.len() {
                budget -= outs.len();
                let all_proved = outs
                    .iter()
                    .all(|&n| matches!(oracle.prove_unobservable(n), Ok(v) if v.is_proved()));
                if all_proved {
                    tier = ProofTier::Proved;
                }
            }
            ctx.emit_proof(
                "dead-logic",
                Severity::Warning,
                &leaf.path,
                DEAD_MSG.to_owned(),
                tier,
            );
        }
    }

    /// Confirms/retracts the structural stuck-at claims, then mines
    /// semantically constant nets via random signatures. Returns the
    /// per-net mask of emitted constant findings (so redundancy
    /// analysis skips them).
    fn constant_logic(
        &self,
        model: &LintModel<'_>,
        oracle: &mut Oracle<'_>,
        ctx: &mut PassCtx<'_>,
    ) -> Vec<bool> {
        let mut claimed = vec![false; model.flat().net_count()];
        for claim in structural_const_claims(model) {
            claimed[claim.net.index()] = true;
            let message = const_message(model, claim.net, claim.value);
            let path = model.leaf_path(claim.leaf).to_owned();
            let Some(v) = claim.value.to_bool() else {
                ctx.emit_proof(
                    "constant-logic",
                    Severity::Warning,
                    path,
                    message,
                    ProofTier::Structural,
                );
                continue;
            };
            match oracle.prove_constant(claim.net, v) {
                Ok(Verdict::Proved) => {
                    ctx.emit_proof(
                        "constant-logic",
                        Severity::Warning,
                        path,
                        message,
                        ProofTier::Proved,
                    );
                }
                // The solver found a toggling assignment: the
                // structural claim was a false positive. Retract it.
                Ok(Verdict::Refuted(_)) => {}
                Ok(Verdict::Unknown { .. }) => {
                    ctx.emit_proof(
                        "constant-logic",
                        Severity::Warning,
                        path,
                        message,
                        ProofTier::BudgetExhausted,
                    );
                }
                Err(_) => {
                    ctx.emit_proof(
                        "constant-logic",
                        Severity::Warning,
                        path,
                        message,
                        ProofTier::Structural,
                    );
                }
            }
        }

        // Signature mining: a net whose 512-pattern random signature
        // never toggles is a constant *candidate*; only a SAT proof
        // promotes it to a finding.
        let konst = model.const_values();
        let sigs = oracle.net_signatures().to_vec();
        for node in model.comb_nodes() {
            let Some(kind) = node.kind else { continue };
            if is_buffer(kind)
                || claimed[node.output.index()]
                || model.fanout(node.output) == 0
                || konst[node.output.index()].is_some()
            {
                continue;
            }
            // Direct rail taps are how constants are meant to be used.
            if node.inputs.iter().all(|n| konst[n.index()].is_some()) {
                continue;
            }
            let Some(sig) = sigs.get(node.output.index()).copied().flatten() else {
                continue;
            };
            let guess = if sig.iter().all(|&w| w == 0) {
                false
            } else if sig.iter().all(|&w| w == u64::MAX) {
                true
            } else {
                continue;
            };
            if let Ok(Verdict::Proved) = oracle.prove_constant(node.output, guess) {
                claimed[node.output.index()] = true;
                ctx.emit_proof(
                    "constant-logic",
                    Severity::Warning,
                    model.leaf_path(node.leaf),
                    format!(
                        "output net {} is semantically stuck at {} (structure varies, function does not)",
                        model.net_name(node.output),
                        Logic::from_bool(guess)
                    ),
                    ProofTier::Proved,
                );
            }
        }
        claimed
    }

    /// Re-judges each structurally X-tainted primary output against
    /// the dual-rail model: proved-never-X findings are dropped.
    fn x_reach(&self, model: &LintModel<'_>, oracle: &mut Oracle<'_>, ctx: &mut PassCtx<'_>) {
        let x = x_reachable(model);
        for port in model.flat().ports() {
            if port.dir == PortDir::Input {
                continue;
            }
            for (bit, &net) in port.nets.iter().enumerate() {
                if !x[net.index()] {
                    continue;
                }
                let tier = match oracle.prove_never_x(net) {
                    // Structural taint was pessimistic: the output can
                    // never actually carry X. Drop the finding.
                    Ok(Verdict::Proved) => continue,
                    Ok(Verdict::Refuted(_)) => ProofTier::RefutedWithWitness,
                    // `conflicts == 0` means the dual-rail model never
                    // built, not that a budget ran out.
                    Ok(Verdict::Unknown { conflicts: 0 }) => ProofTier::Structural,
                    Ok(Verdict::Unknown { .. }) => ProofTier::BudgetExhausted,
                    Err(_) => ProofTier::Structural,
                };
                ctx.emit_proof(
                    "x-reachable",
                    Severity::Warning,
                    format!("{}[{bit}]", port.name),
                    format!(
                        "primary output can carry X (via net {})",
                        model.net_name(net)
                    ),
                    tier,
                );
            }
        }
    }

    /// Bounded reachability across the register cut: report bits that
    /// never leave their power-on value. Only *complete* enumerations
    /// may produce findings.
    fn unreachable_state(&self, oracle: &mut Oracle<'_>, ctx: &mut PassCtx<'_>) {
        let Ok(Some(reach)) = oracle.reachable_states() else {
            return;
        };
        if !reach.complete {
            return;
        }
        let n = reach.states.len();
        for (path, bit, v) in reach.stuck_bits() {
            ctx.emit_proof(
                "unreachable-state",
                Severity::Warning,
                path,
                format!(
                    "state bit [{bit}] is stuck at {} across all {n} reachable state(s)",
                    u8::from(v)
                ),
                ProofTier::Proved,
            );
        }
    }

    /// Redundancy: signature-bucketed SAT equivalence between comb
    /// outputs, plus full-ODC nets replaceable by a constant.
    fn redundant_logic(
        &self,
        model: &LintModel<'_>,
        oracle: &mut Oracle<'_>,
        live: &[bool],
        claimed: &[bool],
        ctx: &mut PassCtx<'_>,
    ) {
        let konst = model.const_values();
        let sigs = oracle.net_signatures().to_vec();
        // Dedicated carry-fabric primitives (MUXCY/XORCY/MULT_AND) are
        // never redundancy candidates: they cost no LUT, so proving
        // one equivalent to an existing net recovers nothing.
        let eligible = |node: &ipd_techlib::CombNode| {
            node.kind.is_some_and(|k| {
                !is_buffer(k) && !matches!(k, PrimKind::Muxcy | PrimKind::Xorcy | PrimKind::MultAnd)
            }) && model.fanout(node.output) > 0
                && !claimed[node.output.index()]
                && konst[node.output.index()].is_none()
        };
        // Nets read by something other than a carry primitive. A LUT
        // whose only consumers are MUXCY/XORCY pins is the
        // architecturally required in-slice function generator for
        // that chain position — equivalence to another net is true
        // but unactionable, so such nodes are exempt.
        let mut non_carry_read = vec![false; model.flat().net_count()];
        for node in model.comb_nodes() {
            if matches!(node.kind, Some(PrimKind::Muxcy | PrimKind::Xorcy)) {
                continue;
            }
            for &inp in node.inputs.iter() {
                non_carry_read[inp.index()] = true;
            }
        }
        for seq in model.seq() {
            for &inp in &seq.data_inputs {
                non_carry_read[inp.index()] = true;
            }
        }

        // Phase-normalized signature buckets, filled in topo order so
        // the earliest producer of a function is the keeper.
        let mut buckets: BTreeMap<[u64; 8], Vec<(NetId, bool)>> = BTreeMap::new();
        for &ni in model.topo_order() {
            let node = &model.comb_nodes()[ni];
            if !eligible(node) {
                continue;
            }
            if !non_carry_read[node.output.index()] && !model.is_primary_read(node.output) {
                continue; // feeds only carry-chain pins: required in-slice
            }
            let Some(sig) = sigs.get(node.output.index()).copied().flatten() else {
                continue;
            };
            if sig.iter().all(|&w| w == 0) || sig.iter().all(|&w| w == u64::MAX) {
                continue; // constant candidates, handled above
            }
            let phase = sig[0] & 1 == 1;
            let mut norm = sig;
            if phase {
                for w in &mut norm {
                    *w = !*w;
                }
            }
            buckets.entry(norm).or_default().push((node.output, phase));
        }

        let mut redundant = vec![false; model.flat().net_count()];
        let mut budget = self.equal_cap;
        for group in buckets.values() {
            let Some(&(keeper, keeper_phase)) = group.first() else {
                continue;
            };
            for &(net, phase) in &group[1..] {
                let complement = phase != keeper_phase;
                // An inverter that complements an existing net is the
                // idiomatic way to complement, not a redundancy.
                if complement
                    && model
                        .producer(net)
                        .is_some_and(|n| n.kind == Some(PrimKind::Inv))
                {
                    continue;
                }
                if budget == 0 {
                    return;
                }
                budget -= 1;
                if let Ok(Verdict::Proved) = oracle.prove_equal(net, keeper, complement) {
                    redundant[net.index()] = true;
                    let leaf = model
                        .producer(net)
                        .expect("bucketed nets are comb outputs")
                        .leaf;
                    ctx.emit_proof(
                        "redundant-logic",
                        Severity::Warning,
                        model.leaf_path(leaf),
                        format!(
                            "output net {} is SAT-equivalent to net {}{}",
                            model.net_name(net),
                            model.net_name(keeper),
                            if complement { " (complemented)" } else { "" }
                        ),
                        ProofTier::Proved,
                    );
                }
            }
        }

        // Full-ODC nets: every input minterm of the driving node is an
        // observability don't-care — equivalently, flipping the net
        // changes no output or next-state function — so the gate can
        // be replaced by a constant. One unobservability proof answers
        // the whole minterm enumeration at once (`Oracle::odc` stays
        // the cube-level view for the don't-care export). Dead leaves
        // are excluded (dead-logic owns them).
        let mut odc_budget = self.odc_cap;
        for &ni in model.topo_order() {
            let node = &model.comb_nodes()[ni];
            if !eligible(node)
                || redundant[node.output.index()]
                || !live[node.leaf]
                || model.is_primary_read(node.output)
                || node.inputs.is_empty()
            {
                continue;
            }
            if odc_budget == 0 {
                return;
            }
            odc_budget -= 1;
            if matches!(oracle.prove_unobservable(node.output), Ok(v) if v.is_proved()) {
                ctx.emit_proof(
                    "redundant-logic",
                    Severity::Warning,
                    model.leaf_path(node.leaf),
                    format!(
                        "output net {} is replaceable by a constant under observability don't-cares",
                        model.net_name(node.output)
                    ),
                    ProofTier::Proved,
                );
            }
        }
    }
}
