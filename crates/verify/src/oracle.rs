//! The semantic query oracle: incremental SAT over one lowered design.
//!
//! Where [`check_equiv`](crate::check_equiv) answers a single question
//! (are two designs equal over the register cut?), the [`Oracle`]
//! answers many small ones about *one* design: is this net provably
//! constant, is this output independent of that input, can this net
//! ever carry `X`, which input minterms are satisfiability or
//! observability don't-cares. Every verdict is three-valued —
//! [`Verdict::Proved`], [`Verdict::Refuted`] with a concrete witness,
//! or [`Verdict::Unknown`] when the conflict budget runs out — so a
//! query can *never* hang and can never silently convert "ran out of
//! budget" into a claim.
//!
//! Two lowered models back the queries. The **two-valued** model is
//! the same AIG lowering the equivalence checker uses (so proofs and
//! the simulators cannot disagree about structure); it exists only
//! when the design is loop-free with no black boxes and no read
//! undriven nets. The **dual-rail** model runs the compiled engine's
//! own four-state kernels ([`ipd_sim::rails`]) with the AIG as their
//! carrier: each net becomes a `(value, unknown)` literal pair built by
//! the code that evaluates the engine's bit-planes, so `prove_never_x`
//! reasons about `X` propagation with the same pessimism the engines
//! execute, including the may-go-X register fixpoint across clock
//! edges, which reads the unknown rail of the same clock-edge kernels.
//!
//! Every [`Verdict::Refuted`] carries a [`Witness`] that has already
//! been replayed through the scalar [`Simulator`] *and* the bytecode
//! [`CompiledSimulator`] (when replay is enabled): inputs set,
//! registers forced through the state back doors, the net peeked. A
//! witness that does not reproduce is a loud
//! [`VerifyError::OracleDisagreement`], never a returned verdict.
//!
//! [`Simulator`]: ipd_sim::Simulator
//! [`CompiledSimulator`]: ipd_sim::CompiledSimulator

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ipd_hdl::{FlatNetlist, Logic, LogicVec, NetId, PortDir};
use ipd_sim::graph::{CombKind, NetlistGraph, SeqKind};
use ipd_sim::rails::{Rail, RailOps};
use ipd_techlib::{FlatIndex, PrimKind};

use crate::aig::{word_of, Aig, Lit, Node, SigWord, XorShift, FALSE, SIG_WORDS, TRUE};
use crate::error::VerifyError;
use crate::lower::{lower_design, lower_flipped, OutId, OutputFn};
use crate::replay;
use crate::sat::{Enc, SatLit, SatResult};

/// Signature words per net: two 256-pattern rounds.
pub const ORACLE_SIG_WORDS: usize = 2 * SIG_WORDS;

/// Tuning knobs for one oracle instance.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Explicit clock port; `None` auto-detects (`clk`, `c`, `clock`).
    pub clock: Option<String>,
    /// Conflict budget per SAT query (0 = unlimited). An exhausted
    /// budget yields [`Verdict::Unknown`], never a wrong answer.
    pub conflict_budget: u64,
    /// PRNG seed for signature simulation.
    pub seed: u64,
    /// Replay every witness through both simulation engines before it
    /// is returned (the differential honesty oracle).
    pub replay: bool,
    /// Reachability: give up beyond this many distinct states.
    pub max_states: usize,
    /// Reachability: give up beyond this many enumerated transitions.
    pub max_transitions: usize,
    /// Reachability: skip designs with more state bits than this.
    pub max_state_bits: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            clock: None,
            conflict_budget: 20_000,
            seed: 0x7e3d_91ab_44c6_5f02,
            replay: true,
            max_states: 512,
            max_transitions: 4_096,
            max_state_bits: 24,
        }
    }
}

/// Counters describing how the oracle discharged its queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Queries answered (any verdict).
    pub queries: u64,
    /// Queries answered `Proved`.
    pub proved: u64,
    /// Queries answered `Refuted`.
    pub refuted: u64,
    /// Queries answered `Unknown`.
    pub unknown: u64,
    /// Witnesses replayed through both engines.
    pub replays: u64,
}

/// How a refuting witness is checked against the simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessCheck {
    /// Under the witness assignment, the net reads `value`. An
    /// expected `X` accepts any undriven observation.
    NetEquals {
        /// Expected value.
        value: Logic,
    },
    /// Toggling input `port[bit]` toggles the net: `low` with the bit
    /// at 0, `high` with the bit at 1 (`low != high`).
    NetToggles {
        /// Input port name.
        port: String,
        /// Bit index, LSB first.
        bit: usize,
        /// Net value with the bit driven 0.
        low: Logic,
        /// Net value with the bit driven 1.
        high: Logic,
    },
    /// Under the witness assignment, the net reads `value` while
    /// `other` reads `other_value` — refuting (or, complemented,
    /// confirming) a claimed equivalence.
    NetsDiffer {
        /// The other net.
        other: String,
        /// This net's value.
        value: Logic,
        /// The other net's value.
        other_value: Logic,
    },
}

/// A concrete, simulator-checkable refutation: a full input and state
/// assignment plus the observation that contradicts the claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The net the claim was about.
    pub net: String,
    /// Every non-clock input port's assigned value.
    pub inputs: Vec<(String, LogicVec)>,
    /// Every state element's forced value (width 1 for FFs, 16 for
    /// memories); `X` bits force an unknown through the back door.
    pub state: Vec<(String, LogicVec)>,
    /// The observation refuting the claim.
    pub check: WitnessCheck,
}

/// A three-valued query verdict. `Unknown` is always sound: it means
/// the conflict budget ran out, never that the claim is false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The claim holds for every input and cut-state assignment.
    Proved,
    /// The claim is false; the witness has been replay-confirmed
    /// against both simulation engines (when replay is enabled).
    Refuted(Box<Witness>),
    /// The conflict budget was exhausted before a proof either way.
    Unknown {
        /// The per-query budget that ran out.
        conflicts: u64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Proved`].
    #[must_use]
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }
}

/// A don't-care cube list over one combinational node's input space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeList {
    /// The node's input net names, LSB of the minterm index first.
    pub inputs: Vec<String>,
    /// Don't-care minterms (bit `i` of the minterm = value of
    /// `inputs[i]`).
    pub minterms: Vec<u16>,
    /// `false` when some minterms were skipped on budget exhaustion
    /// (the listed minterms are still proved don't-cares).
    pub complete: bool,
}

/// The proved reachable-state set of a design's register cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachSet {
    /// State bit order: `(element path, bit)`.
    pub bits: Vec<(String, usize)>,
    /// The power-on state.
    pub init: Vec<bool>,
    /// Every reachable state (including `init`), in discovery order.
    pub states: Vec<Vec<bool>>,
    /// `true` when the enumeration closed; findings may only be
    /// derived from complete sets.
    pub complete: bool,
}

impl ReachSet {
    /// State bits stuck at their power-on value across every
    /// reachable state: `(path, bit, stuck value)`.
    #[must_use]
    pub fn stuck_bits(&self) -> Vec<(String, usize, bool)> {
        if !self.complete {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, (path, bit)) in self.bits.iter().enumerate() {
            let v = self.init[i];
            if self.states.iter().all(|s| s[i] == v) {
                out.push((path.clone(), *bit, v));
            }
        }
        out
    }
}

/// What one two-valued AIG input feeds.
#[derive(Debug, Clone, Copy)]
enum CutRef {
    /// Bit `bit` of `graph.ports[port]`.
    Port { port: usize, bit: usize },
    /// Bit `bit` of `graph.seq[seq]`.
    State { seq: usize, bit: usize },
}

/// The two-valued model: the equivalence checker's lowering plus a
/// lazy Tseitin encoding.
struct TwoValued {
    aig: Aig,
    net_lit: Vec<Option<Lit>>,
    outputs: Vec<OutputFn>,
    inputs: Vec<Lit>,
    cut: Vec<CutRef>,
    port_lit: HashMap<(String, usize), Lit>,
    state_lit: HashMap<(String, usize), Lit>,
    enc: Enc,
    /// Cached flipped-boundary lowering per net.
    flipped: HashMap<u32, Vec<Lit>>,
    /// Cached per-net random-simulation signatures.
    sigs: Option<Vec<Option<[u64; ORACLE_SIG_WORDS]>>>,
    /// Random input words backing the lazy per-node simulation cache.
    sim_in: Vec<SigWord>,
    /// Per-node 256-pattern values over `sim_in`, extended on demand
    /// (the AIG is append-only and topologically ordered, so each new
    /// node is evaluated exactly once).
    sim_vals: Vec<SigWord>,
}

impl TwoValued {
    /// The literal's 256-pattern random-simulation word. Used to
    /// prefilter observability miters: a pattern that sets the miter
    /// already witnesses observability, so the SAT query — and the
    /// Tseitin encoding of the flipped cone — can be skipped.
    fn sim_word(&mut self, lit: Lit) -> SigWord {
        for i in self.sim_vals.len()..self.aig.len() {
            let w = match self.aig.node(Lit::new(i, false)) {
                Node::Const => [0u64; SIG_WORDS],
                Node::Input(k) => self.sim_in[k as usize],
                Node::And(a, b) => {
                    let wa = word_of(&self.sim_vals, a);
                    let wb = word_of(&self.sim_vals, b);
                    std::array::from_fn(|j| wa[j] & wb[j])
                }
            };
            self.sim_vals.push(w);
        }
        word_of(&self.sim_vals, lit)
    }
}

/// What one dual-rail AIG input feeds.
#[derive(Debug, Clone, Copy)]
enum XCutRef {
    /// Value of bit `bit` of input port `graph.ports[port]`.
    PortVal { port: usize, bit: usize },
    /// Value rail of state bit `bit` of `graph.seq[seq]`.
    StateVal { seq: usize, bit: usize },
    /// Unknown rail of state bit `bit` of `graph.seq[seq]`.
    StateUnk { seq: usize, bit: usize },
}

/// The dual-rail four-state model for `prove_never_x`.
struct DualRail {
    aig: Aig,
    rail: Vec<Option<Rail<Lit>>>,
    inputs: Vec<Lit>,
    cut: Vec<XCutRef>,
    /// Per `(seq, bit)`: the unknown-rail input literal.
    state_unk: HashMap<(usize, usize), Lit>,
    /// Per `(seq, bit)`: may this state bit ever go unknown? The
    /// fixpoint result; bits outside the set are pinned known.
    may_x: HashSet<(usize, usize)>,
    enc: Enc,
}

/// The semantic query oracle over one flattened design.
pub struct Oracle<'a> {
    flat: &'a FlatNetlist,
    /// Shared with witness replay, so both engines run the oracle's
    /// compiled design.
    graph: Arc<NetlistGraph>,
    opts: OracleOptions,
    two: Option<TwoValued>,
    xrail: Option<Option<Box<DualRail>>>,
    stats: OracleStats,
}

impl<'a> Oracle<'a> {
    /// Builds the oracle. The two-valued model is constructed eagerly
    /// (absent when the design has loops, black boxes or read
    /// undriven nets — affected queries then answer `Unknown`); the
    /// dual-rail model is built lazily on the first `prove_never_x`.
    ///
    /// # Errors
    ///
    /// Only structural failures the simulators themselves would
    /// refuse (multiple drivers, unknown primitives, gated clocks);
    /// everything else degrades to `Unknown` verdicts instead.
    pub fn new(index: &FlatIndex<'a>, opts: OracleOptions) -> Result<Self, VerifyError> {
        let graph = Arc::new(NetlistGraph::build(index, opts.clock.as_deref())?);
        let flat = index.flat();
        let two = build_two_valued(&graph, flat.design_name(), opts.seed);
        Ok(Oracle {
            flat,
            graph,
            opts,
            two,
            xrail: None,
            stats: OracleStats::default(),
        })
    }

    /// The levelized structural view backing the oracle.
    #[must_use]
    pub fn graph(&self) -> &NetlistGraph {
        &self.graph
    }

    /// Query counters so far.
    #[must_use]
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// `true` when the two-valued model exists (loop-free, no black
    /// boxes, no read undriven nets).
    #[must_use]
    pub fn has_model(&self) -> bool {
        self.two.is_some()
    }

    /// Per-net random-simulation signatures over the two-valued model
    /// (512 patterns). Empty when the model is absent. Candidates with
    /// all-zero/all-one signatures are worth a `prove_constant`;
    /// equal signatures are worth a `prove_equal`.
    pub fn net_signatures(&mut self) -> &[Option<[u64; ORACLE_SIG_WORDS]>] {
        let seed = self.opts.seed;
        let Some(two) = self.two.as_mut() else {
            return &[];
        };
        if two.sigs.is_none() {
            let mut rng = XorShift(seed | 1);
            let words: Vec<SigWord> = (0..two.aig.num_inputs())
                .map(|_| std::array::from_fn(|_| rng.next()))
                .collect();
            let sig_a = two.aig.simulate(&words);
            let words: Vec<SigWord> = (0..two.aig.num_inputs())
                .map(|_| std::array::from_fn(|_| rng.next()))
                .collect();
            let sig_b = two.aig.simulate(&words);
            let per_net = two
                .net_lit
                .iter()
                .map(|lit| {
                    lit.map(|l| {
                        let a = word_of(&sig_a, l);
                        let b = word_of(&sig_b, l);
                        std::array::from_fn(|i| {
                            if i < SIG_WORDS {
                                a[i]
                            } else {
                                b[i - SIG_WORDS]
                            }
                        })
                    })
                })
                .collect();
            two.sigs = Some(per_net);
        }
        two.sigs.as_ref().expect("just built")
    }

    /// The net's two-valued literal collapsed to a constant by
    /// lowering alone (structural proof, no SAT).
    #[must_use]
    pub fn structurally_const(&self, net: NetId) -> Option<bool> {
        let lit = self.two.as_ref()?.net_lit[net.index()]?;
        if lit == TRUE {
            Some(true)
        } else if lit == FALSE {
            Some(false)
        } else {
            None
        }
    }

    /// Proves `net == value` over all inputs and cut states.
    ///
    /// # Errors
    ///
    /// Witness replay failures only.
    pub fn prove_constant(&mut self, net: NetId, value: bool) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        let budget = self.opts.conflict_budget;
        let Some(two) = self.two.as_mut() else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let Some(lit) = two.net_lit[net.index()] else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        // SAT(net != value): assume the literal at the opposite phase.
        two.enc.encode(&two.aig, lit);
        let assum = if value {
            !two.enc.lit_of(lit)
        } else {
            two.enc.lit_of(lit)
        };
        let verdict = match two.enc.solver.solve(&[assum], budget) {
            SatResult::Unsat => Verdict::Proved,
            SatResult::Unknown => Verdict::Unknown { conflicts: budget },
            SatResult::Sat => {
                let w = witness_from_model(
                    two,
                    &self.graph,
                    self.graph.net_names[net.index()].clone(),
                    WitnessCheck::NetEquals {
                        value: Logic::from_bool(!value),
                    },
                );
                two.enc.solver.retract();
                self.confirm(&w)?;
                Verdict::Refuted(Box::new(w))
            }
        };
        Ok(self.tally(verdict))
    }

    /// Proves `net` functionally independent of input `port[bit]`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::PortMismatch`] for an unknown input bit;
    /// witness replay failures.
    pub fn prove_independent(
        &mut self,
        net: NetId,
        port: &str,
        bit: usize,
    ) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        let budget = self.opts.conflict_budget;
        let Some(two) = self.two.as_mut() else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let Some(lit) = two.net_lit[net.index()] else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let input = two
            .cut
            .iter()
            .zip(&two.inputs)
            .find_map(|(c, &l)| match c {
                CutRef::Port { port: pi, bit: b } if *b == bit => {
                    (self.graph.ports[*pi].name == port).then_some(l)
                }
                _ => None,
            })
            .ok_or_else(|| VerifyError::PortMismatch {
                detail: format!("oracle has no input {port}[{bit}]"),
            })?;
        let f0 = substitute(&mut two.aig, lit, input.node(), FALSE);
        let f1 = substitute(&mut two.aig, lit, input.node(), TRUE);
        if f0 == f1 {
            return Ok(self.tally(Verdict::Proved));
        }
        let miter = two.aig.xor(f0, f1);
        two.enc.encode(&two.aig, miter);
        let assum = two.enc.lit_of(miter);
        let verdict = match two.enc.solver.solve(&[assum], budget) {
            SatResult::Unsat => Verdict::Proved,
            SatResult::Unknown => Verdict::Unknown { conflicts: budget },
            SatResult::Sat => {
                let low = two.enc.model_lit(f0);
                let high = two.enc.model_lit(f1);
                let mut w = witness_from_model(
                    two,
                    &self.graph,
                    self.graph.net_names[net.index()].clone(),
                    WitnessCheck::NetToggles {
                        port: port.to_owned(),
                        bit,
                        low: Logic::from_bool(low),
                        high: Logic::from_bool(high),
                    },
                );
                two.enc.solver.retract();
                // The toggled bit itself is swept by the check.
                if let Some((_, v)) = w.inputs.iter_mut().find(|(p, _)| p == port) {
                    v.set_bit(bit, Logic::Zero);
                }
                self.confirm(&w)?;
                Verdict::Refuted(Box::new(w))
            }
        };
        Ok(self.tally(verdict))
    }

    /// Proves `a == b` (or `a == !b` with `complement`) over all
    /// inputs and cut states.
    ///
    /// # Errors
    ///
    /// Witness replay failures only.
    pub fn prove_equal(
        &mut self,
        a: NetId,
        b: NetId,
        complement: bool,
    ) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        let budget = self.opts.conflict_budget;
        let Some(two) = self.two.as_mut() else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let (Some(la), Some(lb)) = (two.net_lit[a.index()], two.net_lit[b.index()]) else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let lb = if complement { !lb } else { lb };
        if la == lb {
            return Ok(self.tally(Verdict::Proved));
        }
        let miter = two.aig.xor(la, lb);
        two.enc.encode(&two.aig, miter);
        let assum = two.enc.lit_of(miter);
        let verdict = match two.enc.solver.solve(&[assum], budget) {
            SatResult::Unsat => Verdict::Proved,
            SatResult::Unknown => Verdict::Unknown { conflicts: budget },
            SatResult::Sat => {
                let va = two.enc.model_lit(la);
                let raw_b = two.net_lit[b.index()].expect("checked above");
                let vb = two.enc.model_lit(raw_b);
                let w = witness_from_model(
                    two,
                    &self.graph,
                    self.graph.net_names[a.index()].clone(),
                    WitnessCheck::NetsDiffer {
                        other: self.graph.net_names[b.index()].clone(),
                        value: Logic::from_bool(va),
                        other_value: Logic::from_bool(vb),
                    },
                );
                two.enc.solver.retract();
                self.confirm(&w)?;
                Verdict::Refuted(Box::new(w))
            }
        };
        Ok(self.tally(verdict))
    }

    /// Proves that complementing `net` at its driver changes no
    /// primary output and no next-state function — the net is
    /// unobservable, i.e. replaceable by either constant. Returns
    /// `Proved` or `Unknown` only: an observable flip has no
    /// forcible simulator witness, so it is reported as `Unknown`
    /// rather than a `Refuted` nobody can replay.
    ///
    /// # Errors
    ///
    /// Lowering failures for the flipped copy (none in practice: the
    /// original lowering already succeeded).
    pub fn prove_unobservable(&mut self, net: NetId) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        let budget = self.opts.conflict_budget;
        let Some(miter) = self.observe_miter(net)? else {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        };
        let two = self.two.as_mut().expect("observe_miter checked");
        if miter == FALSE {
            return Ok(self.tally(Verdict::Proved));
        }
        // Random-pattern prefilter: any pattern that raises the miter
        // is a concrete observation of the flip — no proof is
        // possible, so skip the solver (and its cone encoding).
        if two.sim_word(miter).iter().any(|&w| w != 0) {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        }
        two.enc.encode(&two.aig, miter);
        let assum = two.enc.lit_of(miter);
        let verdict = match two.enc.solver.solve(&[assum], budget) {
            SatResult::Unsat => Verdict::Proved,
            SatResult::Unknown => Verdict::Unknown { conflicts: budget },
            SatResult::Sat => {
                two.enc.solver.retract();
                Verdict::Unknown { conflicts: 0 }
            }
        };
        Ok(self.tally(verdict))
    }

    /// The any-output-differs miter for flipping `net`, or `None`
    /// when the two-valued model is absent.
    fn observe_miter(&mut self, net: NetId) -> Result<Option<Lit>, VerifyError> {
        if self.two.is_none() {
            return Ok(None);
        }
        let design = self.flat.design_name().to_owned();
        let two = self.two.as_mut().expect("checked");
        let key = net.index() as u32;
        if !two.flipped.contains_key(&key) {
            let outs = lower_flipped(
                &mut two.aig,
                &self.graph,
                &design,
                &two.port_lit,
                &two.state_lit,
                net,
            )?;
            two.flipped
                .insert(key, outs.into_iter().map(|o| o.lit).collect());
        }
        let flipped = two.flipped.get(&key).expect("just inserted").clone();
        let mut miter = FALSE;
        for (orig, flip) in two
            .outputs
            .iter()
            .map(|o| o.lit)
            .zip(flipped)
            .collect::<Vec<_>>()
        {
            if orig == flip {
                continue;
            }
            let x = two.aig.xor(orig, flip);
            miter = two.aig.or(miter, x);
        }
        Ok(Some(miter))
    }

    /// Proves `net` can never carry an unknown value under driven
    /// primary inputs and the reachable may-X state envelope, using
    /// the dual-rail encoding of the simulators' four-state kernels.
    ///
    /// # Errors
    ///
    /// Witness replay failures only.
    pub fn prove_never_x(&mut self, net: NetId) -> Result<Verdict, VerifyError> {
        self.stats.queries += 1;
        let budget = self.opts.conflict_budget;
        if self.ensure_xrail().is_none() {
            return Ok(self.tally(Verdict::Unknown { conflicts: 0 }));
        }
        let net_name = self.graph.net_names[net.index()].clone();
        let xr = self
            .xrail
            .as_mut()
            .and_then(|x| x.as_mut())
            .expect("ensured");
        let rail = xr.rail[net.index()].unwrap_or(unknown());
        if rail.u == FALSE {
            return Ok(self.tally(Verdict::Proved));
        }
        let mut assumptions = xrail_assumptions(xr);
        if rail.u == TRUE {
            // Unconditionally unknown (undriven, black box, or a cone
            // of such): any all-known assignment witnesses it.
            let w = zero_witness(
                &self.graph,
                net_name,
                WitnessCheck::NetEquals { value: Logic::X },
            );
            self.confirm(&w)?;
            return Ok(self.tally(Verdict::Refuted(Box::new(w))));
        }
        xr.enc.encode(&xr.aig, rail.u);
        assumptions.push(xr.enc.lit_of(rail.u));
        let verdict = match xr.enc.solver.solve(&assumptions, budget) {
            SatResult::Unsat => Verdict::Proved,
            SatResult::Unknown => Verdict::Unknown { conflicts: budget },
            SatResult::Sat => {
                let w = x_witness_from_model(xr, &self.graph, net_name);
                xr.enc.solver.retract();
                self.confirm(&w)?;
                Verdict::Refuted(Box::new(w))
            }
        };
        Ok(self.tally(verdict))
    }

    /// Satisfiability don't-cares of the node driving `net`: input
    /// minterms the surrounding logic can never produce. `None` when
    /// the net is not driven by a combinational node or the
    /// two-valued model is absent.
    ///
    /// # Errors
    ///
    /// None in practice (no replay involved).
    pub fn sdc(&mut self, net: NetId) -> Result<Option<CubeList>, VerifyError> {
        let Some((names, lits)) = self.node_inputs(net) else {
            return Ok(None);
        };
        let budget = self.opts.conflict_budget;
        let two = self.two.as_mut().expect("node_inputs checked");
        let mut minterms = Vec::new();
        let mut complete = true;
        for m in 0..(1u16 << lits.len()) {
            let assum = minterm_assumptions(two, &lits, m);
            match two.enc.solver.solve(&assum, budget) {
                SatResult::Unsat => minterms.push(m),
                SatResult::Unknown => complete = false,
                SatResult::Sat => two.enc.solver.retract(),
            }
        }
        Ok(Some(CubeList {
            inputs: names,
            minterms,
            complete,
        }))
    }

    /// Observability don't-cares of the node driving `net`: input
    /// minterms under which complementing the net changes no output
    /// or next-state function. `None` as for [`Oracle::sdc`].
    ///
    /// # Errors
    ///
    /// Lowering failures for the flipped copy.
    pub fn odc(&mut self, net: NetId) -> Result<Option<CubeList>, VerifyError> {
        let Some((names, lits)) = self.node_inputs(net) else {
            return Ok(None);
        };
        let Some(miter) = self.observe_miter(net)? else {
            return Ok(None);
        };
        let budget = self.opts.conflict_budget;
        let two = self.two.as_mut().expect("node_inputs checked");
        let mut minterms = Vec::new();
        let mut complete = true;
        if miter != FALSE {
            two.enc.encode(&two.aig, miter);
        }
        for m in 0..(1u16 << lits.len()) {
            if miter == FALSE {
                minterms.push(m);
                continue;
            }
            let mut assum = minterm_assumptions(two, &lits, m);
            assum.push(two.enc.lit_of(miter));
            match two.enc.solver.solve(&assum, budget) {
                SatResult::Unsat => minterms.push(m),
                SatResult::Unknown => complete = false,
                SatResult::Sat => two.enc.solver.retract(),
            }
        }
        Ok(Some(CubeList {
            inputs: names,
            minterms,
            complete,
        }))
    }

    /// The producer node's input names and literals, encoded.
    fn node_inputs(&mut self, net: NetId) -> Option<(Vec<String>, Vec<Lit>)> {
        let two = self.two.as_ref()?;
        let node = self.graph.eval_order.iter().find(|n| n.output == net)?;
        if node.inputs.len() > 6 {
            return None;
        }
        let mut names = Vec::new();
        let mut lits = Vec::new();
        for &n in &node.inputs {
            names.push(self.graph.net_names[n.index()].clone());
            lits.push(two.net_lit[n.index()]?);
        }
        let two = self.two.as_mut()?;
        for &l in &lits {
            two.enc.encode(&two.aig, l);
        }
        Some((names, lits))
    }

    /// Enumerates the reachable register-cut states by SAT-driven
    /// breadth-first image computation. `None` when the two-valued
    /// model is absent, a power-on value is unknown, or the state is
    /// wider than [`OracleOptions::max_state_bits`].
    ///
    /// # Errors
    ///
    /// None in practice (no replay involved).
    pub fn reachable_states(&mut self) -> Result<Option<ReachSet>, VerifyError> {
        let Some(two) = self.two.as_ref() else {
            return Ok(None);
        };
        // State bit order and power-on values.
        let mut bits: Vec<(String, usize)> = Vec::new();
        let mut init: Vec<bool> = Vec::new();
        for (elem, path) in self.graph.seq.iter().zip(&self.graph.state_paths) {
            match elem {
                SeqKind::Ff { init: i, .. } => {
                    let Some(b) = i.to_bool() else {
                        return Ok(None);
                    };
                    bits.push((path.clone(), 0));
                    init.push(b);
                }
                SeqKind::Srl16 { init: i, .. } | SeqKind::Ram16 { init: i, .. } => {
                    for bit in 0..16 {
                        bits.push((path.clone(), bit));
                        init.push((i >> bit) & 1 == 1);
                    }
                }
            }
        }
        if bits.len() > self.opts.max_state_bits {
            return Ok(None);
        }
        if bits.is_empty() {
            return Ok(Some(ReachSet {
                bits,
                init: init.clone(),
                states: vec![init],
                complete: true,
            }));
        }
        // Current-state input literals in the same order.
        let state_in: Vec<Lit> = two
            .cut
            .iter()
            .zip(&two.inputs)
            .filter_map(|(c, &l)| matches!(c, CutRef::State { .. }).then_some(l))
            .collect();
        // Next-state function literals in the same order.
        let next_of: HashMap<(&str, usize), Lit> = two
            .outputs
            .iter()
            .filter_map(|o| match &o.id {
                OutId::NextState { path, bit } => Some(((path.as_str(), *bit), o.lit)),
                OutId::Port { .. } => None,
            })
            .collect();
        let next: Vec<Lit> = bits
            .iter()
            .map(|(path, bit)| next_of[&(path.as_str(), *bit)])
            .collect();
        debug_assert_eq!(state_in.len(), bits.len());

        // A private encoding: blocking clauses are not tautologies, so
        // they must never leak into the shared assumption-only solver.
        let mut enc = Enc::new();
        let two = self.two.as_ref().expect("checked");
        for &l in state_in.iter().chain(&next) {
            enc.encode(&two.aig, l);
        }
        let budget = self.opts.conflict_budget;
        let mut complete = true;
        let mut seen: HashSet<Vec<bool>> = HashSet::new();
        let mut states: Vec<Vec<bool>> = Vec::new();
        let mut queue: VecDeque<Vec<bool>> = VecDeque::new();
        seen.insert(init.clone());
        states.push(init.clone());
        queue.push_back(init.clone());
        let mut transitions = 0usize;
        'bfs: while let Some(s) = queue.pop_front() {
            let assum: Vec<SatLit> = state_in
                .iter()
                .zip(&s)
                .map(|(&l, &v)| {
                    let sl = enc.lit_of(l);
                    if v {
                        sl
                    } else {
                        !sl
                    }
                })
                .collect();
            loop {
                if transitions >= self.opts.max_transitions {
                    complete = false;
                    break 'bfs;
                }
                match enc.solver.solve(&assum, budget) {
                    SatResult::Unsat => break,
                    SatResult::Unknown => {
                        complete = false;
                        break 'bfs;
                    }
                    SatResult::Sat => {
                        let t: Vec<bool> = next.iter().map(|&l| enc.model_lit(l)).collect();
                        enc.solver.retract();
                        transitions += 1;
                        // Block exactly this (state, next) pair.
                        let mut clause: Vec<SatLit> = Vec::with_capacity(2 * bits.len());
                        for (&l, &v) in state_in.iter().zip(&s) {
                            let sl = enc.lit_of(l);
                            clause.push(if v { !sl } else { sl });
                        }
                        for (&l, &v) in next.iter().zip(&t) {
                            let sl = enc.lit_of(l);
                            clause.push(if v { !sl } else { sl });
                        }
                        if !enc.solver.add_clause(&clause) {
                            break;
                        }
                        if seen.insert(t.clone()) {
                            if seen.len() > self.opts.max_states {
                                complete = false;
                                break 'bfs;
                            }
                            states.push(t.clone());
                            queue.push_back(t);
                        }
                    }
                }
            }
        }
        Ok(Some(ReachSet {
            bits,
            init,
            states,
            complete,
        }))
    }

    /// Builds the dual-rail model on first use; `None` when the
    /// design is not levelized (a ring never proves never-X anyway).
    fn ensure_xrail(&mut self) -> Option<()> {
        if self.xrail.is_none() {
            let built = build_dual_rail(&self.graph, self.opts.conflict_budget);
            self.xrail = Some(built.map(Box::new));
        }
        self.xrail.as_ref().and_then(|x| x.as_ref()).map(|_| ())
    }

    fn confirm(&mut self, w: &Witness) -> Result<(), VerifyError> {
        if !self.opts.replay {
            return Ok(());
        }
        self.stats.replays += 1;
        replay::confirm_witness(&self.graph, w)
    }

    fn tally(&mut self, v: Verdict) -> Verdict {
        match &v {
            Verdict::Proved => self.stats.proved += 1,
            Verdict::Refuted(_) => self.stats.refuted += 1,
            Verdict::Unknown { .. } => self.stats.unknown += 1,
        }
        v
    }
}

/// Builds the equivalence checker's lowering over a fresh cut.
fn build_two_valued(graph: &NetlistGraph, design: &str, seed: u64) -> Option<TwoValued> {
    let mut aig = Aig::new();
    let mut inputs = Vec::new();
    let mut cut = Vec::new();
    let mut port_lit: HashMap<(String, usize), Lit> = HashMap::new();
    for (pi, port) in graph.ports.iter().enumerate() {
        if port.dir != PortDir::Input || port.nets.iter().all(|&n| graph.is_clock_net(n)) {
            continue;
        }
        for bit in 0..port.nets.len() {
            let lit = aig.input();
            port_lit.insert((port.name.clone(), bit), lit);
            inputs.push(lit);
            cut.push(CutRef::Port { port: pi, bit });
        }
    }
    let mut state_lit: HashMap<(String, usize), Lit> = HashMap::new();
    for (si, elem) in graph.seq.iter().enumerate() {
        for bit in 0..elem.state_bits() {
            let lit = aig.input();
            state_lit.insert((graph.state_paths[si].clone(), bit), lit);
            inputs.push(lit);
            cut.push(CutRef::State { seq: si, bit });
        }
    }
    let lowered = lower_design(&mut aig, graph, design, &port_lit, &state_lit).ok()?;
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let sim_in = (0..aig.num_inputs())
        .map(|_| std::array::from_fn(|_| rng.next()))
        .collect();
    Some(TwoValued {
        aig,
        net_lit: lowered.net_lit,
        outputs: lowered.outputs,
        inputs,
        cut,
        port_lit,
        state_lit,
        enc: Enc::new(),
        flipped: HashMap::new(),
        sigs: None,
        sim_in,
        sim_vals: Vec::new(),
    })
}

/// An all-zero witness: every non-clock input port and every state
/// element, in graph order. The model decoders overwrite it bit by
/// bit; a net that is unconditionally unknown keeps it as is.
fn zero_witness(graph: &NetlistGraph, net: String, check: WitnessCheck) -> Witness {
    let inputs = graph
        .ports
        .iter()
        .filter(|p| p.dir == PortDir::Input && !p.nets.iter().all(|&n| graph.is_clock_net(n)))
        .map(|p| (p.name.clone(), LogicVec::zeros(p.nets.len())))
        .collect();
    let state = graph
        .seq
        .iter()
        .zip(&graph.state_paths)
        .map(|(e, path)| (path.clone(), LogicVec::zeros(e.state_bits())))
        .collect();
    Witness {
        net,
        inputs,
        state,
        check,
    }
}

impl Witness {
    /// Sets bit `bit` of input port `port`.
    fn set_input(&mut self, port: &str, bit: usize, value: Logic) {
        if let Some((_, v)) = self.inputs.iter_mut().find(|(p, _)| p == port) {
            v.set_bit(bit, value);
        }
    }
}

/// Decodes the current SAT model into a full witness assignment.
fn witness_from_model(
    two: &TwoValued,
    graph: &NetlistGraph,
    net: String,
    check: WitnessCheck,
) -> Witness {
    let mut w = zero_witness(graph, net, check);
    for (c, &l) in two.cut.iter().zip(&two.inputs) {
        let v = Logic::from_bool(two.enc.model_lit(l));
        match *c {
            CutRef::Port { port, bit } => w.set_input(&graph.ports[port].name, bit, v),
            CutRef::State { seq, bit } => w.state[seq].1.set_bit(bit, v),
        }
    }
    w
}

/// Decodes a dual-rail SAT model into a witness: state bits whose
/// unknown rail is set force `X` through the back door.
fn x_witness_from_model(xr: &DualRail, graph: &NetlistGraph, net: String) -> Witness {
    let mut w = zero_witness(graph, net, WitnessCheck::NetEquals { value: Logic::X });
    for (c, &l) in xr.cut.iter().zip(&xr.inputs) {
        let v = xr.enc.model_lit(l);
        match *c {
            XCutRef::PortVal { port, bit } => {
                w.set_input(&graph.ports[port].name, bit, Logic::from_bool(v));
            }
            XCutRef::StateVal { seq, bit } => w.state[seq].1.set_bit(bit, Logic::from_bool(v)),
            XCutRef::StateUnk { seq, bit } if v => w.state[seq].1.set_bit(bit, Logic::X),
            XCutRef::StateUnk { .. } => {}
        }
    }
    w
}

/// Pin every state bit outside the may-X set to known.
fn xrail_assumptions(xr: &mut DualRail) -> Vec<SatLit> {
    let mut assumptions = Vec::new();
    let keys: Vec<(usize, usize)> = xr.state_unk.keys().copied().collect();
    let mut sorted = keys;
    sorted.sort_unstable();
    for key in sorted {
        if xr.may_x.contains(&key) {
            continue;
        }
        let l = xr.state_unk[&key];
        xr.enc.encode(&xr.aig, l);
        assumptions.push(!xr.enc.lit_of(l));
    }
    assumptions
}

/// Builds the dual-rail model and runs the may-X state fixpoint.
fn build_dual_rail(graph: &NetlistGraph, budget: u64) -> Option<DualRail> {
    if !graph.levelized() {
        return None;
    }
    let mut aig = Aig::new();
    let mut rail: Vec<Option<Rail<Lit>>> = vec![None; graph.net_count];
    let mut inputs = Vec::new();
    let mut cut = Vec::new();
    let mut state_unk: HashMap<(usize, usize), Lit> = HashMap::new();
    let mut may_x: HashSet<(usize, usize)> = HashSet::new();

    for &(net, v) in &graph.const_drives {
        rail[net.index()] = Some(Rail::splat::<Aig>(v));
    }
    for &net in &graph.clock_nets {
        rail[net.index()] = Some(Rail::splat::<Aig>(Logic::Zero));
    }
    for (pi, port) in graph.ports.iter().enumerate() {
        if port.dir != PortDir::Input {
            continue;
        }
        for (bit, &net) in port.nets.iter().enumerate() {
            if rail[net.index()].is_some() {
                continue;
            }
            let v = aig.input();
            inputs.push(v);
            cut.push(XCutRef::PortVal { port: pi, bit });
            rail[net.index()] = Some(Rail { v, u: FALSE });
        }
    }
    // State rails: a (value, unknown) input pair per bit.
    let mut state_rail: Vec<Vec<Rail<Lit>>> = Vec::with_capacity(graph.seq.len());
    for (si, elem) in graph.seq.iter().enumerate() {
        let mut bits = Vec::new();
        for bit in 0..elem.state_bits() {
            let v = aig.input();
            inputs.push(v);
            cut.push(XCutRef::StateVal { seq: si, bit });
            let u = aig.input();
            inputs.push(u);
            cut.push(XCutRef::StateUnk { seq: si, bit });
            state_unk.insert((si, bit), u);
            bits.push(Rail { v, u });
        }
        if let SeqKind::Ff { init, q, .. } = elem {
            if init.to_bool().is_none() {
                may_x.insert((si, 0));
            }
            rail[q.index()] = Some(bits[0]);
        }
        state_rail.push(bits);
    }
    for &net in &graph.black_box_outputs {
        rail[net.index()] = Some(unknown());
    }
    let word = |si: usize| -> [Rail<Lit>; 16] { std::array::from_fn(|i| state_rail[si][i]) };
    // Combinational cones in levelized order: the compiled engine's
    // settle sweep, kernel for kernel.
    for node in &graph.eval_order {
        let ins: Vec<Rail<Lit>> = node
            .inputs
            .iter()
            .map(|n| rail[n.index()].unwrap_or(unknown()))
            .collect();
        let out = match &node.kind {
            CombKind::Prim(kind) => prim_rail(&mut aig, kind, &ins),
            CombKind::SrlRead { seq } | CombKind::RamRead { seq } => {
                let addr = std::array::from_fn(|i| ins[i]);
                Rail::word_read(&mut aig, &addr, &word(*seq))
            }
        };
        rail[node.output.index()] = Some(out);
    }
    // Next-state unknown rails for the may-X fixpoint: the clock-edge
    // kernels over the state rails.
    let mut next_unk: Vec<((usize, usize), Lit)> = Vec::new();
    let fetch = |n: NetId| rail[n.index()].unwrap_or(unknown());
    for (si, elem) in graph.seq.iter().enumerate() {
        match elem {
            SeqKind::Ff { d, ce, control, .. } => {
                let ce = ce.map(fetch);
                let clear = control.map(|(_, net)| fetch(net));
                let next = Rail::ff_next(&mut aig, state_rail[si][0], fetch(*d), ce, clear);
                next_unk.push(((si, 0), next.u));
            }
            SeqKind::Srl16 { d, ce, .. } => {
                let mut next = word(si);
                Rail::srl_shift(&mut aig, &mut next, fetch(*d), fetch(*ce));
                next_unk.extend(next.iter().enumerate().map(|(bit, r)| ((si, bit), r.u)));
            }
            SeqKind::Ram16 { d, we, addr, .. } => {
                let mut next = word(si);
                let addr = addr.map(fetch);
                Rail::ram_write(&mut aig, &mut next, fetch(*d), fetch(*we), &addr);
                next_unk.extend(next.iter().enumerate().map(|(bit, r)| ((si, bit), r.u)));
            }
        }
    }

    let mut xr = DualRail {
        aig,
        rail,
        inputs,
        cut,
        state_unk,
        may_x,
        enc: Enc::new(),
    };
    // May-X fixpoint: a state bit joins the set when, with all known
    // bits pinned, its next-state unknown rail is satisfiable. Budget
    // exhaustion joins pessimistically — an over-approximation keeps
    // every later never-X proof sound.
    loop {
        let mut changed = false;
        for &(key, u) in &next_unk {
            if xr.may_x.contains(&key) {
                continue;
            }
            let grew = if u == FALSE {
                false
            } else if u == TRUE {
                true
            } else {
                let mut assumptions = xrail_assumptions(&mut xr);
                xr.enc.encode(&xr.aig, u);
                assumptions.push(xr.enc.lit_of(u));
                match xr.enc.solver.solve(&assumptions, budget) {
                    SatResult::Unsat => false,
                    SatResult::Unknown => true,
                    SatResult::Sat => {
                        xr.enc.solver.retract();
                        true
                    }
                }
            };
            if grew {
                xr.may_x.insert(key);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some(xr)
}

/// The unknown rail (`X`).
fn unknown() -> Rail<Lit> {
    Rail::splat::<Aig>(Logic::X)
}

/// The AIG as a rail carrier: one literal per word, so each shared
/// kernel call builds its four-state cone as AND nodes.
impl RailOps for Aig {
    type Word = Lit;
    const FALSE: Lit = FALSE;
    const TRUE: Lit = TRUE;

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        Aig::and(self, a, b)
    }

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        Aig::or(self, a, b)
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        Aig::xor(self, a, b)
    }

    fn not(&self, a: Lit) -> Lit {
        !a
    }
}

/// One combinational primitive through the shared four-state kernels:
/// the `PrimKind` twin of the compiled engine's `eval_op` dispatch.
fn prim_rail(aig: &mut Aig, kind: &PrimKind, ins: &[Rail<Lit>]) -> Rail<Lit> {
    let rest = |n: &u8| &ins[1..usize::from(*n)];
    match kind {
        PrimKind::Inv => ins[0].not(aig),
        PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => ins[0].pess(aig),
        PrimKind::And(n) => rest(n).iter().fold(ins[0], |acc, &i| acc.and(aig, i)),
        PrimKind::Or(n) => rest(n).iter().fold(ins[0], |acc, &i| acc.or(aig, i)),
        PrimKind::Nand(n) => rest(n)
            .iter()
            .fold(ins[0], |acc, &i| acc.and(aig, i))
            .not(aig),
        PrimKind::Nor(n) => rest(n)
            .iter()
            .fold(ins[0], |acc, &i| acc.or(aig, i))
            .not(aig),
        PrimKind::Xor(n) => rest(n).iter().fold(ins[0], |acc, &i| acc.xor(aig, i)),
        PrimKind::Xnor2 => ins[0].xor(aig, ins[1]).not(aig),
        // mux2 inputs are [i0, i1, sel].
        PrimKind::Mux2 => Rail::mux(aig, ins[2], ins[0], ins[1]),
        PrimKind::Lut { inputs, init } => Rail::lut(aig, *init, &ins[..usize::from(*inputs)]),
        // muxcy inputs are [ci, di, s]; s=1 selects the carry-in.
        PrimKind::Muxcy => Rail::mux(aig, ins[2], ins[1], ins[0]),
        PrimKind::Xorcy => ins[0].xor(aig, ins[1]),
        PrimKind::MultAnd => ins[0].and(aig, ins[1]),
        PrimKind::Rom16x1 { init } => Rail::lut(aig, *init, &ins[..4]),
        PrimKind::Gnd => Rail::splat::<Aig>(Logic::Zero),
        PrimKind::Vcc => Rail::splat::<Aig>(Logic::One),
        PrimKind::Ff { .. } | PrimKind::Srl16 { .. } | PrimKind::Ram16x1 { .. } => {
            unreachable!("sequential primitives are not evaluation nodes")
        }
    }
}

/// Rebuilds `root`'s cone with one node replaced by `with`.
fn substitute(aig: &mut Aig, root: Lit, node: usize, with: Lit) -> Lit {
    let mut map: HashMap<usize, Lit> = HashMap::new();
    map.insert(node, with);
    let mut stack = vec![root.node()];
    while let Some(n) = stack.pop() {
        if map.contains_key(&n) {
            continue;
        }
        match aig.node(Lit::new(n, false)) {
            Node::Const | Node::Input(_) => {
                map.insert(n, Lit::new(n, false));
            }
            Node::And(a, b) => {
                let (na, nb) = (a.node(), b.node());
                let (ma, mb) = (map.get(&na).copied(), map.get(&nb).copied());
                if let (Some(x), Some(y)) = (ma, mb) {
                    let xa = if a.negated() { !x } else { x };
                    let xb = if b.negated() { !y } else { y };
                    let r = aig.and(xa, xb);
                    map.insert(n, r);
                } else {
                    stack.push(n);
                    if ma.is_none() {
                        stack.push(na);
                    }
                    if mb.is_none() {
                        stack.push(nb);
                    }
                }
            }
        }
    }
    let r = map[&root.node()];
    if root.negated() {
        !r
    } else {
        r
    }
}

/// Minterm `m` pinned across `lits` as solver assumptions.
fn minterm_assumptions(two: &TwoValued, lits: &[Lit], m: u16) -> Vec<SatLit> {
    lits.iter()
        .enumerate()
        .map(|(i, &l)| {
            let sl = two.enc.lit_of(l);
            if (m >> i) & 1 == 1 {
                sl
            } else {
                !sl
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_sim::Simulator;
    use ipd_techlib::LogicCtx;
    use ipd_testutil::XorShift64;

    use super::*;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// The inputs of four-state combination `c`: two bits per input.
    fn combo(c: usize, arity: usize) -> Vec<Logic> {
        (0..arity).map(|i| ALL[(c >> (2 * i)) % 4]).collect()
    }

    /// A rail over two fresh AIG inputs, value then unknown.
    fn input_rail(aig: &mut Aig) -> Rail<Lit> {
        let v = aig.input();
        Rail { v, u: aig.input() }
    }

    /// The AIG input assignment driving consecutive input rails with
    /// `values`.
    fn assignment(values: &[Logic]) -> Vec<bool> {
        values
            .iter()
            .flat_map(|&l| [matches!(l, Logic::One | Logic::Z), !l.is_driven()])
            .collect()
    }

    /// The four-state value a rail carries under `inputs`.
    fn eval(aig: &Aig, r: Rail<Lit>, inputs: &[bool]) -> Logic {
        match (aig.eval(r.v, inputs), aig.eval(r.u, inputs)) {
            (false, false) => Logic::Zero,
            (true, false) => Logic::One,
            (false, true) => Logic::X,
            (true, true) => Logic::Z,
        }
    }

    /// Builds `kind`'s dual-rail cone over fresh input rails and checks
    /// it against `eval_comb` on every four-state input combination.
    fn check_prim(kind: &PrimKind, arity: usize) {
        let mut aig = Aig::new();
        let ins: Vec<Rail<Lit>> = (0..arity).map(|_| input_rail(&mut aig)).collect();
        let out = prim_rail(&mut aig, kind, &ins);
        for c in 0..4usize.pow(arity as u32) {
            let values = combo(c, arity);
            assert_eq!(
                eval(&aig, out, &assignment(&values)),
                kind.eval_comb(&values),
                "{} on {values:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn aig_kernels_match_scalar_eval_exhaustively() {
        for kind in [
            PrimKind::Inv,
            PrimKind::Buf,
            PrimKind::Ibuf,
            PrimKind::Obuf,
            PrimKind::Bufg,
        ] {
            check_prim(&kind, 1);
        }
        for n in 2..=4u8 {
            check_prim(&PrimKind::And(n), n.into());
            check_prim(&PrimKind::Or(n), n.into());
            check_prim(&PrimKind::Nand(n), n.into());
            check_prim(&PrimKind::Nor(n), n.into());
        }
        for n in 2..=3u8 {
            check_prim(&PrimKind::Xor(n), n.into());
        }
        for kind in [PrimKind::Xnor2, PrimKind::Xorcy, PrimKind::MultAnd] {
            check_prim(&kind, 2);
        }
        check_prim(&PrimKind::Mux2, 3);
        check_prim(&PrimKind::Muxcy, 3);
        check_prim(&PrimKind::Gnd, 0);
        check_prim(&PrimKind::Vcc, 0);
    }

    #[test]
    fn aig_lut_kernels_match_scalar_eval() {
        // The compiled engine's truth tables: the degenerate constants,
        // parity (sensitive to every input) and a spread of others.
        for inputs in 1..=4u8 {
            let mask = (1u32 << (1u32 << inputs)) - 1;
            for init in [0u16, 0xFFFF, 0x6996, 0xAAAA, 0xCAFE, 0x8001, 0x1234] {
                let init = (u32::from(init) & mask) as u16;
                check_prim(&PrimKind::Lut { inputs, init }, inputs.into());
            }
        }
        check_prim(&PrimKind::Rom16x1 { init: 0x8001 }, 4);
        check_prim(&PrimKind::Rom16x1 { init: 0x6996 }, 4);
    }

    /// `exec.rs`'s word contents: all-equal words, a one-hot word, and
    /// random four-state words.
    fn words() -> Vec<[Logic; 16]> {
        let mut rng = XorShift64::new(0x0dd_ba11);
        let mut words: Vec<[Logic; 16]> = ALL.iter().map(|&l| [l; 16]).collect();
        let mut one_hot = [Logic::Zero; 16];
        one_hot[5] = Logic::One;
        words.push(one_hot);
        for _ in 0..32 {
            words.push(std::array::from_fn(|_| ALL[rng.index(4)]));
        }
        words
    }

    /// A scalar simulator over one 16-bit memory element (`srl16` or
    /// `ram16x1`) with inputs `clk`, `en`, `d`, `a[4]` and output `o`,
    /// and the element's path.
    fn memory_sim(srl: bool) -> (Simulator, String) {
        let mut c = Circuit::new("mem");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let o = ctx.add_port(PortSpec::output("o", 1)).unwrap();
        if srl {
            ctx.srl16(0, clk, en, d, a, o).unwrap();
        } else {
            ctx.ram16x1(0, clk, en, d, a, o).unwrap();
        }
        let sim = Simulator::new(&c).expect("compiles");
        let path = sim.state_elements()[0].clone();
        (sim, path)
    }

    fn bit(value: Logic) -> LogicVec {
        std::iter::once(value).collect()
    }

    /// All 256 four-state addresses over word contents that agree,
    /// disagree, or hold `X`/`Z`: the AIG word read equals the scalar
    /// simulator's RAM16 read of the same word.
    #[test]
    fn aig_word_read_matches_scalar_simulator() {
        let mut aig = Aig::new();
        let addr: [Rail<Lit>; 4] = std::array::from_fn(|_| input_rail(&mut aig));
        let cells: [Rail<Lit>; 16] = std::array::from_fn(|_| input_rail(&mut aig));
        let out = Rail::word_read(&mut aig, &addr, &cells);
        let (mut sim, ram) = memory_sim(false);
        for word in &words() {
            assert!(sim.set_memory(&ram, &word.iter().copied().collect()));
            for c in 0..256 {
                let at = combo(c, 4);
                sim.set("a", at.iter().copied().collect()).unwrap();
                let expected = sim.peek("o").unwrap().bit(0);
                let inputs = assignment(&[at.as_slice(), word].concat());
                assert_eq!(eval(&aig, out, &inputs), expected, "{word:?} at {at:?}");
            }
        }
    }

    /// The clock-edge kernels the may-X fixpoint reads, against the
    /// scalar simulator's clock edge: a flip-flop with clock enable and
    /// clear from every four-state (state, d, ce, clr), and the SRL16
    /// shift and RAM16 write of every word above under every
    /// four-state d and enable (the RAM at addresses 0, 9 and unknown).
    #[test]
    fn aig_clock_edge_kernels_match_scalar_simulator() {
        let mut aig = Aig::new();
        let [cur, d, ce, clr]: [Rail<Lit>; 4] = std::array::from_fn(|_| input_rail(&mut aig));
        let next = Rail::ff_next(&mut aig, cur, d, Some(ce), Some(clr));
        let mut c = Circuit::new("ff");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let [d_in, ce_in, clr_in] =
            ["d", "ce", "clr"].map(|p| ctx.add_port(PortSpec::input(p, 1)).unwrap());
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.fdce(clk, ce_in, clr_in, d_in, q).unwrap();
        let mut sim = Simulator::new(&c).expect("compiles");
        let ff = sim.state_elements()[0].clone();
        for c in 0..256 {
            let values = combo(c, 4);
            assert!(sim.set_ff(&ff, values[0]));
            for (port, &v) in ["d", "ce", "clr"].iter().zip(&values[1..]) {
                sim.set(port, bit(v)).unwrap();
            }
            sim.cycle(1).unwrap();
            let expected = sim.ff_state(&ff).unwrap();
            assert_eq!(
                eval(&aig, next, &assignment(&values)),
                expected,
                "{values:?}"
            );
        }

        for srl in [true, false] {
            let mut aig = Aig::new();
            let [d, en]: [Rail<Lit>; 2] = std::array::from_fn(|_| input_rail(&mut aig));
            let addr: [Rail<Lit>; 4] = std::array::from_fn(|_| input_rail(&mut aig));
            let mut next: [Rail<Lit>; 16] = std::array::from_fn(|_| input_rail(&mut aig));
            if srl {
                Rail::srl_shift(&mut aig, &mut next, d, en);
            } else {
                Rail::ram_write(&mut aig, &mut next, d, en, &addr);
            }
            let (mut sim, mem) = memory_sim(srl);
            let nine = [Logic::One, Logic::Zero, Logic::Zero, Logic::One];
            let unknown_bit = [Logic::One, Logic::X, Logic::Zero, Logic::Zero];
            for word in &words() {
                for at in [[Logic::Zero; 4], nine, unknown_bit] {
                    for c in 0..16 {
                        let (dv, env) = (ALL[c % 4], ALL[c / 4]);
                        assert!(sim.set_memory(&mem, &word.iter().copied().collect()));
                        sim.set("d", bit(dv)).unwrap();
                        sim.set("en", bit(env)).unwrap();
                        sim.set("a", at.iter().copied().collect()).unwrap();
                        sim.cycle(1).unwrap();
                        let got = sim.memory(&mem).unwrap();
                        let inputs = assignment(&[&[dv, env][..], &at, word].concat());
                        for (i, r) in next.iter().enumerate() {
                            let what = if srl { "srl" } else { "ram" };
                            let case =
                                format!("{what} bit {i}: d={dv:?} en={env:?} a={at:?} {word:?}");
                            assert_eq!(eval(&aig, *r, &inputs), got.bit(i), "{case}");
                        }
                    }
                }
            }
        }
    }
}
