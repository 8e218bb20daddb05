//! The analysis model every lint pass runs against.
//!
//! A [`LintModel`] wraps the design's [`FlatIndex`] — resolved
//! primitive kinds, driver/reader tables, the combinational graph
//! (with the asynchronous read paths of SRL16/RAM16 memories) in one
//! evaluation order with its loops, and sequential elements with their
//! clock domains — which it derefs to, so passes read the same
//! structure STA, the simulators and the equivalence checker read. The
//! model adds only what is lint's own: per-net constant values,
//! computed once on first use. Passes are pure functions over it, so
//! adding a rule never re-derives connectivity.

use std::cell::OnceCell;

use ipd_hdl::Logic;
use ipd_techlib::FlatIndex;

/// The prepared analysis model: the design's index plus lint's own
/// derived facts.
#[derive(Debug)]
pub struct LintModel<'a> {
    index: &'a FlatIndex,
    /// Lazily computed per-net constant values (see
    /// [`LintModel::const_values`]).
    const_cache: OnceCell<Vec<Option<Logic>>>,
}

impl<'a> LintModel<'a> {
    /// The model over an indexed design.
    #[must_use]
    pub fn new(index: &'a FlatIndex) -> Self {
        LintModel {
            index,
            const_cache: OnceCell::new(),
        }
    }

    /// The index the model reads, for handing to other engines.
    #[must_use]
    pub fn index(&self) -> &'a FlatIndex {
        self.index
    }

    /// Constant value per net where provable, via monotone forward
    /// propagation of the gnd/vcc rails with the primitive evaluator's
    /// unknown-insensitivity (a LUT whose cofactors agree is constant
    /// even with varying inputs). Computed lazily, once per model —
    /// both the constant-logic and X-propagation passes share it.
    #[must_use]
    pub fn const_values(&self) -> &[Option<Logic>] {
        self.const_cache.get_or_init(|| {
            let mut value: Vec<Option<Logic>> = vec![None; self.flat().net_count()];
            for &(net, v) in self.const_drives() {
                value[net.index()] = Some(v);
            }
            // Widest comb primitive input list is a ROM's 4 address
            // bits; the fixed buffer avoids a per-node allocation.
            let mut buf = [Logic::X; 8];
            // Monotone fixpoint: facts only ever appear, so this
            // terminates; in topo order one sweep settles everything
            // outside loops, and a final sweep detects quiescence.
            loop {
                let mut changed = false;
                for &ni in self.topo_order() {
                    let node = &self.comb_nodes()[ni];
                    let Some(kind) = node.kind else { continue }; // SRL/RAM reads
                    if value[node.output.index()].is_some() {
                        continue;
                    }
                    for (k, n) in node.inputs.iter().enumerate() {
                        buf[k] = value[n.index()].unwrap_or(Logic::X);
                    }
                    let out = kind.eval_comb(&buf[..node.inputs.len()]);
                    if out.to_bool().is_some() {
                        value[node.output.index()] = Some(out);
                        changed = true;
                    }
                }
                if !changed {
                    return value;
                }
            }
        })
    }
}

impl<'a> std::ops::Deref for LintModel<'a> {
    type Target = FlatIndex;

    fn deref(&self) -> &FlatIndex {
        self.index
    }
}
