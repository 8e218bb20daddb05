//! Name uniquification against a linear-probe oracle.
//!
//! A scope hands out `base` if it is free, else the first free of
//! `base_2`, `base_3`, …. Random sequences of wires, leaves, ports and
//! child instances, over a small alphabet that includes names which
//! look generated (`t_2`, `t_2_2`), are driven into nested scopes, and
//! every name the circuit hands out is checked against that rule,
//! probed from `_2` upwards on every call.

use std::collections::{HashMap, HashSet};

use ipd_hdl::{CellId, Circuit, FnGenerator, HdlError, PortSpec, Primitive};
use ipd_testutil::XorShift64;

const ALPHABET: &[&str] = &["t", "t_2", "t_3", "t_2_2", "t_1", "o", "o_2", "u"];

/// The rule, probed linearly: the first free name of `base`, `base_2`,
/// `base_3`, …, which it then marks used.
fn linear_probe(used: &mut HashSet<String>, base: &str) -> String {
    if used.insert(base.to_owned()) {
        return base.to_owned();
    }
    (2..)
        .map(|n| format!("{base}_{n}"))
        .find(|candidate| used.insert(candidate.clone()))
        .expect("some suffix is free")
}

/// Outputs only, so a leaf or child binds without connections. The
/// port names collide with the alphabet inside the child's scope.
fn out_ports() -> Vec<PortSpec> {
    vec![PortSpec::output("t", 1), PortSpec::output("t_2", 1)]
}

fn run(seed: u64, ops: usize) {
    let child = FnGenerator::new("child", out_ports(), |_| Ok(()));
    let mut rng = XorShift64::new(seed);
    let mut circuit = Circuit::new("top");
    let mut used: HashMap<CellId, HashSet<String>> = HashMap::new();
    let mut scopes = vec![circuit.root()];
    for op in 0..ops {
        let scope = scopes[(rng.next_u64() % scopes.len() as u64) as usize];
        let base = ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize];
        let names = used.entry(scope).or_default();
        let what = format!(
            "seed {seed} op {op}: {base:?} in {}",
            circuit.cell_path(scope)
        );
        let mut ctx = circuit.ctx_for(scope).expect("composite scope");
        match rng.next_u64() % 4 {
            0 => {
                let wire = ctx.wire(base, 1);
                assert_eq!(
                    circuit.wire(wire).name(),
                    linear_probe(names, base),
                    "{what}"
                );
            }
            1 => {
                let leaf = ctx
                    .leaf(Primitive::new("virtex", "buf"), out_ports(), base, &[])
                    .expect("leaf binds");
                assert_eq!(
                    circuit.cell(leaf).name(),
                    linear_probe(names, base),
                    "{what}"
                );
            }
            2 => match ctx.add_port(PortSpec::input(base, 1)) {
                Ok(wire) => {
                    assert_eq!(
                        circuit.wire(wire).name(),
                        linear_probe(names, base),
                        "{what}"
                    );
                }
                Err(HdlError::DuplicateName { .. }) => {
                    let port = circuit.cell(scope).port(base);
                    assert!(port.is_some(), "{what}: refused a port that does not exist");
                }
                Err(e) => panic!("{what}: {e}"),
            },
            _ => {
                let cell = ctx.instantiate(&child, base, &[]).expect("child binds");
                assert_eq!(
                    circuit.cell(cell).name(),
                    linear_probe(names, base),
                    "{what}"
                );
                // The child's port wires are the first names of its scope.
                let inner = used.entry(cell).or_default();
                for spec in out_ports() {
                    let wire = circuit.cell(cell).port(&spec.name).and_then(|p| p.inner);
                    let wire = wire.expect("composite ports have inner wires");
                    assert_eq!(circuit.wire(wire).name(), linear_probe(inner, &spec.name));
                }
                scopes.push(cell);
            }
        }
    }
}

#[test]
fn names_match_the_linear_probe() {
    for seed in 1..=8 {
        run(seed, 1_500);
    }
}

#[test]
fn an_explicit_suffix_is_skipped() {
    let mut circuit = Circuit::new("top");
    let mut ctx = circuit.root_ctx();
    let names: Vec<_> = ["t", "t_3", "t", "t", "t", "t_2", "t_2"]
        .iter()
        .map(|base| ctx.wire(base, 1))
        .collect();
    let names: Vec<&str> = names.iter().map(|&w| circuit.wire(w).name()).collect();
    assert_eq!(names, ["t", "t_3", "t_2", "t_4", "t_5", "t_2_2", "t_2_3"]);
}
