//! Hierarchy elaboration into a flat, single-bit netlist.
//!
//! The simulator, the estimator and the flat netlist writers all consume
//! a [`FlatNetlist`]: every wire bit reachable through port bindings is
//! merged into one net (union-find), every primitive's connections are
//! resolved to net ids, and relative placements are accumulated into
//! absolute locations.

use std::cell::Cell;
use std::collections::HashMap;

use crate::cell::{CellKind, PortDir, Primitive, Rloc};
use crate::circuit::Circuit;
use crate::error::Result;
use crate::{CellId, NetId};

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many [`FlatNetlist`]s this thread has built. Tests read it to
/// check that one flow elaborates its circuit once.
#[doc(hidden)]
#[must_use]
pub fn flatten_builds() -> u64 {
    BUILDS.with(Cell::get)
}

/// One single-bit net of the flattened design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatNet {
    /// Representative hierarchical name (shallowest wire bit on the net).
    pub name: String,
}

/// What a flattened leaf is.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatKind {
    /// A technology-library primitive.
    Primitive(Primitive),
    /// A protected black box; only its interface is visible.
    BlackBox(String),
}

impl FlatKind {
    /// The primitive, if this leaf is one.
    #[must_use]
    pub fn as_primitive(&self) -> Option<&Primitive> {
        match self {
            FlatKind::Primitive(p) => Some(p),
            FlatKind::BlackBox(_) => None,
        }
    }
}

/// One resolved port connection of a flattened leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatConn {
    /// Port name on the leaf.
    pub port: String,
    /// Port direction.
    pub dir: PortDir,
    /// Net per bit, LSB first. Dangling output bits get fresh nets.
    pub nets: Vec<NetId>,
}

/// A leaf (primitive or black box) of the flattened design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatLeaf {
    /// Primitive or black-box identity.
    pub kind: FlatKind,
    /// Full hierarchical instance path.
    pub path: String,
    /// Resolved connections in port-declaration order.
    pub conns: Vec<FlatConn>,
    /// Absolute placement accumulated from `RLOC`s, if placed.
    pub loc: Option<Rloc>,
    /// The originating cell in the hierarchical circuit.
    pub cell: CellId,
}

impl FlatLeaf {
    /// Looks up a connection by port name.
    #[must_use]
    pub fn conn(&self, port: &str) -> Option<&FlatConn> {
        self.conns.iter().find(|c| c.port == port)
    }
}

/// A primary port of the flattened design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPort {
    /// Port name at the top level.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Net per bit, LSB first.
    pub nets: Vec<NetId>,
}

/// The flattened design: bit-level nets, leaves and primary ports.
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Circuit, FlatNetlist, PortSpec, Primitive};
///
/// # fn main() -> Result<(), ipd_hdl::HdlError> {
/// let mut circuit = Circuit::new("top");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 1))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// ctx.leaf(
///     Primitive::new("virtex", "inv"),
///     vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
///     "n0",
///     &[("i", a.into()), ("o", y.into())],
/// )?;
/// let flat = FlatNetlist::build(&circuit)?;
/// assert_eq!(flat.leaves().len(), 1);
/// assert_eq!(flat.ports().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlatNetlist {
    nets: Vec<FlatNet>,
    leaves: Vec<FlatLeaf>,
    ports: Vec<FlatPort>,
    design_name: String,
}

impl FlatNetlist {
    /// Flattens a circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if any binding refers to stale identifiers
    /// (which cannot happen for circuits built through [`CellCtx`]).
    ///
    /// [`CellCtx`]: crate::CellCtx
    pub fn build(circuit: &Circuit) -> Result<Self> {
        BUILDS.with(|b| b.set(b.get() + 1));
        Flattener::new(circuit).run()
    }

    /// Design name (root cell name).
    #[must_use]
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// All single-bit nets.
    #[must_use]
    pub fn nets(&self) -> &[FlatNet] {
        &self.nets
    }

    /// All leaves (primitives and black boxes).
    #[must_use]
    pub fn leaves(&self) -> &[FlatLeaf] {
        &self.leaves
    }

    /// Mutable access to the leaves — for fault-injection and
    /// mutation-testing harnesses that perturb a flattened design in
    /// place (flip a LUT init bit, swap two input connections).
    /// Structural invariants (net ids, port bindings) are the caller's
    /// responsibility.
    pub fn leaves_mut(&mut self) -> &mut [FlatLeaf] {
        &mut self.leaves
    }

    /// Primary ports of the design.
    #[must_use]
    pub fn ports(&self) -> &[FlatPort] {
        &self.ports
    }

    /// Looks up a primary port by name.
    #[must_use]
    pub fn port(&self, name: &str) -> Option<&FlatPort> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// For every net, the list of `(leaf index, port index)` pairs that
    /// *drive* it (output or inout connections).
    #[must_use]
    pub fn drivers(&self) -> Vec<Vec<(usize, usize)>> {
        let mut out = vec![Vec::new(); self.nets.len()];
        for (li, leaf) in self.leaves.iter().enumerate() {
            for (pi, conn) in leaf.conns.iter().enumerate() {
                if conn.dir != PortDir::Input {
                    for &net in &conn.nets {
                        out[net.index()].push((li, pi));
                    }
                }
            }
        }
        out
    }

    /// For every net, the list of `(leaf index, port index)` pairs that
    /// *read* it.
    #[must_use]
    pub fn readers(&self) -> Vec<Vec<(usize, usize)>> {
        let mut out = vec![Vec::new(); self.nets.len()];
        for (li, leaf) in self.leaves.iter().enumerate() {
            for (pi, conn) in leaf.conns.iter().enumerate() {
                if conn.dir != PortDir::Output {
                    for &net in &conn.nets {
                        out[net.index()].push((li, pi));
                    }
                }
            }
        }
        out
    }
}

/// Union-find over circuit wire bits.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

struct Flattener<'a> {
    circuit: &'a Circuit,
    wire_base: Vec<u32>,
    uf: UnionFind,
}

impl<'a> Flattener<'a> {
    fn new(circuit: &'a Circuit) -> Self {
        let mut wire_base = Vec::with_capacity(circuit.wire_count());
        let mut total = 0u32;
        for wid in circuit.wire_ids() {
            wire_base.push(total);
            total += circuit.wire(wid).width();
        }
        Flattener {
            circuit,
            wire_base,
            uf: UnionFind::new(total as usize),
        }
    }

    fn bit_key(&self, wire: crate::WireId, bit: u32) -> u32 {
        self.wire_base[wire.index()] + bit
    }

    fn run(mut self) -> Result<FlatNetlist> {
        let circuit = self.circuit;
        // 1. Union inner port wires with outer bindings for every
        //    composite cell below the root.
        for id in circuit.cell_ids() {
            let cell = circuit.cell(id);
            if !cell.kind().is_composite() || cell.parent().is_none() {
                continue;
            }
            for port in cell.ports() {
                let (Some(inner), Some(outer)) = (port.inner, port.outer.as_ref()) else {
                    continue;
                };
                for (bit, (ow, ob)) in outer.bits().enumerate() {
                    let inner_key = self.bit_key(inner, bit as u32);
                    let outer_key = self.bit_key(ow, ob);
                    self.uf.union(inner_key, outer_key);
                }
            }
        }

        // 2. Assign net ids to union-find roots, choosing the shallowest
        //    wire-bit name as the representative.
        let mut net_of_root: HashMap<u32, NetId> = HashMap::new();
        let mut nets: Vec<FlatNet> = Vec::new();
        let mut best_name: Vec<(usize, String)> = Vec::new();
        for wid in circuit.wire_ids() {
            let wire = circuit.wire(wid);
            let path = circuit.wire_path(wid);
            let depth = path.matches('/').count();
            for bit in 0..wire.width() {
                let key = self.bit_key(wid, bit);
                let root = self.uf.find(key);
                let name = if wire.width() == 1 {
                    path.clone()
                } else {
                    format!("{path}[{bit}]")
                };
                match net_of_root.get(&root) {
                    None => {
                        let id = NetId::from_index(nets.len());
                        nets.push(FlatNet { name: name.clone() });
                        best_name.push((depth, name));
                        net_of_root.insert(root, id);
                    }
                    Some(&id) => {
                        let cur = &mut best_name[id.index()];
                        if (depth, &name) < (cur.0, &cur.1) {
                            *cur = (depth, name.clone());
                            nets[id.index()].name = name;
                        }
                    }
                }
            }
        }

        // 3. Resolve leaves.
        let mut leaves = Vec::new();
        for id in circuit.cell_ids() {
            let cell = circuit.cell(id);
            let kind = match cell.kind() {
                CellKind::Primitive(p) => FlatKind::Primitive(p.clone()),
                CellKind::BlackBox => FlatKind::BlackBox(cell.type_name().to_owned()),
                CellKind::Composite => continue,
            };
            let mut conns = Vec::with_capacity(cell.ports().len());
            for port in cell.ports() {
                let mut bits = Vec::with_capacity(port.spec.width as usize);
                match port.outer.as_ref() {
                    Some(sig) => {
                        for (w, b) in sig.bits() {
                            let root = self.uf.find(self.bit_key(w, b));
                            bits.push(net_of_root[&root]);
                        }
                    }
                    None => {
                        // Dangling output: fresh unconnected nets.
                        for bit in 0..port.spec.width {
                            let net = NetId::from_index(nets.len());
                            nets.push(FlatNet {
                                name: format!(
                                    "{}/{}_open[{bit}]",
                                    circuit.cell_path(id),
                                    port.spec.name
                                ),
                            });
                            bits.push(net);
                        }
                    }
                }
                conns.push(FlatConn {
                    port: port.spec.name.clone(),
                    dir: port.spec.dir,
                    nets: bits,
                });
            }
            leaves.push(FlatLeaf {
                kind,
                path: circuit.cell_path(id),
                conns,
                loc: circuit.absolute_rloc(id),
                cell: id,
            });
        }

        // 4. Primary ports from the root cell's inner wires.
        let mut ports = Vec::new();
        let root = circuit.cell(circuit.root());
        for port in root.ports() {
            let Some(inner) = port.inner else { continue };
            let mut bits = Vec::with_capacity(port.spec.width as usize);
            for bit in 0..port.spec.width {
                let rootkey = self.uf.find(self.bit_key(inner, bit));
                bits.push(net_of_root[&rootkey]);
            }
            ports.push(FlatPort {
                name: port.spec.name.clone(),
                dir: port.spec.dir,
                nets: bits,
            });
        }

        Ok(FlatNetlist {
            nets,
            leaves,
            ports,
            design_name: circuit.name().to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::PortSpec;
    use crate::wire::Signal;

    fn buf_ports() -> Vec<PortSpec> {
        vec![PortSpec::input("i", 1), PortSpec::output("o", 1)]
    }

    fn buf() -> Primitive {
        Primitive::new("virtex", "buf")
    }

    /// top.a -> u0(i) -> inner buf -> u0(o) -> top.y
    fn two_level_circuit() -> Circuit {
        use crate::circuit::FnGenerator;
        let inner = FnGenerator::new(
            "pass",
            vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
            |ctx| {
                let i = ctx.port("i")?;
                let o = ctx.port("o")?;
                ctx.leaf(
                    buf(),
                    buf_ports(),
                    "b0",
                    &[("i", i.into()), ("o", o.into())],
                )?;
                Ok(())
            },
        );
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.instantiate(&inner, "u0", &[("i", a.into()), ("o", y.into())])
            .unwrap();
        c
    }

    #[test]
    fn port_bindings_merge_nets() {
        let c = two_level_circuit();
        let flat = FlatNetlist::build(&c).expect("flatten");
        assert_eq!(flat.leaves().len(), 1);
        let leaf = &flat.leaves()[0];
        // The buf's input net must be the same net as the primary input.
        let a_net = flat.port("a").unwrap().nets[0];
        let y_net = flat.port("y").unwrap().nets[0];
        assert_eq!(leaf.conn("i").unwrap().nets[0], a_net);
        assert_eq!(leaf.conn("o").unwrap().nets[0], y_net);
        assert_ne!(a_net, y_net);
    }

    #[test]
    fn net_names_prefer_shallowest() {
        let c = two_level_circuit();
        let flat = FlatNetlist::build(&c).expect("flatten");
        let a_net = flat.port("a").unwrap().nets[0];
        assert_eq!(flat.nets()[a_net.index()].name, "top/a");
    }

    #[test]
    fn dangling_outputs_get_fresh_nets() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        ctx.leaf(buf(), buf_ports(), "b0", &[("i", i.into())])
            .unwrap();
        let flat = FlatNetlist::build(&c).expect("flatten");
        let leaf = &flat.leaves()[0];
        let o_net = leaf.conn("o").unwrap().nets[0];
        assert!(flat.nets()[o_net.index()].name.contains("_open"));
        // Nobody drives the input wire; one net for it, one dangling.
        assert_eq!(flat.net_count(), 2);
    }

    #[test]
    fn drivers_and_readers() {
        let c = two_level_circuit();
        let flat = FlatNetlist::build(&c).expect("flatten");
        let a_net = flat.port("a").unwrap().nets[0];
        let y_net = flat.port("y").unwrap().nets[0];
        let drivers = flat.drivers();
        let readers = flat.readers();
        assert!(drivers[a_net.index()].is_empty());
        assert_eq!(drivers[y_net.index()].len(), 1);
        assert_eq!(readers[a_net.index()].len(), 1);
        assert!(readers[y_net.index()].is_empty());
    }

    #[test]
    fn multibit_bus_expands_per_bit() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 4)).unwrap();
        for b in 0..4 {
            ctx.leaf(
                buf(),
                buf_ports(),
                &format!("b{b}"),
                &[("i", Signal::bit_of(a, b)), ("o", Signal::bit_of(y, b))],
            )
            .unwrap();
        }
        let flat = FlatNetlist::build(&c).expect("flatten");
        assert_eq!(flat.leaves().len(), 4);
        assert_eq!(flat.port("a").unwrap().nets.len(), 4);
        // 4 input bits + 4 output bits.
        assert_eq!(flat.net_count(), 8);
        assert_eq!(
            flat.nets()[flat.port("a").unwrap().nets[2].index()].name,
            "top/a[2]"
        );
    }

    #[test]
    fn black_boxes_survive_flattening() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let o = ctx.wire("o", 1);
        ctx.black_box(
            "secret_ip",
            vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
            "bb0",
            &[("i", i.into()), ("o", o.into())],
        )
        .unwrap();
        let flat = FlatNetlist::build(&c).expect("flatten");
        assert_eq!(flat.leaves().len(), 1);
        assert!(matches!(flat.leaves()[0].kind, FlatKind::BlackBox(ref n) if n == "secret_ip"));
    }

    #[test]
    fn placement_is_absolute_in_flat_view() {
        use crate::circuit::FnGenerator;
        let inner = FnGenerator::new("placed", vec![PortSpec::input("i", 1)], |ctx| {
            let i = ctx.port("i")?;
            let leaf = ctx.leaf(buf(), buf_ports(), "b0", &[("i", i.into())])?;
            ctx.set_rloc(leaf, Rloc::new(1, 0));
            Ok(())
        });
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let u = ctx.instantiate(&inner, "u0", &[("i", i.into())]).unwrap();
        ctx.set_rloc(u, Rloc::new(4, 2));
        let flat = FlatNetlist::build(&c).expect("flatten");
        let placed: Vec<_> = flat.leaves().iter().filter_map(|l| l.loc).collect();
        assert_eq!(placed, vec![Rloc::new(5, 2)]);
    }
}
