//! Hierarchical EDIF 2.0.0 netlist generation.
//!
//! EDIF is the primary interchange format of the paper's applets: the
//! *Netlist* button generates EDIF text into a browsable window. Output
//! is hierarchical — every composite cell becomes an EDIF `cell`
//! definition in the `work` library, technology primitives and black
//! boxes are declared in `external` libraries, and original JHDL names
//! are preserved through EDIF `rename` constructs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;

use ipd_hdl::{Cell, CellId, CellKind, Circuit, PortDir, WireId};

use crate::error::NetlistError;
use crate::names::{Dialect, NameTable};

/// Generates the EDIF netlist for a circuit as a `String`.
///
/// # Errors
///
/// None today; the `Result` matches the other netlist writers.
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Circuit, PortSpec};
/// use ipd_netlist::edif_string;
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("top");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 1))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// ctx.inv(a, y)?;
/// let edif = edif_string(&circuit)?;
/// assert!(edif.starts_with("(edif"));
/// # Ok(())
/// # }
/// ```
pub fn edif_string(circuit: &Circuit) -> Result<String, NetlistError> {
    Ok(Emitter::new(circuit).emit())
}

/// Writes the EDIF netlist for a circuit.
///
/// A mut reference can be passed as the writer.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on writer failure.
pub fn write_edif<W: Write>(circuit: &Circuit, mut writer: W) -> Result<(), NetlistError> {
    writer.write_all(Emitter::new(circuit).emit().as_bytes())?;
    Ok(())
}

fn dir_keyword(dir: PortDir) -> &'static str {
    match dir {
        PortDir::Input => "INPUT",
        PortDir::Output => "OUTPUT",
        PortDir::Inout => "INOUT",
    }
}

/// Appends the expanded single-bit port (or net) name: `port` for one
/// bit, `port[bit]` otherwise.
fn push_bit_source(out: &mut String, port: &str, bit: u32, width: u32) {
    out.push_str(port);
    if width != 1 {
        let _ = write!(out, "[{bit}]");
    }
}

/// Appends `legal`, or `(rename legal "source")` when they differ.
fn push_named(out: &mut String, legal: &str, source: &str) {
    if legal == source {
        out.push_str(legal);
    } else {
        out.push_str("(rename ");
        out.push_str(legal);
        out.push_str(" \"");
        out.push_str(source);
        out.push_str("\")");
    }
}

/// The legal EDIF name of every port bit of one interface.
struct PortTable {
    /// Legal names, port by port, LSB first.
    legal: Vec<String>,
    /// Index in `legal` of each port's bit 0.
    offsets: Vec<usize>,
}

impl PortTable {
    fn new(cell: &Cell) -> Self {
        let mut names = NameTable::new(Dialect::Edif);
        let mut legal = Vec::new();
        let mut offsets = Vec::with_capacity(cell.ports().len());
        let mut source = String::new();
        for port in cell.ports() {
            offsets.push(legal.len());
            for bit in 0..port.spec.width {
                source.clear();
                push_bit_source(&mut source, &port.spec.name, bit, port.spec.width);
                legal.push(names.legalize(&source).to_owned());
            }
        }
        PortTable { legal, offsets }
    }

    /// The legal names of port `index`'s bits, LSB first.
    fn port(&self, index: usize) -> &[String] {
        let end = self
            .offsets
            .get(index + 1)
            .copied()
            .unwrap_or(self.legal.len());
        &self.legal[self.offsets[index]..end]
    }
}

/// Whether two cells' ports have the same names and widths, so one
/// [`PortTable`] serves both.
fn same_interface(a: &Cell, b: &Cell) -> bool {
    a.ports().len() == b.ports().len()
        && a.ports()
            .iter()
            .zip(b.ports())
            .all(|(a, b)| a.spec.name == b.spec.name && a.spec.width == b.spec.width)
}

/// The output text and its current indentation.
#[derive(Default)]
struct Lines {
    text: String,
    indent: usize,
}

impl Lines {
    fn start_line(&mut self) {
        for _ in 0..self.indent {
            self.text.push_str("  ");
        }
    }

    fn line(&mut self, text: &str) {
        self.start_line();
        self.text.push_str(text);
        self.text.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.line(")");
    }
}

struct Emitter<'a> {
    circuit: &'a Circuit,
    out: Lines,
    /// Port tables; all instances of a primitive or black-box type
    /// share their representative's.
    tables: Vec<PortTable>,
    /// Index in `tables` per cell.
    table_of: Vec<usize>,
    /// Def names; all instances of a primitive or black-box type share
    /// one.
    def_names: Vec<String>,
    /// Index in `def_names` per cell.
    def_of: Vec<usize>,
}

impl<'a> Emitter<'a> {
    fn new(circuit: &'a Circuit) -> Self {
        Emitter {
            circuit,
            out: Lines::default(),
            tables: Vec::new(),
            table_of: Vec::with_capacity(circuit.cell_count()),
            def_names: Vec::new(),
            def_of: Vec::with_capacity(circuit.cell_count()),
        }
    }

    /// Opens `(cell name` for a def, with its cell type and view.
    fn open_cell(&mut self, def: usize, type_name: &str) {
        self.out.start_line();
        self.out.text.push_str("(cell ");
        push_named(&mut self.out.text, &self.def_names[def], type_name);
        self.out.text.push('\n');
        self.out.indent += 1;
        self.out.line("(cellType GENERIC)");
        self.out.open("(view netlist");
        self.out.line("(viewType NETLIST)");
    }

    /// Gives the cell a def name and a port table, sharing both with
    /// an earlier instance of the same primitive or black-box type.
    fn assign_names(
        &mut self,
        def_table: &mut NameTable,
        id: CellId,
        rep: Option<CellId>,
        def_source: &str,
    ) {
        debug_assert_eq!(id.index(), self.def_of.len(), "cells come in index order");
        let cell = self.circuit.cell(id);
        match rep {
            Some(rep) => {
                self.def_of.push(self.def_of[rep.index()]);
                let table = if same_interface(cell, self.circuit.cell(rep)) {
                    self.table_of[rep.index()]
                } else {
                    self.tables.push(PortTable::new(cell));
                    self.tables.len() - 1
                };
                self.table_of.push(table);
            }
            None => {
                self.def_of.push(self.def_names.len());
                self.def_names
                    .push(def_table.legalize(def_source).to_owned());
                self.table_of.push(self.tables.len());
                self.tables.push(PortTable::new(cell));
            }
        }
    }

    fn emit(mut self) -> String {
        let circuit = self.circuit;
        // Assign def names and port tables, cell by cell.
        let mut def_table = NameTable::new(Dialect::Edif);
        let mut prim_defs: Vec<CellId> = Vec::new();
        let mut bbox_defs: Vec<CellId> = Vec::new();
        let mut seen_prims: HashMap<&str, CellId> = HashMap::new();
        let mut seen_bbox: HashMap<&str, CellId> = HashMap::new();
        for id in circuit.cell_ids() {
            let cell = circuit.cell(id);
            // Instances of one primitive or black-box type share a def.
            let (source, shared) = match cell.kind() {
                CellKind::Primitive(p) => {
                    (p.name.as_str(), Some((&mut seen_prims, &mut prim_defs)))
                }
                CellKind::BlackBox => (cell.type_name(), Some((&mut seen_bbox, &mut bbox_defs))),
                CellKind::Composite => (cell.type_name(), None),
            };
            let rep = shared.and_then(|(seen, defs)| {
                let rep = *seen.entry(source).or_insert(id);
                if rep == id {
                    defs.push(id);
                    None
                } else {
                    Some(rep)
                }
            });
            self.assign_names(&mut def_table, id, rep, source);
        }
        self.out.text.reserve(256 * circuit.cell_count());

        let top = def_table.legalize(circuit.name()).to_owned();
        self.out.open(&format!("(edif {top}"));
        self.out.line("(edifVersion 2 0 0)");
        self.out.line("(edifLevel 0)");
        self.out.line("(keywordMap (keywordLevel 0))");
        self.out
            .line("(status (written (timeStamp 2002 6 10 0 0 0) (program \"ipd-netlist\")))");

        // External technology library, then the hidden library for
        // protected black boxes.
        for (header, reps) in [
            ("(external virtex", prim_defs),
            ("(external hidden", bbox_defs),
        ] {
            if reps.is_empty() {
                continue;
            }
            self.out.open(header);
            self.out.line("(edifLevel 0)");
            self.out.line("(technology (numberDefinition))");
            for rep in reps {
                self.emit_interface_only_cell(rep);
            }
            self.out.close();
        }

        // Work library: composite defs, children before parents.
        self.out.open("(library work");
        self.out.line("(edifLevel 0)");
        self.out.line("(technology (numberDefinition))");
        let mut order = Vec::new();
        post_order(circuit, circuit.root(), &mut order);
        for id in order {
            if circuit.cell(id).kind().is_composite() {
                self.emit_composite_cell(id);
            }
        }
        self.out.close();

        let topdef = &self.def_names[self.def_of[circuit.root().index()]];
        self.out.line(&format!(
            "(design {top} (cellRef {topdef} (libraryRef work)))"
        ));
        self.out.close();
        self.out.text
    }

    /// Writes the `(interface ...)` of a cell: one port per bit.
    fn emit_interface(&mut self, id: CellId) {
        let cell = self.circuit.cell(id);
        let table = &self.tables[self.table_of[id.index()]];
        self.out.open("(interface");
        let mut source = String::new();
        for (index, port) in cell.ports().iter().enumerate() {
            for (bit, legal) in (0..).zip(table.port(index)) {
                source.clear();
                push_bit_source(&mut source, &port.spec.name, bit, port.spec.width);
                self.out.start_line();
                self.out.text.push_str("(port ");
                push_named(&mut self.out.text, legal, &source);
                self.out.text.push_str(" (direction ");
                self.out.text.push_str(dir_keyword(port.spec.dir));
                self.out.text.push_str("))\n");
            }
        }
        self.out.close();
    }

    fn emit_interface_only_cell(&mut self, rep: CellId) {
        self.open_cell(self.def_of[rep.index()], self.circuit.cell(rep).type_name());
        self.emit_interface(rep);
        self.out.close(); // view
        self.out.close(); // cell
    }

    fn emit_composite_cell(&mut self, id: CellId) {
        let circuit = self.circuit;
        let cell = circuit.cell(id);
        self.open_cell(self.def_of[id.index()], cell.type_name());
        self.emit_interface(id);
        // Contents.
        self.out.open("(contents");
        let mut inst_table = NameTable::new(Dialect::Edif);
        let mut inst_names: Vec<String> = Vec::with_capacity(cell.children().len());
        for &child in cell.children() {
            let child_cell = circuit.cell(child);
            let iname = inst_table.legalize(child_cell.name()).to_owned();
            let lib = match child_cell.kind() {
                CellKind::Primitive(_) => "virtex",
                CellKind::BlackBox => "hidden",
                CellKind::Composite => "work",
            };
            self.out.start_line();
            self.out.text.push_str("(instance ");
            push_named(&mut self.out.text, &iname, child_cell.name());
            let child_def = &self.def_names[self.def_of[child.index()]];
            let _ = write!(
                self.out.text,
                " (viewRef netlist (cellRef {child_def} (libraryRef {lib})))"
            );
            if let CellKind::Primitive(p) = child_cell.kind() {
                if let Some(init) = p.init {
                    let _ = write!(self.out.text, " (property INIT (string \"{init:X}\"))");
                }
            }
            if let Some(rloc) = child_cell.rloc() {
                let _ = write!(self.out.text, " (property RLOC (string \"{rloc}\"))");
            }
            self.out.text.push_str(")\n");
            inst_names.push(iname);
        }
        // Connectivity: every port bit that joins a wire bit, as
        // `(wire bit, port bit's legal name, instance)`, in the order the
        // nets list them: the cell's own ports through their inner
        // wires, then child ports through their outer bindings.
        let mut pins: Vec<((WireId, u32), &str, Option<&str>)> = Vec::new();
        let own = &self.tables[self.table_of[id.index()]];
        for (index, port) in cell.ports().iter().enumerate() {
            let Some(inner) = port.inner else { continue };
            for (bit, legal) in (0..).zip(own.port(index)) {
                pins.push(((inner, bit), legal, None));
            }
        }
        for (&child, iname) in cell.children().iter().zip(&inst_names) {
            let table = &self.tables[self.table_of[child.index()]];
            for (index, port) in circuit.cell(child).ports().iter().enumerate() {
                let Some(outer) = port.outer.as_ref() else {
                    continue;
                };
                for (wire_bit, legal) in outer.bits().zip(table.port(index)) {
                    pins.push((wire_bit, legal, Some(iname)));
                }
            }
        }
        // One net per wire bit of this scope, in wire-id then bit
        // order; the stable sort keeps each net's pins in the order
        // above.
        pins.sort_by_key(|&(wire_bit, _, _)| wire_bit);
        let mut net_table = NameTable::new(Dialect::Edif);
        let mut source = String::new();
        for net in pins.chunk_by(|a, b| a.0 == b.0) {
            let (wid, bit) = net[0].0;
            let wire = circuit.wire(wid);
            if wire.scope() != id || bit >= wire.width() {
                continue;
            }
            source.clear();
            push_bit_source(&mut source, wire.name(), bit, wire.width());
            self.out.start_line();
            self.out.text.push_str("(net ");
            push_named(&mut self.out.text, net_table.legalize(&source), &source);
            self.out.text.push_str(" (joined");
            for &(_, legal, instance) in net {
                self.out.text.push_str(" (portRef ");
                self.out.text.push_str(legal);
                if let Some(instance) = instance {
                    self.out.text.push_str(" (instanceRef ");
                    self.out.text.push_str(instance);
                    self.out.text.push(')');
                }
                self.out.text.push(')');
            }
            self.out.text.push_str("))\n");
        }
        self.out.close(); // contents
        self.out.close(); // view
        self.out.close(); // cell
    }
}

fn post_order(circuit: &Circuit, id: CellId, out: &mut Vec<CellId>) {
    for &child in circuit.cell(id).children() {
        post_order(circuit, child, out);
    }
    out.push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexpr::SExpr;
    use ipd_hdl::{FnGenerator, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    fn two_level() -> Circuit {
        let inner = FnGenerator::new(
            "stage",
            vec![PortSpec::input("i", 2), PortSpec::output("o", 1)],
            |ctx| {
                let i = ctx.port("i")?;
                let o = ctx.port("o")?;
                ctx.and2(Signal::bit_of(i, 0), Signal::bit_of(i, 1), o)?;
                Ok(())
            },
        );
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 2)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.instantiate(&inner, "u0", &[("i", a.into()), ("o", y.into())])
            .unwrap();
        c
    }

    #[test]
    fn edif_reparses() {
        let edif = edif_string(&two_level()).expect("emit");
        let tree = SExpr::parse(&edif).expect("parse generated EDIF");
        assert_eq!(tree.head(), Some("edif"));
    }

    #[test]
    fn edif_structure_matches_circuit() {
        let c = two_level();
        let edif = edif_string(&c).expect("emit");
        let tree = SExpr::parse(&edif).expect("parse");
        // One external prim def (and2) + two work defs (stage, top).
        let cells = tree.find_all("cell");
        assert_eq!(cells.len(), 3);
        let instances = tree.find_all("instance");
        assert_eq!(instances.len(), 2); // u0 in top, and2 in stage
                                        // Primitive instance references virtex library.
        let libs: Vec<_> = tree
            .find_all("libraryRef")
            .iter()
            .map(|l| l.item(1).and_then(|n| n.as_str()).unwrap().to_owned())
            .collect();
        assert!(libs.contains(&"virtex".to_owned()));
        assert!(libs.contains(&"work".to_owned()));
        // Design points at top.
        let design = tree.find_all("design");
        assert_eq!(design.len(), 1);
    }

    #[test]
    fn multibit_ports_expand_with_rename() {
        let edif = edif_string(&two_level()).expect("emit");
        assert!(edif.contains("(rename a_0_ \"a[0]\")") || edif.contains("\"a[0]\""));
        let tree = SExpr::parse(&edif).expect("parse");
        let ports = tree.find_all("port");
        // top: a[0], a[1], y ; stage: i[0], i[1], o ; and2: i0, i1, o
        assert_eq!(ports.len(), 9);
    }

    #[test]
    fn init_property_emitted() {
        let mut c = Circuit::new("lut_top");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.lut(0x2, &[a.into()], y).unwrap();
        let edif = edif_string(&c).expect("emit");
        assert!(edif.contains("(property INIT (string \"2\"))"), "{edif}");
    }

    #[test]
    fn nets_join_parent_and_child_ports() {
        let edif = edif_string(&two_level()).expect("emit");
        let tree = SExpr::parse(&edif).expect("parse");
        let nets = tree.find_all("net");
        // stage def: i[0], i[1], o nets; top def: a[0], a[1], y nets.
        assert_eq!(nets.len(), 6);
        for net in nets {
            let joined = net.child("joined").expect("joined");
            assert_ne!(joined.items().len(), 0);
        }
    }

    #[test]
    fn black_box_goes_to_hidden_library() {
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.black_box(
            "secret_ip",
            vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
            "u0",
            &[("i", a.into()), ("o", y.into())],
        )
        .unwrap();
        let edif = edif_string(&c).expect("emit");
        assert!(edif.contains("(external hidden"));
        assert!(edif.contains("secret_ip"));
    }
}
