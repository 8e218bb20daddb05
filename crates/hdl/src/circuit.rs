//! The circuit arena, construction contexts and the [`Generator`] trait.

use std::cell::Cell as Counter;
use std::collections::{HashMap, HashSet};

use crate::cell::{Cell, CellKind, Port, PortDir, PortSpec, Primitive, PropertyValue, Rloc};
use crate::error::{HdlError, Result};
use crate::wire::{Signal, Slice, Wire};
use crate::{CellId, WireId};

/// A hierarchical structural circuit.
///
/// A `Circuit` owns every [`Cell`] and [`Wire`] in an arena and exposes a
/// single root cell. Construction follows JHDL's model: executing a
/// [`Generator`] *is* elaboration — the program instances primitives and
/// child generators into the data structure, and every design aid
/// (simulator, netlister, viewer, estimator) then operates on that
/// structure through an open API.
///
/// # Examples
///
/// Building a full adder out of gates, as in the paper's JHDL listing:
///
/// ```
/// use ipd_hdl::{Circuit, FnGenerator, PortSpec, Primitive};
///
/// # fn main() -> Result<(), ipd_hdl::HdlError> {
/// let full_adder = FnGenerator::new(
///     "full_adder",
///     vec![
///         PortSpec::input("a", 1), PortSpec::input("b", 1), PortSpec::input("ci", 1),
///         PortSpec::output("s", 1), PortSpec::output("co", 1),
///     ],
///     |ctx| {
///         let (a, b, ci) = (ctx.port("a")?, ctx.port("b")?, ctx.port("ci")?);
///         let (s, co) = (ctx.port("s")?, ctx.port("co")?);
///         let t1 = ctx.wire("t1", 1);
///         let t2 = ctx.wire("t2", 1);
///         let t3 = ctx.wire("t3", 1);
///         let and2 = |i: u32| Primitive::new("virtex", "and2");
///         let ports2 = || vec![
///             PortSpec::input("i0", 1), PortSpec::input("i1", 1), PortSpec::output("o", 1),
///         ];
///         ctx.leaf(and2(0), ports2(), "and_ab", &[("i0", a.into()), ("i1", b.into()), ("o", t1.into())])?;
///         ctx.leaf(and2(1), ports2(), "and_aci", &[("i0", a.into()), ("i1", ci.into()), ("o", t2.into())])?;
///         ctx.leaf(and2(2), ports2(), "and_bci", &[("i0", b.into()), ("i1", ci.into()), ("o", t3.into())])?;
///         let ports3 = |n: &str| vec![
///             PortSpec::input("i0", 1), PortSpec::input("i1", 1), PortSpec::input("i2", 1),
///             PortSpec::output("o", 1),
///         ];
///         ctx.leaf(Primitive::new("virtex", "or3"), ports3("or3"), "carry",
///             &[("i0", t1.into()), ("i1", t2.into()), ("i2", t3.into()), ("o", co.into())])?;
///         ctx.leaf(Primitive::new("virtex", "xor3"), ports3("xor3"), "sum",
///             &[("i0", a.into()), ("i1", b.into()), ("i2", ci.into()), ("o", s.into())])?;
///         Ok(())
///     },
/// );
/// let circuit = Circuit::from_generator(&full_adder)?;
/// assert_eq!(circuit.primitive_count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    cells: Vec<Cell>,
    wires: Vec<Wire>,
    /// The names taken in each cell's scope, indexed like `cells`.
    scope_names: Vec<ScopeNames>,
    root: CellId,
}

thread_local! {
    static NAME_PROBES: Counter<u64> = const { Counter::new(0) };
}

/// How many suffixed name candidates (`base_2`, `base_3`, …) this
/// thread has formatted while uniquifying names. Tests read it to
/// check that construction formats about one candidate per suffixed
/// name rather than one per earlier name of the same base.
#[doc(hidden)]
#[must_use]
pub fn name_probes() -> u64 {
    NAME_PROBES.with(Counter::get)
}

/// The names one scope has handed out.
///
/// Names are never freed, so once `base_k` has been tried every
/// `base_j` with `j <= k` is taken. `next_suffix[base]` records the
/// first suffix not yet tried, and [`Circuit::fresh_name`] resumes
/// there: it returns the name a probe from `base_2` upwards would
/// return, without retrying the taken ones.
#[derive(Debug, Clone, Default)]
struct ScopeNames {
    used: HashSet<String>,
    next_suffix: HashMap<String, u32>,
}

impl Circuit {
    /// Creates a circuit with an empty composite root cell.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let root_cell = Cell {
            name: name.clone(),
            type_name: name.clone(),
            parent: None,
            children: Vec::new(),
            kind: CellKind::Composite,
            ports: Vec::new(),
            properties: Default::default(),
            rloc: None,
        };
        Circuit {
            name,
            cells: vec![root_cell],
            wires: Vec::new(),
            scope_names: vec![ScopeNames::default()],
            root: CellId::from_index(0),
        }
    }

    /// Elaborates `generator` as the root of a new circuit.
    ///
    /// The generator's ports become the circuit's primary inputs and
    /// outputs.
    ///
    /// # Errors
    ///
    /// Propagates any construction error raised by the generator.
    pub fn from_generator(generator: &dyn Generator) -> Result<Self> {
        let mut circuit = Circuit::new(generator.type_name());
        let root = circuit.root;
        for spec in generator.ports() {
            circuit.add_port(root, spec)?;
        }
        let mut ctx = CellCtx {
            circuit: &mut circuit,
            cell: root,
        };
        generator.build(&mut ctx)?;
        Ok(circuit)
    }

    /// The circuit (and root cell) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root cell id.
    #[must_use]
    pub fn root(&self) -> CellId {
        self.root
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a wire.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn wire(&self, id: WireId) -> &Wire {
        &self.wires[id.index()]
    }

    /// Number of cells (including the root).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of wires.
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.wires.len()
    }

    /// Iterates over all cell ids in creation order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(CellId::from_index)
    }

    /// Iterates over all wire ids in creation order.
    pub fn wire_ids(&self) -> impl Iterator<Item = WireId> + '_ {
        (0..self.wires.len()).map(WireId::from_index)
    }

    /// Pre-order traversal of the hierarchy from `from`.
    #[must_use]
    pub fn descendants(&self, from: CellId) -> Vec<CellId> {
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(id) = stack.pop() {
            out.push(id);
            let cell = self.cell(id);
            for &child in cell.children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Number of primitive (leaf) cells in the whole circuit.
    #[must_use]
    pub fn primitive_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_primitive()).count()
    }

    /// Maximum hierarchy depth (root = 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        fn walk(c: &Circuit, id: CellId) -> usize {
            1 + c
                .cell(id)
                .children
                .iter()
                .map(|&ch| walk(c, ch))
                .max()
                .unwrap_or(0)
        }
        walk(self, self.root)
    }

    /// The `/`-separated hierarchical path of a cell, rooted at the
    /// circuit name.
    #[must_use]
    pub fn cell_path(&self, id: CellId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            parts.push(self.cell(c).name.clone());
            cur = self.cell(c).parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// The hierarchical path of a wire (`scope-path/wire-name`).
    #[must_use]
    pub fn wire_path(&self, id: WireId) -> String {
        let w = self.wire(id);
        format!("{}/{}", self.cell_path(w.scope), w.name)
    }

    /// A construction context for the root cell.
    #[must_use]
    pub fn root_ctx(&mut self) -> CellCtx<'_> {
        CellCtx {
            cell: self.root,
            circuit: self,
        }
    }

    /// A construction context for an arbitrary composite cell.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::StaleId`] when the cell is not composite.
    pub fn ctx_for(&mut self, cell: CellId) -> Result<CellCtx<'_>> {
        if !self.cell(cell).kind.is_composite() {
            return Err(HdlError::StaleId {
                kind: "composite cell",
            });
        }
        Ok(CellCtx {
            cell,
            circuit: self,
        })
    }

    /// Removes every relative-placement attribute, leaving the
    /// netlist purely logical — the "let the vendor tools place it"
    /// baseline used in placement ablation studies.
    pub fn strip_placement(&mut self) {
        for cell in &mut self.cells {
            cell.rloc = None;
        }
    }

    /// The absolute placement of a cell: the sum of `RLOC`s along its
    /// path, or `None` if the cell itself carries no placement.
    #[must_use]
    pub fn absolute_rloc(&self, id: CellId) -> Option<Rloc> {
        self.cell(id).rloc?;
        let mut acc = Rloc::default();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if let Some(r) = self.cell(c).rloc {
                acc = acc.offset(r);
            }
            cur = self.cell(c).parent;
        }
        Some(acc)
    }

    /// The placement offset contributed by a cell's ancestors alone:
    /// the sum of `RLOC`s strictly above the cell. A placer that wants
    /// a leaf at absolute location `p` while its parents keep their
    /// placement must set the leaf's `RLOC` to `p` minus this offset.
    #[must_use]
    pub fn ancestor_rloc(&self, id: CellId) -> Rloc {
        let mut acc = Rloc::default();
        let mut cur = self.cell(id).parent;
        while let Some(c) = cur {
            if let Some(r) = self.cell(c).rloc {
                acc = acc.offset(r);
            }
            cur = self.cell(c).parent;
        }
        acc
    }

    /// `base` if `scope` has not used it, else the first free
    /// `base_2`, `base_3`, … (JHDL's uniquifying rule).
    fn fresh_name(&mut self, scope: CellId, base: &str) -> String {
        let names = &mut self.scope_names[scope.index()];
        if !names.used.contains(base) {
            names.used.insert(base.to_owned());
            return base.to_owned();
        }
        let next = match names.next_suffix.get_mut(base) {
            Some(next) => next,
            None => names.next_suffix.entry(base.to_owned()).or_insert(2),
        };
        loop {
            // An explicit name such as `t_3` may have taken a suffix
            // the counter has not reached yet, so each candidate is
            // still checked against the used set.
            let candidate = format!("{base}_{next}");
            *next += 1;
            NAME_PROBES.with(|n| n.set(n.get() + 1));
            if !names.used.contains(&candidate) {
                names.used.insert(candidate.clone());
                return candidate;
            }
        }
    }

    fn add_port(&mut self, cell: CellId, spec: PortSpec) -> Result<WireId> {
        if spec.width == 0 {
            return Err(HdlError::InvalidParameter {
                generator: self.cell(cell).type_name.clone(),
                reason: format!("port {} has zero width", spec.name),
            });
        }
        if self.cell(cell).port(&spec.name).is_some() {
            return Err(HdlError::DuplicateName {
                name: spec.name,
                kind: "port",
            });
        }
        let name = self.fresh_name(cell, &spec.name);
        let wire = WireId::from_index(self.wires.len());
        self.wires.push(Wire {
            name,
            width: spec.width,
            scope: cell,
        });
        self.cells[cell.index()].ports.push(Port {
            spec,
            outer: None,
            inner: Some(wire),
        });
        Ok(wire)
    }

    /// Expands the whole-wire sentinel and validates a signal against a
    /// scope and an expected width.
    pub(crate) fn resolve_signal(
        &self,
        scope: CellId,
        sig: &Signal,
        port: &str,
        expected: u32,
    ) -> Result<Signal> {
        let resolve = |seg: &Slice| -> Result<Slice> {
            if seg.wire.index() >= self.wires.len() {
                return Err(HdlError::StaleId { kind: "wire" });
            }
            let wire = self.wire(seg.wire);
            if wire.scope != scope {
                return Err(HdlError::WireOutOfScope {
                    wire: wire.name.clone(),
                    scope: self.cell(scope).name.clone(),
                });
            }
            let hi = if seg.hi == u32::MAX {
                wire.width - 1
            } else {
                seg.hi
            };
            if hi < seg.lo || hi >= wire.width {
                return Err(HdlError::SliceOutOfRange {
                    wire: wire.name.clone(),
                    width: wire.width,
                    hi,
                    lo: seg.lo,
                });
            }
            Ok(Slice {
                wire: seg.wire,
                hi,
                lo: seg.lo,
            })
        };
        let resolved = match sig.segments() {
            [seg] => Signal::from(resolve(seg)?),
            segments => Signal::from_segments(segments.iter().map(resolve).collect::<Result<_>>()?),
        };
        if resolved.width() != expected {
            return Err(HdlError::WidthMismatch {
                port: port.to_owned(),
                expected,
                found: resolved.width(),
            });
        }
        Ok(resolved)
    }

    fn new_cell(
        &mut self,
        parent: CellId,
        name: &str,
        type_name: String,
        kind: CellKind,
    ) -> CellId {
        let unique = self.fresh_name(parent, name);
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell {
            name: unique,
            type_name,
            parent: Some(parent),
            children: Vec::new(),
            kind,
            ports: Vec::new(),
            properties: Default::default(),
            rloc: None,
        });
        self.scope_names.push(ScopeNames::default());
        self.cells[parent.index()].children.push(id);
        id
    }

    fn bind_ports(
        &mut self,
        parent: CellId,
        child: CellId,
        specs: Vec<PortSpec>,
        conns: &[(&str, Signal)],
        make_inner: bool,
    ) -> Result<()> {
        for (name, _) in conns {
            if !specs.iter().any(|s| &s.name == name) {
                return Err(HdlError::UnknownPort {
                    cell: self.cell(child).type_name.clone(),
                    port: (*name).to_owned(),
                });
            }
        }
        self.cells[child.index()].ports.reserve_exact(specs.len());
        for spec in specs {
            let conn = conns.iter().find(|(n, _)| *n == spec.name);
            let outer = match conn {
                Some((_, sig)) => Some(self.resolve_signal(parent, sig, &spec.name, spec.width)?),
                None if spec.dir == PortDir::Input => {
                    return Err(HdlError::UnboundInput {
                        cell: self.cell(child).name.clone(),
                        port: spec.name,
                    });
                }
                None => None,
            };
            let inner = if make_inner {
                let name = self.fresh_name(child, &spec.name);
                let wire = WireId::from_index(self.wires.len());
                self.wires.push(Wire {
                    name,
                    width: spec.width,
                    scope: child,
                });
                Some(wire)
            } else {
                None
            };
            self.cells[child.index()]
                .ports
                .push(Port { spec, outer, inner });
        }
        Ok(())
    }
}

/// A construction context: "the current hierarchy scope".
///
/// `CellCtx` plays the role of JHDL's `this` parent argument — new wires
/// and instances are created inside the context's cell. Obtain one from
/// [`Circuit::root_ctx`] or receive one in [`Generator::build`].
#[derive(Debug)]
pub struct CellCtx<'a> {
    circuit: &'a mut Circuit,
    cell: CellId,
}

impl<'a> CellCtx<'a> {
    /// The cell this context builds into.
    #[must_use]
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Read access to the whole circuit under construction.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Creates a wire of `width` bits in this scope.
    ///
    /// The name is uniquified with a numeric suffix on collision, as in
    /// JHDL.
    pub fn wire(&mut self, name: &str, width: u32) -> WireId {
        assert!(width > 0, "wires must be at least one bit wide");
        let unique = self.circuit.fresh_name(self.cell, name);
        let id = WireId::from_index(self.circuit.wires.len());
        self.circuit.wires.push(Wire {
            name: unique,
            width,
            scope: self.cell,
        });
        id
    }

    /// Adds a port to this cell and returns its inner wire.
    ///
    /// Useful when assembling a top level by hand instead of through a
    /// [`Generator`].
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::DuplicateName`] if the port exists, or
    /// [`HdlError::InvalidParameter`] for zero-width ports.
    pub fn add_port(&mut self, spec: PortSpec) -> Result<WireId> {
        self.circuit.add_port(self.cell, spec)
    }

    /// The inner wire representing the named port of this cell.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::UnknownPort`] when no such port exists.
    pub fn port(&self, name: &str) -> Result<WireId> {
        let cell = self.circuit.cell(self.cell);
        cell.port(name)
            .and_then(|p| p.inner)
            .ok_or_else(|| HdlError::UnknownPort {
                cell: cell.type_name.clone(),
                port: name.to_owned(),
            })
    }

    /// Instances a child generator, binding its ports to signals of this
    /// scope, then runs its `build`. Returns the new cell.
    ///
    /// # Errors
    ///
    /// Fails when a connection names an unknown port, widths mismatch,
    /// an input is unbound, a bound wire is out of scope, or the child
    /// generator itself fails.
    pub fn instantiate(
        &mut self,
        generator: &dyn Generator,
        name: &str,
        conns: &[(&str, Signal)],
    ) -> Result<CellId> {
        let child =
            self.circuit
                .new_cell(self.cell, name, generator.type_name(), CellKind::Composite);
        self.circuit
            .bind_ports(self.cell, child, generator.ports(), conns, true)?;
        let mut ctx = CellCtx {
            circuit: self.circuit,
            cell: child,
        };
        generator.build(&mut ctx)?;
        Ok(child)
    }

    /// Instances a technology primitive (leaf cell).
    ///
    /// The caller supplies the primitive's port interface; technology
    /// libraries wrap this in typed helpers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CellCtx::instantiate`], minus child build.
    pub fn leaf(
        &mut self,
        primitive: Primitive,
        ports: Vec<PortSpec>,
        name: &str,
        conns: &[(&str, Signal)],
    ) -> Result<CellId> {
        let type_name = primitive.name.clone();
        let child =
            self.circuit
                .new_cell(self.cell, name, type_name, CellKind::Primitive(primitive));
        self.circuit
            .bind_ports(self.cell, child, ports, conns, false)?;
        Ok(child)
    }

    /// Instances an interface-only black box (protected IP).
    ///
    /// # Errors
    ///
    /// Same binding conditions as [`CellCtx::instantiate`].
    pub fn black_box(
        &mut self,
        type_name: &str,
        ports: Vec<PortSpec>,
        name: &str,
        conns: &[(&str, Signal)],
    ) -> Result<CellId> {
        let child =
            self.circuit
                .new_cell(self.cell, name, type_name.to_owned(), CellKind::BlackBox);
        self.circuit
            .bind_ports(self.cell, child, ports, conns, false)?;
        Ok(child)
    }

    /// Sets the relative placement of a direct or indirect child (or of
    /// this cell itself).
    pub fn set_rloc(&mut self, cell: CellId, rloc: Rloc) {
        self.circuit.cells[cell.index()].rloc = Some(rloc);
    }

    /// Attaches a property to this cell.
    pub fn set_property(&mut self, key: impl Into<String>, value: impl Into<PropertyValue>) {
        self.circuit.cells[self.cell.index()]
            .properties
            .insert(key.into(), value.into());
    }

    /// Attaches a property to any cell.
    pub fn set_property_on(
        &mut self,
        cell: CellId,
        key: impl Into<String>,
        value: impl Into<PropertyValue>,
    ) {
        self.circuit.cells[cell.index()]
            .properties
            .insert(key.into(), value.into());
    }
}

/// A parameterizable module generator.
///
/// Implementations are ordinary value types whose fields are the
/// generator parameters; `build` executes the construction program. This
/// is the Rust rendering of a JHDL module-generator class constructor.
///
/// # Examples
///
/// See [`Circuit::from_generator`] and the `ipd-modgen` crate, which
/// ships the paper's constant-coefficient multiplier among many others.
pub trait Generator {
    /// The definition name for instances of this generator, ideally
    /// encoding the parameters (e.g. `"kcm_w8_p12_c-56"`).
    fn type_name(&self) -> String;

    /// The port interface exposed to the instantiating scope.
    fn ports(&self) -> Vec<PortSpec>;

    /// Constructs the generator's internals inside `ctx`.
    ///
    /// # Errors
    ///
    /// Implementations should return [`HdlError::InvalidParameter`] for
    /// unbuildable parameter combinations and propagate construction
    /// errors otherwise.
    fn build(&self, ctx: &mut CellCtx<'_>) -> Result<()>;
}

/// A [`Generator`] assembled from closures; convenient in tests and
/// examples.
pub struct FnGenerator<F>
where
    F: Fn(&mut CellCtx<'_>) -> Result<()>,
{
    type_name: String,
    ports: Vec<PortSpec>,
    build: F,
}

impl<F> FnGenerator<F>
where
    F: Fn(&mut CellCtx<'_>) -> Result<()>,
{
    /// Wraps a name, interface and build closure into a generator.
    pub fn new(type_name: impl Into<String>, ports: Vec<PortSpec>, build: F) -> Self {
        FnGenerator {
            type_name: type_name.into(),
            ports,
            build,
        }
    }
}

impl<F> std::fmt::Debug for FnGenerator<F>
where
    F: Fn(&mut CellCtx<'_>) -> Result<()>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnGenerator")
            .field("type_name", &self.type_name)
            .field("ports", &self.ports.len())
            .finish()
    }
}

impl<F> Generator for FnGenerator<F>
where
    F: Fn(&mut CellCtx<'_>) -> Result<()>,
{
    fn type_name(&self) -> String {
        self.type_name.clone()
    }

    fn ports(&self) -> Vec<PortSpec> {
        self.ports.clone()
    }

    fn build(&self, ctx: &mut CellCtx<'_>) -> Result<()> {
        (self.build)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_ports() -> Vec<PortSpec> {
        vec![PortSpec::input("i", 1), PortSpec::output("o", 1)]
    }

    fn buf_prim() -> Primitive {
        Primitive::new("virtex", "buf")
    }

    #[test]
    fn empty_circuit_has_root() {
        let c = Circuit::new("top");
        assert_eq!(c.cell_count(), 1);
        assert_eq!(c.cell(c.root()).name(), "top");
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn wires_are_uniquified() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let a = ctx.wire("t", 1);
        let b = ctx.wire("t", 1);
        assert_eq!(c.wire(a).name(), "t");
        assert_eq!(c.wire(b).name(), "t_2");
    }

    #[test]
    fn leaf_binding_checks_widths() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let w8 = ctx.wire("bus", 8);
        let err = ctx
            .leaf(
                buf_prim(),
                buf_ports(),
                "b0",
                &[("i", w8.into()), ("o", w8.into())],
            )
            .unwrap_err();
        assert!(matches!(err, HdlError::WidthMismatch { .. }));
    }

    #[test]
    fn leaf_binding_accepts_slices() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let w8 = ctx.wire("bus", 8);
        let o = ctx.wire("o", 1);
        ctx.leaf(
            buf_prim(),
            buf_ports(),
            "b0",
            &[("i", Signal::bit_of(w8, 3)), ("o", o.into())],
        )
        .expect("slice binding");
        assert_eq!(c.primitive_count(), 1);
    }

    #[test]
    fn unbound_input_is_an_error() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let o = ctx.wire("o", 1);
        let err = ctx
            .leaf(buf_prim(), buf_ports(), "b0", &[("o", o.into())])
            .unwrap_err();
        assert!(matches!(err, HdlError::UnboundInput { .. }));
    }

    #[test]
    fn unbound_output_is_allowed() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        ctx.leaf(buf_prim(), buf_ports(), "b0", &[("i", i.into())])
            .expect("dangling output ok");
    }

    #[test]
    fn unknown_port_is_an_error() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let err = ctx
            .leaf(buf_prim(), buf_ports(), "b0", &[("nope", i.into())])
            .unwrap_err();
        assert!(matches!(err, HdlError::UnknownPort { .. }));
    }

    #[test]
    fn out_of_scope_wire_rejected() {
        let inner = FnGenerator::new("inner", vec![PortSpec::input("i", 1)], |_ctx| Ok(()));
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let child = ctx.instantiate(&inner, "u0", &[("i", i.into())]).unwrap();
        // Try to use the top-level wire from inside the child scope.
        let mut child_ctx = c.ctx_for(child).unwrap();
        let err = child_ctx
            .leaf(
                buf_prim(),
                buf_ports(),
                "b0",
                &[("i", i.into()), ("o", i.into())],
            )
            .unwrap_err();
        assert!(matches!(err, HdlError::WireOutOfScope { .. }));
    }

    #[test]
    fn slice_out_of_range_rejected() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let w4 = ctx.wire("w", 4);
        let o = ctx.wire("o", 1);
        let err = ctx
            .leaf(
                buf_prim(),
                buf_ports(),
                "b0",
                &[("i", Signal::bit_of(w4, 9)), ("o", o.into())],
            )
            .unwrap_err();
        assert!(matches!(err, HdlError::SliceOutOfRange { .. }));
    }

    #[test]
    fn hierarchy_paths() {
        let inner = FnGenerator::new("inner", vec![PortSpec::input("i", 1)], |ctx| {
            let i = ctx.port("i")?;
            ctx.leaf(
                Primitive::new("virtex", "buf"),
                vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
                "b0",
                &[("i", i.into())],
            )?;
            Ok(())
        });
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let child = ctx.instantiate(&inner, "u0", &[("i", i.into())]).unwrap();
        assert_eq!(c.cell_path(child), "top/u0");
        let leaf = c.cell(child).children()[0];
        assert_eq!(c.cell_path(leaf), "top/u0/b0");
        assert_eq!(c.depth(), 3);
        assert_eq!(c.descendants(c.root()).len(), 3);
    }

    #[test]
    fn absolute_rloc_accumulates() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let inner = FnGenerator::new("inner", vec![PortSpec::input("i", 1)], |ctx| {
            let i = ctx.port("i")?;
            let leaf = ctx.leaf(
                Primitive::new("virtex", "buf"),
                vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
                "b0",
                &[("i", i.into())],
            )?;
            ctx.set_rloc(leaf, Rloc::new(1, 1));
            Ok(())
        });
        let child = ctx.instantiate(&inner, "u0", &[("i", i.into())]).unwrap();
        ctx.set_rloc(child, Rloc::new(2, 3));
        let leaf = c.cell(child).children()[0];
        assert_eq!(c.absolute_rloc(leaf), Some(Rloc::new(3, 4)));
        // The composite itself is placed at (2,3).
        assert_eq!(c.absolute_rloc(child), Some(Rloc::new(2, 3)));
        // Unplaced cells report None.
        assert_eq!(c.absolute_rloc(c.root()), None);
        // The ancestor offset excludes the leaf's own RLOC and is
        // defined even for unplaced cells.
        assert_eq!(c.ancestor_rloc(leaf), Rloc::new(2, 3));
        assert_eq!(c.ancestor_rloc(child), Rloc::default());
        assert_eq!(c.ancestor_rloc(c.root()), Rloc::default());
    }

    #[test]
    fn generator_ports_become_primary_io() {
        let passthrough = FnGenerator::new(
            "pass",
            vec![PortSpec::input("i", 2), PortSpec::output("o", 2)],
            |ctx| {
                let i = ctx.port("i")?;
                let o = ctx.port("o")?;
                for b in 0..2 {
                    ctx.leaf(
                        Primitive::new("virtex", "buf"),
                        vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
                        &format!("b{b}"),
                        &[("i", Signal::bit_of(i, b)), ("o", Signal::bit_of(o, b))],
                    )?;
                }
                Ok(())
            },
        );
        let c = Circuit::from_generator(&passthrough).expect("build");
        assert_eq!(c.cell(c.root()).ports().len(), 2);
        assert_eq!(c.primitive_count(), 2);
    }

    #[test]
    fn instance_names_uniquify() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let a = ctx
            .leaf(buf_prim(), buf_ports(), "b", &[("i", i.into())])
            .unwrap();
        let b = ctx
            .leaf(buf_prim(), buf_ports(), "b", &[("i", i.into())])
            .unwrap();
        assert_eq!(c.cell(a).name(), "b");
        assert_eq!(c.cell(b).name(), "b_2");
    }

    #[test]
    fn properties_round_trip() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        ctx.set_property("vendor", "byu");
        ctx.set_property("constant", -56i64);
        let root = c.root();
        assert_eq!(
            c.cell(root).properties().get("vendor"),
            Some(&PropertyValue::Text("byu".into()))
        );
        assert_eq!(
            c.cell(root).properties().get("constant"),
            Some(&PropertyValue::Int(-56))
        );
    }
}

#[cfg(test)]
mod strip_tests {
    use super::*;
    use crate::cell::{PortSpec, Primitive, Rloc};

    #[test]
    fn strip_placement_clears_every_rloc() {
        let mut c = Circuit::new("top");
        let mut ctx = c.root_ctx();
        let i = ctx.wire("i", 1);
        let leaf = ctx
            .leaf(
                Primitive::new("virtex", "buf"),
                vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
                "b0",
                &[("i", i.into())],
            )
            .unwrap();
        ctx.set_rloc(leaf, Rloc::new(3, 4));
        assert!(c.absolute_rloc(leaf).is_some());
        c.strip_placement();
        assert!(c.absolute_rloc(leaf).is_none());
        assert!(c.cell_ids().all(|id| c.cell(id).rloc().is_none()));
    }
}
