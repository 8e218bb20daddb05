//! EDIF import: reconstructing a [`Circuit`] from netlist text.
//!
//! JHDL's interchange story runs both ways — netlists generated by an
//! applet are "imported into a user's conventional design environment".
//! This reader consumes the EDIF subset the sibling writer emits
//! (external primitive libraries, hierarchical `work` cells, `rename`
//! aliases, `INIT`/`RLOC` instance properties) and rebuilds a live
//! circuit that simulates, estimates and netlists like the original.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

use ipd_hdl::{CellCtx, Circuit, FnGenerator, PortDir, PortSpec, Primitive, Rloc, Signal, WireId};
use ipd_techlib::LogicCtx;

use crate::error::NetlistError;
use crate::sexpr::{SExpr, SNode};

/// Reconstructs a circuit from EDIF text.
///
/// # Errors
///
/// Returns [`NetlistError::ParseEdif`] for syntax errors or EDIF
/// constructs outside the supported subset (which covers everything
/// [`edif_string`](crate::edif_string) produces).
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Circuit, PortSpec};
/// use ipd_netlist::{edif_string, read_edif};
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("top");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 1))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// ctx.inv(a, y)?;
///
/// let text = edif_string(&circuit)?;
/// let back = read_edif(&text)?;
/// assert_eq!(back.primitive_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn read_edif(text: &str) -> Result<Circuit, NetlistError> {
    let doc = SExpr::parse(text)?;
    let tree = doc.root();
    if tree.head() != Some("edif") {
        return Err(err(0, "top-level form is not (edif ...)"));
    }
    let mut defs: HashMap<&str, Def<'_>> = HashMap::new();
    for node in tree.items() {
        match node.head() {
            Some("external") | Some("library") => {
                let lib = node
                    .name()
                    .ok_or_else(|| err(0, "library without a name"))?;
                let external = node.head() == Some("external");
                for cell in node.items() {
                    if cell.head() == Some("cell") {
                        let def = parse_cell(cell, lib, external)?;
                        defs.insert(def.name, def);
                    }
                }
            }
            _ => {}
        }
    }
    let design = tree
        .child("design")
        .ok_or_else(|| err(0, "missing (design ...)"))?;
    let top_ref = design
        .child("cellRef")
        .and_then(SNode::name)
        .ok_or_else(|| err(0, "design without cellRef"))?;
    let design_name = design.name().unwrap_or(top_ref);
    let Some(top) = defs.get(top_ref) else {
        return Err(err(0, &format!("design references unknown cell {top_ref}")));
    };
    check_hierarchy(top, &defs)?;

    let mut circuit = Circuit::new(design_name);
    let mut ctx = circuit.root_ctx();
    let mut port_bits = HashMap::new();
    for group in top.groups()? {
        let wire = ctx
            .add_port(PortSpec::new(group.base, group.dir, group.width))
            .map_err(|e| err(0, &format!("top port {}: {e}", group.base)))?;
        for (bit, legal) in group.legal_names.iter().enumerate() {
            port_bits.insert(*legal, (wire, bit as u32));
        }
    }
    populate(&mut ctx, top, &defs, &port_bits)?;
    Ok(circuit)
}

/// Deepest composite hierarchy [`read_edif`] builds, counting the top
/// cell. The EDIF writer's designs nest about ten levels; the cap only
/// stops hostile input from exhausting the stack of the recursive
/// [`populate`].
const MAX_HIERARCHY: usize = 64;

/// Most cells [`read_edif`] builds once the hierarchy is expanded,
/// counting the top cell. A cell that instantiates the next one twice
/// doubles the count per level, so a file of a few kilobytes can
/// describe billions of cells. The largest generator output measured,
/// a 64-tap 16-bit FIR filter with random coefficients, expands to
/// about 25,000 cells (7.7 MB of EDIF); 2^20 is over 40 times that, so
/// the cap only stops hostile input from exhausting memory.
const MAX_CELLS: u64 = 1 << 20;

fn err(offset: usize, message: &str) -> NetlistError {
    NetlistError::ParseEdif {
        offset,
        message: message.to_owned(),
    }
}

/// A parsed cell definition; names borrow from the EDIF text.
#[derive(Debug)]
struct Def<'a> {
    lib: &'a str,
    name: &'a str,
    external: bool,
    /// The direction of each legal port-bit name, from its first
    /// declaration.
    port_dirs: HashMap<&'a str, PortDir>,
    /// The bit ports regrouped into buses, or why they do not regroup.
    /// Built once per definition; the error surfaces only when the
    /// definition is used.
    groups: Result<Vec<PortGroup<'a>>, String>,
    instances: Vec<Inst<'a>>,
    /// Every instance's pins as `(port, net)`, one run per instance
    /// ordered by port and then by net; [`Inst::pins`] is the run's
    /// range.
    pins: Vec<(&'a str, usize)>,
    nets: Vec<Net<'a>>,
}

impl<'a> Def<'a> {
    fn groups(&self) -> Result<&[PortGroup<'a>], NetlistError> {
        self.groups.as_deref().map_err(|message| err(0, message))
    }
}

#[derive(Debug)]
struct DefPort<'a> {
    /// Legal EDIF identifier (`a_0_`).
    legal: &'a str,
    /// Original name (`a[0]`), from `rename` when present.
    original: &'a str,
    dir: PortDir,
}

#[derive(Debug)]
struct Inst<'a> {
    name: &'a str,
    def_ref: &'a str,
    init: Option<u64>,
    rloc: Option<Rloc>,
    /// This instance's run of [`Def::pins`].
    pins: Range<usize>,
}

#[derive(Debug)]
struct Net<'a> {
    /// The cell's own ports the net joins.
    own_ports: Vec<&'a str>,
}

/// Extracts `(legal, original)` from a named construct.
fn both_names<'a>(node: SNode<'_, 'a>) -> Option<(&'a str, &'a str)> {
    let named = node.item(1)?;
    if let Some(atom) = named.as_atom() {
        return Some((atom, atom));
    }
    if named.head() != Some("rename") {
        return None;
    }
    let legal = named.item(1)?.as_atom()?;
    let orig = named.item(2)?.as_literal()?;
    Some((legal, orig))
}

fn parse_cell<'a>(
    cell: SNode<'_, 'a>,
    lib: &'a str,
    external: bool,
) -> Result<Def<'a>, NetlistError> {
    let name = cell.name().ok_or_else(|| err(0, "cell without a name"))?;
    let view = cell
        .child("view")
        .ok_or_else(|| err(0, &format!("cell {name} without a view")))?;
    let interface = view
        .child("interface")
        .ok_or_else(|| err(0, &format!("cell {name} without an interface")))?;
    let mut ports = Vec::new();
    for port in interface.items() {
        if port.head() != Some("port") {
            continue;
        }
        let (legal, original) =
            both_names(port).ok_or_else(|| err(0, &format!("unnamed port in {name}")))?;
        let dir = match port
            .child("direction")
            .and_then(|d| d.item(1))
            .and_then(SNode::as_str)
        {
            Some("INPUT") => PortDir::Input,
            Some("OUTPUT") => PortDir::Output,
            Some("INOUT") => PortDir::Inout,
            other => {
                return Err(err(
                    0,
                    &format!("port {legal} in {name}: bad direction {other:?}"),
                ))
            }
        };
        ports.push(DefPort {
            legal,
            original,
            dir,
        });
    }
    let mut instances = Vec::new();
    let mut nets = Vec::new();
    // `(instance, port, net)` for every instance pin a net joins.
    let mut joins = Vec::new();
    if let Some(contents) = view.child("contents") {
        for item in contents.items() {
            match item.head() {
                Some("instance") => {
                    let (iname, _orig) = both_names(item)
                        .ok_or_else(|| err(0, &format!("unnamed instance in {name}")))?;
                    let def_ref = item
                        .child("viewRef")
                        .and_then(|v| v.child("cellRef"))
                        .and_then(SNode::name)
                        .ok_or_else(|| {
                            err(0, &format!("instance {iname} in {name}: missing cellRef"))
                        })?;
                    let mut init = None;
                    let mut rloc = None;
                    for prop in item.items() {
                        if prop.head() != Some("property") {
                            continue;
                        }
                        let key = prop.name().unwrap_or("");
                        let value = prop
                            .child("string")
                            .and_then(|s| s.item(1))
                            .and_then(SNode::as_str)
                            .unwrap_or("");
                        match key {
                            "INIT" => {
                                init = u64::from_str_radix(value, 16).ok();
                            }
                            "RLOC" => {
                                rloc = parse_rloc(value);
                            }
                            _ => {}
                        }
                    }
                    instances.push(Inst {
                        name: iname,
                        def_ref,
                        init,
                        rloc,
                        pins: 0..0,
                    });
                }
                Some("net") => {
                    let joined = item
                        .child("joined")
                        .ok_or_else(|| err(0, &format!("net without joined in {name}")))?;
                    let mut own_ports = Vec::new();
                    for port_ref in joined.items() {
                        if port_ref.head() != Some("portRef") {
                            continue;
                        }
                        let port = port_ref
                            .item(1)
                            .and_then(SNode::as_str)
                            .ok_or_else(|| err(0, "portRef without a port"))?;
                        match port_ref.child("instanceRef").and_then(SNode::name) {
                            Some(instance) => joins.push((instance, port, nets.len())),
                            None => own_ports.push(port),
                        }
                    }
                    nets.push(Net { own_ports });
                }
                _ => {}
            }
        }
    }
    let mut port_dirs = HashMap::with_capacity(ports.len());
    for port in &ports {
        port_dirs.entry(port.legal).or_insert(port.dir);
    }
    let pins = resolve_pins(&mut instances, joins);
    Ok(Def {
        lib,
        name,
        external,
        groups: group_ports(&ports),
        port_dirs,
        instances,
        pins,
        nets,
    })
}

/// Gathers the `(instance, port, net)` joins into one run of
/// `(port, net)` per instance, ordered by port and then by net, and sets
/// each instance's range. A join names its instance only by name, so
/// instances sharing a name share one run, and a join naming no
/// instance is dropped.
fn resolve_pins<'a>(
    instances: &mut [Inst<'a>],
    joins: Vec<(&'a str, &'a str, usize)>,
) -> Vec<(&'a str, usize)> {
    // Each name's run belongs to the first instance of that name.
    let mut first_of = HashMap::with_capacity(instances.len());
    let owners: Vec<usize> = (0..instances.len())
        .map(|k| *first_of.entry(instances[k].name).or_insert(k))
        .collect();
    let joins: Vec<(usize, &str, usize)> = joins
        .into_iter()
        .filter_map(|(instance, port, net)| Some((*first_of.get(instance)?, port, net)))
        .collect();
    // A counting sort by owner keeps each run in net order, and the
    // stable sort by port keeps it within a port. Runs are a handful
    // of pins, so this costs less than sorting every pin at once.
    let mut counts = vec![0; instances.len()];
    for &(owner, _, _) in &joins {
        counts[owner] += 1;
    }
    let mut start = 0;
    let mut runs: Vec<Range<usize>> = counts
        .into_iter()
        .map(|count| {
            start += count;
            start - count..start - count
        })
        .collect();
    let mut pins = vec![("", 0); joins.len()];
    for (owner, port, net) in joins {
        let run = &mut runs[owner];
        pins[run.end] = (port, net);
        run.end += 1;
    }
    for run in &runs {
        pins[run.clone()].sort_by_key(|&(port, _)| port);
    }
    for (inst, owner) in instances.iter_mut().zip(owners) {
        inst.pins = runs[owner].clone();
    }
    pins
}

fn parse_rloc(text: &str) -> Option<Rloc> {
    // Format "R{row}C{col}".
    let rest = text.strip_prefix('R')?;
    let c_pos = rest.find('C')?;
    let row = rest[..c_pos].parse().ok()?;
    let col = rest[c_pos + 1..].parse().ok()?;
    Some(Rloc::new(row, col))
}

/// A multi-bit port reassembled from expanded bit ports.
#[derive(Debug)]
struct PortGroup<'a> {
    base: &'a str,
    dir: PortDir,
    width: u32,
    /// Legal bit-port names, LSB first.
    legal_names: Vec<&'a str>,
}

/// Groups `a[0]…a[n-1]` (by original name) back into one port `a`.
fn group_ports<'a>(ports: &[DefPort<'a>]) -> Result<Vec<PortGroup<'a>>, String> {
    let mut groups: Vec<PortGroup<'a>> = Vec::new();
    for port in ports {
        let (base, index) = split_indexed(port.original);
        match groups.iter_mut().find(|g| g.base == base) {
            None => {
                if index.unwrap_or(0) != 0 {
                    return Err(format!("port {} does not start at bit 0", port.original));
                }
                groups.push(PortGroup {
                    base,
                    dir: port.dir,
                    width: 1,
                    legal_names: vec![port.legal],
                });
            }
            Some(group) => {
                if group.dir != port.dir {
                    return Err(format!("port {} mixes directions", port.original));
                }
                if index != Some(group.width) {
                    return Err(format!("port {} bits are not contiguous", port.original));
                }
                group.width += 1;
                group.legal_names.push(port.legal);
            }
        }
    }
    Ok(groups)
}

/// Splits `a[3]` into `("a", Some(3))`; plain names get `None`.
fn split_indexed(name: &str) -> (&str, Option<u32>) {
    if let Some(open) = name.rfind('[') {
        if name.ends_with(']') {
            if let Ok(index) = name[open + 1..name.len() - 1].parse() {
                return (&name[..open], Some(index));
            }
        }
    }
    (name, None)
}

/// Rejects a `work` hierarchy that [`populate`] could not finish: a
/// cell that instantiates itself, directly or through other cells,
/// composites nested more than [`MAX_HIERARCHY`] deep, or a hierarchy
/// that expands to more than [`MAX_CELLS`] cells. A depth-first walk
/// with an explicit stack, so the check itself cannot overflow; each
/// definition's height and expanded cell count are kept, so shared
/// definitions are walked once.
fn check_hierarchy(top: &Def<'_>, defs: &HashMap<&str, Def<'_>>) -> Result<(), NetlistError> {
    let too_deep = || {
        err(
            0,
            &format!("cell hierarchy nests deeper than {MAX_HIERARCHY} levels"),
        )
    };
    // `None` while a definition is on the walk's path, then its height
    // in levels and its cell count, itself included.
    let mut done: HashMap<&str, Option<(usize, u64)>> = HashMap::new();
    done.insert(top.name, None);
    // (definition, next instance to visit, height so far, cells so far)
    let mut path = vec![(top, 0, 1, 1u64)];
    while let Some((def, next, height, cells)) = path.last_mut() {
        let Some(inst) = def.instances.get(*next) else {
            let (name, height, cells) = (def.name, *height, *cells);
            if cells > MAX_CELLS {
                return Err(err(
                    0,
                    &format!("cell {name} expands to more than {MAX_CELLS} cells"),
                ));
            }
            path.pop();
            done.insert(name, Some((height, cells)));
            if let Some((_, _, parent_height, parent_cells)) = path.last_mut() {
                *parent_height = (*parent_height).max(height + 1);
                *parent_cells = parent_cells.saturating_add(cells);
            }
            continue;
        };
        *next += 1;
        let Some(child) = defs.get(inst.def_ref).filter(|child| !child.external) else {
            *cells = cells.saturating_add(1);
            continue;
        };
        match done.get(child.name) {
            Some(None) => return Err(err(0, &format!("cell {} instantiates itself", child.name))),
            Some(Some((child_height, child_cells))) => {
                *height = (*height).max(child_height + 1);
                *cells = cells.saturating_add(*child_cells);
            }
            None => {
                if path.len() == MAX_HIERARCHY {
                    return Err(too_deep());
                }
                done.insert(child.name, None);
                path.push((child, 0, 1, 1));
            }
        }
    }
    match done.get(top.name) {
        Some(Some((height, _))) if *height > MAX_HIERARCHY => Err(too_deep()),
        _ => Ok(()),
    }
}

/// Fills a composite scope from a definition: wires per net, child
/// instances bound through them.
fn populate(
    ctx: &mut CellCtx<'_>,
    def: &Def<'_>,
    defs: &HashMap<&str, Def<'_>>,
    own_port_bits: &HashMap<&str, (WireId, u32)>,
) -> Result<(), NetlistError> {
    let mut net_signals: Vec<Signal> = Vec::with_capacity(def.nets.len());
    let mut wire_name = String::new();
    for (k, net) in def.nets.iter().enumerate() {
        // Choose the representative signal: an own *input* port bit
        // drives the net; otherwise an own output bit; otherwise a
        // fresh wire.
        let own_signal = |legal: &str| -> Option<(Signal, PortDir)> {
            let (wire, bit) = own_port_bits.get(legal)?;
            let dir = *def.port_dirs.get(legal)?;
            Some((Signal::bit_of(*wire, *bit), dir))
        };
        let own_refs = || net.own_ports.iter().filter_map(|legal| own_signal(legal));
        let driver = own_refs()
            .find(|(_, d)| *d == PortDir::Input)
            .or_else(|| own_refs().next());
        let net_signal = match driver {
            Some((sig, _)) => sig,
            None => {
                wire_name.clear();
                write!(wire_name, "n{k}").expect("writing to a String");
                Signal::from(ctx.wire(&wire_name, 1))
            }
        };
        // Feed-through: buffer the net into any *other* own port bits.
        for (sig, dir) in own_refs() {
            if sig != net_signal && dir == PortDir::Output {
                ctx.buffer(net_signal.clone(), sig)
                    .map_err(|e| err(0, &format!("feed-through: {e}")))?;
            }
        }
        net_signals.push(net_signal);
    }

    let mut conns: Vec<(&str, Signal)> = Vec::new();
    for inst in &def.instances {
        let child = defs.get(inst.def_ref).ok_or_else(|| {
            err(
                0,
                &format!(
                    "instance {} references unknown cell {}",
                    inst.name, inst.def_ref
                ),
            )
        })?;
        let groups = child.groups()?;
        let pins = &def.pins[inst.pins.clone()];
        // Build the connection list: one signal per (grouped) port.
        conns.clear();
        for group in groups {
            let mut any = false;
            let signal = Signal::concat(group.legal_names.iter().map(|legal| {
                // The port's last pin: where two nets join one pin,
                // the later net binds it.
                let end = pins.partition_point(|(port, _)| port <= legal);
                match end.checked_sub(1).map(|at| pins[at]) {
                    Some((port, net)) if port == *legal => {
                        any = true;
                        net_signals[net].clone()
                    }
                    // Unconnected bit: dangle through a fresh wire.
                    _ => Signal::from(ctx.wire(&format!("{}_{}_nc", inst.name, legal), 1)),
                }
            }));
            if any || group.dir == PortDir::Input {
                conns.push((group.base, signal));
            }
        }
        let specs: Vec<PortSpec> = groups
            .iter()
            .map(|g| PortSpec::new(g.base, g.dir, g.width))
            .collect();
        let cell = if child.external {
            if child.lib == "hidden" {
                ctx.black_box(child.name, specs, inst.name, &conns)
                    .map_err(|e| err(0, &format!("black box {}: {e}", inst.name)))?
            } else {
                let prim = match inst.init {
                    Some(init) => Primitive::with_init(child.lib, child.name, init),
                    None => Primitive::new(child.lib, child.name),
                };
                ctx.leaf(prim, specs, inst.name, &conns)
                    .map_err(|e| err(0, &format!("primitive {}: {e}", inst.name)))?
            }
        } else {
            // Composite: recurse through a generator that populates the
            // child definition. `check_hierarchy` bounded the recursion.
            let generator = FnGenerator::new(child.name, specs, |child_ctx| {
                let mut child_port_bits = HashMap::new();
                for group in groups {
                    let wire = child_ctx.port(group.base)?;
                    for (bit, legal) in group.legal_names.iter().enumerate() {
                        child_port_bits.insert(*legal, (wire, bit as u32));
                    }
                }
                populate(child_ctx, child, defs, &child_port_bits).map_err(|e| {
                    ipd_hdl::HdlError::InvalidParameter {
                        generator: child.name.to_owned(),
                        reason: e.to_string(),
                    }
                })
            });
            ctx.instantiate(&generator, inst.name, &conns)
                .map_err(|e| err(0, &format!("composite {}: {e}", inst.name)))?
        };
        if let Some(rloc) = inst.rloc {
            ctx.set_rloc(cell, rloc);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edif::edif_string;
    use ipd_techlib::LogicCtx;

    #[test]
    fn rloc_parser() {
        assert_eq!(parse_rloc("R3C4"), Some(Rloc::new(3, 4)));
        assert_eq!(parse_rloc("R-1C2"), Some(Rloc::new(-1, 2)));
        assert_eq!(parse_rloc("bogus"), None);
    }

    #[test]
    fn split_indexed_names() {
        assert_eq!(split_indexed("a[3]"), ("a", Some(3)));
        assert_eq!(split_indexed("clk"), ("clk", None));
        assert_eq!(split_indexed("x[y]"), ("x[y]", None));
    }

    #[test]
    fn simple_round_trip() {
        let mut circuit = Circuit::new("top");
        let mut ctx = circuit.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 2)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.and2(Signal::bit_of(a, 0), Signal::bit_of(a, 1), y)
            .unwrap();
        let text = edif_string(&circuit).unwrap();
        let back = read_edif(&text).unwrap();
        assert_eq!(back.primitive_count(), 1);
        let root = back.cell(back.root());
        assert_eq!(root.ports().len(), 2);
        assert_eq!(root.port("a").unwrap().spec.width, 2);
        assert_eq!(root.port("y").unwrap().spec.width, 1);
    }

    #[test]
    fn init_and_rloc_survive() {
        let mut circuit = Circuit::new("t");
        let mut ctx = circuit.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        let lut = ctx.lut(0x2, &[a.into()], y).unwrap();
        ctx.set_rloc(lut, Rloc::new(2, 5));
        let text = edif_string(&circuit).unwrap();
        let back = read_edif(&text).unwrap();
        let leaf = back
            .cell_ids()
            .find(|&id| back.cell(id).is_primitive())
            .expect("leaf");
        let prim = back.cell(leaf).kind().as_primitive().expect("prim");
        assert_eq!(prim.init, Some(2));
        assert_eq!(back.cell(leaf).rloc(), Some(Rloc::new(2, 5)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edif("(not-edif)").is_err());
        assert!(read_edif("(edif x (edifVersion 2 0 0))").is_err());
        assert!(read_edif("((((").is_err());
    }
}
