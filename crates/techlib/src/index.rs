//! The structural index of a flattened design.
//!
//! Every netlist-level analysis asks the same questions of a
//! [`FlatNetlist`]: what each leaf is, who drives and reads each net,
//! which gates make up the combinational network and in what order
//! they evaluate, where it loops, and what clocks each register. A
//! [`FlatIndex`] answers them once, in one pass over the leaves, and
//! `ipd-lint`, the STA engine, both simulators and the equivalence
//! checker's AIG lowering all read those answers instead of deriving
//! their own. In particular they agree on what a loop is: a gate that
//! reads its own output is one.
//!
//! The index owns its netlist (shared through an [`Arc`]), so an
//! elaborated design is one plain value: the physical flow and the
//! applet session each flatten and index a circuit once and hand that
//! index to every analysis. The placer writes leaf locations into it
//! with [`FlatIndex::set_locations`]; no table of the index depends on
//! placement.

use std::cell::Cell;
use std::sync::Arc;

use ipd_hdl::{FlatKind, FlatLeaf, FlatNetlist, Logic, NetId, PortDir, Rloc};

use crate::error::TechError;
use crate::prim::{FfControl, PrimClass, PrimKind};

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many [`FlatIndex`]es this thread has built. Tests read it to
/// check that one gate or co-simulation run indexes its netlist once.
#[doc(hidden)]
#[must_use]
pub fn index_builds() -> u64 {
    BUILDS.with(Cell::get)
}

/// Per-net lists as one flat array plus offsets, so building a table
/// costs two passes over its entries and no per-net allocation.
#[derive(Debug, Clone)]
struct NetTable<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> NetTable<T> {
    /// Groups `(net, item)` entries by net, keeping entry order.
    fn build(net_count: usize, entries: impl Iterator<Item = (NetId, T)> + Clone) -> Self {
        let mut offsets = vec![0u32; net_count + 1];
        for (net, _) in entries.clone() {
            offsets[net.index() + 1] += 1;
        }
        for i in 0..net_count {
            offsets[i + 1] += offsets[i];
        }
        let mut items = vec![T::default(); offsets[net_count] as usize];
        let mut cursor = offsets.clone();
        for (net, item) in entries {
            let at = &mut cursor[net.index()];
            items[*at as usize] = item;
            *at += 1;
        }
        NetTable { offsets, items }
    }

    fn of(&self, net: NetId) -> &[T] {
        let i = net.index();
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// An inline list of at most six nets: a gate's inputs (a LUT4 or a
/// 16×1 memory address has four) or a register's data-side pins (a
/// RAM16 has six). Derefs to `[NetId]`.
#[derive(Debug, Clone, Copy)]
pub struct InputNets {
    buf: [NetId; 6],
    len: u8,
}

impl InputNets {
    fn push(&mut self, net: NetId) {
        self.buf[usize::from(self.len)] = net;
        self.len += 1;
    }
}

impl std::ops::Deref for InputNets {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.buf[..usize::from(self.len)]
    }
}

impl FromIterator<NetId> for InputNets {
    fn from_iter<I: IntoIterator<Item = NetId>>(nets: I) -> Self {
        let mut list = InputNets {
            buf: [NetId::from_index(0); 6],
            len: 0,
        };
        for net in nets {
            list.push(net);
        }
        list
    }
}

impl<'a> IntoIterator for &'a InputNets {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One combinational evaluation node: a combinational primitive, a ROM
/// read, or the asynchronous address→output read of an SRL16/RAM16.
#[derive(Debug, Clone)]
pub struct CombNode {
    /// Index of the originating leaf in [`FlatNetlist::leaves`].
    pub leaf: usize,
    /// The primitive, when the node is a plain combinational gate;
    /// `None` for SRL16/RAM16 reads, whose output depends on state.
    pub kind: Option<PrimKind>,
    /// Input nets in [`PrimKind::comb_input_names`] order (the address
    /// bits, LSB first, for memory reads).
    pub inputs: InputNets,
    /// The driven net.
    pub output: NetId,
}

/// A sequential element (flip-flop, SRL16 or RAM16) with its pins.
#[derive(Debug, Clone)]
pub struct SeqElem {
    /// Index of the leaf in [`FlatNetlist::leaves`].
    pub leaf: usize,
    /// The primitive.
    pub kind: PrimKind,
    /// The net on the clock pin.
    pub clock: NetId,
    /// `clock` traced back through `buf`/`bufg`/`ibuf` chains to its
    /// source: the clock-domain net.
    pub domain: NetId,
    /// The output net (`q`, or `o` for a RAM16).
    pub output: NetId,
    /// Data-side input nets: `d`, then `ce` or `we`, then `clr` or `r`,
    /// then a RAM16's address bits, LSB first.
    pub data_inputs: InputNets,
}

impl SeqElem {
    /// The `d` input net.
    #[must_use]
    pub fn d(&self) -> NetId {
        self.data_inputs[0]
    }
}

/// Refuses a leaf that lacks a port of its primitive's library
/// interface, or carries one at another width: the index reads pins
/// by name, and imported EDIF declares its own interfaces.
fn check_interface(kind: PrimKind, leaf: &FlatLeaf) -> Result<PrimKind, TechError> {
    let mut mismatch = None;
    kind.each_port(|port, _, width| {
        let fits = leaf
            .conn(port)
            .is_some_and(|c| c.nets.len() == width as usize);
        if !fits && mismatch.is_none() {
            mismatch = Some((port, width));
        }
    });
    match mismatch {
        None => Ok(kind),
        Some((port, width)) => Err(TechError::PortMismatch {
            name: kind.name().to_owned(),
            port: port.to_owned(),
            width,
        }),
    }
}

/// The structural index of one [`FlatNetlist`]; see the module docs.
///
/// Building never fails: leaves whose primitive does not resolve, or
/// whose interface does not match it, are listed in
/// [`FlatIndex::unknown_primitives`] and left out of the graphs, and a
/// consumer that refuses them refuses from that list.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    flat: Arc<FlatNetlist>,
    kinds: Vec<Option<PrimKind>>,
    unknown: Vec<(usize, TechError)>,
    drivers: NetTable<(usize, usize)>,
    readers: NetTable<(usize, usize)>,
    primary_driven: Vec<bool>,
    primary_read: Vec<bool>,
    comb: Vec<CombNode>,
    /// Net → the comb node driving it.
    producer: Vec<Option<usize>>,
    /// Net → the comb nodes reading it, once per input pin.
    comb_readers: NetTable<u32>,
    const_drives: Vec<(NetId, Logic)>,
    seq: Vec<SeqElem>,
    /// Net → index into `seq` of the element driving it.
    seq_of_output: Vec<Option<usize>>,
    /// Net → it is some element's clock or clock domain.
    clock_net: Vec<bool>,
    black_boxes: Vec<usize>,
    topo_order: Vec<usize>,
    acyclic_prefix: usize,
    loop_sccs: Vec<Vec<usize>>,
}

impl FlatIndex {
    /// Indexes a flattened design, taking ownership of it (or sharing
    /// an `Arc` the caller keeps).
    #[must_use]
    pub fn new(flat: impl Into<Arc<FlatNetlist>>) -> Self {
        BUILDS.with(|b| b.set(b.get() + 1));
        let flat: Arc<FlatNetlist> = flat.into();
        let net_count = flat.net_count();
        let conns = || {
            flat.leaves().iter().enumerate().flat_map(|(li, leaf)| {
                leaf.conns.iter().enumerate().flat_map(move |(pi, conn)| {
                    conn.nets.iter().map(move |&net| (net, conn.dir, (li, pi)))
                })
            })
        };
        let drivers = NetTable::build(
            net_count,
            conns()
                .filter(|e| e.1 != PortDir::Input)
                .map(|e| (e.0, e.2)),
        );
        let readers = NetTable::build(
            net_count,
            conns()
                .filter(|e| e.1 != PortDir::Output)
                .map(|e| (e.0, e.2)),
        );
        let mut primary_driven = vec![false; net_count];
        let mut primary_read = vec![false; net_count];
        for port in flat.ports() {
            for &net in &port.nets {
                primary_driven[net.index()] |= port.dir != PortDir::Output;
                primary_read[net.index()] |= port.dir != PortDir::Input;
            }
        }

        let mut kinds = Vec::with_capacity(flat.leaves().len());
        let mut unknown = Vec::new();
        let mut comb = Vec::new();
        let mut const_drives = Vec::new();
        let mut seq = Vec::new();
        let mut black_boxes = Vec::new();
        for (li, leaf) in flat.leaves().iter().enumerate() {
            let kind = match &leaf.kind {
                FlatKind::BlackBox(_) => {
                    black_boxes.push(li);
                    None
                }
                FlatKind::Primitive(prim) => PrimKind::from_primitive(prim)
                    .and_then(|kind| check_interface(kind, leaf))
                    .map_err(|e| unknown.push((li, e)))
                    .ok(),
            };
            kinds.push(kind);
            let Some(kind) = kind else { continue };
            let pins = |name: &str| &leaf.conn(name).expect("interface checked").nets;
            let pin = |name: &str| pins(name)[0];
            let nets = |names: &[&str]| -> InputNets {
                names.iter().flat_map(|name| pins(name)).copied().collect()
            };
            let mut elem = |data_inputs: InputNets, output: NetId| {
                seq.push(SeqElem {
                    leaf: li,
                    kind,
                    clock: pin("c"),
                    domain: NetId::from_index(0), // resolved below
                    output,
                    data_inputs,
                });
            };
            match kind.class() {
                PrimClass::Const(v) => const_drives.push((pin("o"), v)),
                PrimClass::Comb | PrimClass::Rom16 => comb.push(CombNode {
                    leaf: li,
                    kind: Some(kind),
                    inputs: nets(kind.comb_input_names()),
                    output: pin(kind.output_name()),
                }),
                PrimClass::Ff { has_ce, control } => {
                    let mut data = nets(&["d"]);
                    if has_ce {
                        data.push(pin("ce"));
                    }
                    match control {
                        FfControl::None => {}
                        FfControl::AsyncClear => data.push(pin("clr")),
                        FfControl::SyncReset => data.push(pin("r")),
                    }
                    elem(data, pin("q"));
                }
                PrimClass::Srl16 | PrimClass::Ram16 => {
                    let (data, output) = if kind.class() == PrimClass::Srl16 {
                        (nets(&["d", "ce"]), pin("q"))
                    } else {
                        (nets(&["d", "we", "a"]), pin("o"))
                    };
                    elem(data, output);
                    comb.push(CombNode {
                        leaf: li,
                        kind: None,
                        inputs: nets(&["a"]),
                        output,
                    });
                }
            }
        }

        let mut producer = vec![None; net_count];
        for (i, node) in comb.iter().enumerate() {
            producer[node.output.index()] = Some(i);
        }
        let mut seq_of_output = vec![None; net_count];
        for (i, s) in seq.iter().enumerate() {
            seq_of_output[s.output.index()] = Some(i);
        }
        let comb_readers = NetTable::build(
            net_count,
            comb.iter()
                .enumerate()
                .flat_map(|(i, node)| node.inputs.iter().map(move |&net| (net, i as u32))),
        );
        let mut index = FlatIndex {
            flat,
            kinds,
            unknown,
            drivers,
            readers,
            primary_driven,
            primary_read,
            comb,
            producer,
            comb_readers,
            const_drives,
            seq,
            seq_of_output,
            clock_net: vec![false; net_count],
            black_boxes,
            topo_order: Vec::new(),
            acyclic_prefix: 0,
            loop_sccs: Vec::new(),
        };
        for i in 0..index.seq.len() {
            let (clock, domain) = (index.seq[i].clock, index.clock_root(index.seq[i].clock));
            index.seq[i].domain = domain;
            index.clock_net[clock.index()] = true;
            index.clock_net[domain.index()] = true;
        }
        index.order_nodes();
        index.loop_sccs = index.find_loop_sccs();
        index
    }

    /// The indexed design.
    #[must_use]
    pub fn flat(&self) -> &Arc<FlatNetlist> {
        &self.flat
    }

    /// Sets every leaf's absolute location, one entry per leaf in
    /// [`FlatNetlist::leaves`] order. Only the netlist's locations
    /// change: no table of the index depends on placement. A netlist
    /// shared with another holder is copied first, so that holder
    /// keeps the old locations.
    ///
    /// # Panics
    ///
    /// When `locs` does not hold exactly one entry per leaf.
    pub fn set_locations(&mut self, locs: &[Option<Rloc>]) {
        let leaves = Arc::make_mut(&mut self.flat).leaves_mut();
        assert_eq!(locs.len(), leaves.len(), "one location per leaf");
        for (leaf, &loc) in leaves.iter_mut().zip(locs) {
            leaf.loc = loc;
        }
    }

    /// Resolved primitive per leaf (`None` for black boxes and
    /// unknown primitives).
    #[must_use]
    pub fn kinds(&self) -> &[Option<PrimKind>] {
        &self.kinds
    }

    /// `(leaf, error)` for every leaf whose primitive does not
    /// resolve or whose interface does not match it, in leaf order.
    #[must_use]
    pub fn unknown_primitives(&self) -> &[(usize, TechError)] {
        &self.unknown
    }

    /// Refuses a design with an entry in
    /// [`FlatIndex::unknown_primitives`], as every estimator does.
    ///
    /// # Errors
    ///
    /// The first entry's error.
    pub fn check_primitives(&self) -> Result<(), TechError> {
        self.unknown.first().map_or(Ok(()), |(_, e)| Err(e.clone()))
    }

    /// `(leaf, port)` pairs whose output side drives `net`.
    #[must_use]
    pub fn drivers_of(&self, net: NetId) -> &[(usize, usize)] {
        self.drivers.of(net)
    }

    /// `(leaf, port)` pairs whose input side reads `net`.
    #[must_use]
    pub fn readers_of(&self, net: NetId) -> &[(usize, usize)] {
        self.readers.of(net)
    }

    /// `true` when a primary input or inout port drives the net.
    #[must_use]
    pub fn is_primary_driven(&self, net: NetId) -> bool {
        self.primary_driven[net.index()]
    }

    /// `true` when a primary output or inout port reads the net.
    #[must_use]
    pub fn is_primary_read(&self, net: NetId) -> bool {
        self.primary_read[net.index()]
    }

    /// Leaf drivers of a net plus one when a primary port drives it.
    #[must_use]
    pub fn driver_count(&self, net: NetId) -> usize {
        self.drivers.of(net).len() + usize::from(self.primary_driven[net.index()])
    }

    /// Leaf readers of a net plus one when a primary port reads it.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> usize {
        self.readers.of(net).len() + usize::from(self.primary_read[net.index()])
    }

    /// All combinational evaluation nodes, in leaf order.
    #[must_use]
    pub fn comb_nodes(&self) -> &[CombNode] {
        &self.comb
    }

    /// The comb node driving a net, if any.
    #[must_use]
    pub fn producer(&self, net: NetId) -> Option<&CombNode> {
        self.producer_index(net).map(|i| &self.comb[i])
    }

    /// Index into [`FlatIndex::comb_nodes`] of the node driving a net.
    #[must_use]
    pub fn producer_index(&self, net: NetId) -> Option<usize> {
        self.producer[net.index()]
    }

    /// Indices of the comb nodes reading a net, once per input pin.
    #[must_use]
    pub fn comb_readers(&self, net: NetId) -> &[u32] {
        self.comb_readers.of(net)
    }

    /// `(net, value)` of every constant driver (gnd/vcc leaf).
    #[must_use]
    pub fn const_drives(&self) -> &[(NetId, Logic)] {
        &self.const_drives
    }

    /// All sequential elements, in leaf order.
    #[must_use]
    pub fn seq(&self) -> &[SeqElem] {
        &self.seq
    }

    /// Index into [`FlatIndex::seq`] of the element driving a net.
    #[must_use]
    pub fn seq_index_of_output(&self, net: NetId) -> Option<usize> {
        self.seq_of_output[net.index()]
    }

    /// Leaf indices of the black boxes.
    #[must_use]
    pub fn black_boxes(&self) -> &[usize] {
        &self.black_boxes
    }

    /// Comb-node indices in evaluation order: Kahn's algorithm, first
    /// in first out, over the edges from each node to the nodes that
    /// read its output, then every node it could not place (loop
    /// members and what they feed) in index order. The first
    /// [`FlatIndex::acyclic_prefix`] entries are topologically sorted.
    #[must_use]
    pub fn topo_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// How many leading [`FlatIndex::topo_order`] entries are sorted;
    /// equal to the node count exactly when the design has no loop.
    #[must_use]
    pub fn acyclic_prefix(&self) -> usize {
        self.acyclic_prefix
    }

    /// The combinational loops: strongly connected components with
    /// more than one node, or one node that reads its own output. Each
    /// is sorted; the list is sorted by first member.
    #[must_use]
    pub fn loop_sccs(&self) -> &[Vec<usize>] {
        &self.loop_sccs
    }

    /// `true` when a net is the clock pin or the clock domain of some
    /// sequential element.
    #[must_use]
    pub fn is_clock_net(&self, net: NetId) -> bool {
        self.clock_net[net.index()]
    }

    /// Follows buffer chains (`buf`/`bufg`/`ibuf`) back to their
    /// source net: the clock-domain representative.
    fn clock_root(&self, mut net: NetId) -> NetId {
        let mut hops = 0usize;
        while let Some(node) = self.producer(net) {
            let through_buffer = matches!(
                node.kind,
                Some(PrimKind::Buf | PrimKind::Bufg | PrimKind::Ibuf)
            );
            if !through_buffer || hops > self.flat.net_count() {
                break;
            }
            net = node.inputs[0];
            hops += 1;
        }
        net
    }

    /// Hierarchical instance path of a leaf.
    #[must_use]
    pub fn leaf_path(&self, leaf: usize) -> &str {
        &self.flat.leaves()[leaf].path
    }

    /// Hierarchical name of a net.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.flat.nets()[net.index()].name
    }

    /// Nodes reading the output of node `p`, once per input pin. A
    /// node that reads its own output is its own successor.
    fn succs(&self, p: usize) -> &[u32] {
        let out = self.comb[p].output;
        if self.producer[out.index()] == Some(p) {
            self.comb_readers.of(out)
        } else {
            &[]
        }
    }

    /// Fills `topo_order` and `acyclic_prefix`.
    fn order_nodes(&mut self) {
        let n = self.comb.len();
        let mut indegree: Vec<usize> = self
            .comb
            .iter()
            .map(|node| {
                let produced = |net: &&NetId| self.producer[net.index()].is_some();
                node.inputs.iter().filter(produced).count()
            })
            .collect();
        let mut order: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &s in self.succs(v) {
                let s = s as usize;
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    order.push(s);
                }
            }
        }
        self.acyclic_prefix = order.len();
        if order.len() < n {
            let mut placed = vec![false; n];
            for &v in &order {
                placed[v] = true;
            }
            order.extend((0..n).filter(|&i| !placed[i]));
        }
        self.topo_order = order;
    }

    /// Tarjan's algorithm, iterative, over the comb-node graph.
    fn find_loop_sccs(&self) -> Vec<Vec<usize>> {
        let n = self.comb.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs = Vec::new();
        // Explicit DFS frames: (node, next successor position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            frames.push((start, 0));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if let Some(&w) = self.succs(v).get(*pos) {
                    let w = w as usize;
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds component");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = |c: &usize| self.succs(*c).contains(&(*c as u32));
                    if comp.len() > 1 || comp.iter().any(self_loop) {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs.sort_by_key(|c| c[0]);
        sccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LogicCtx;
    use ipd_hdl::{Circuit, PortSpec};

    /// `y = or2(en, y)`: one gate reading its own output.
    fn self_loop() -> FlatNetlist {
        let mut c = Circuit::new("selfloop");
        let mut ctx = c.root_ctx();
        let en = ctx.add_port(PortSpec::input("en", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.or2(en, y, y).unwrap();
        FlatNetlist::build(&c).unwrap()
    }

    #[test]
    fn a_gate_reading_its_own_output_is_a_loop() {
        let index = FlatIndex::new(self_loop());
        assert_eq!(index.comb_nodes().len(), 1);
        assert_eq!(index.acyclic_prefix(), 0, "the self-edge blocks Kahn");
        assert_eq!(index.topo_order(), [0]);
        assert_eq!(index.loop_sccs(), [vec![0]]);
    }

    #[test]
    fn set_locations_moves_leaves_and_leaves_a_shared_netlist_alone() {
        let shared = Arc::new(self_loop());
        let mut index = FlatIndex::new(Arc::clone(&shared));
        let at = Some(Rloc::new(2, 3));
        index.set_locations(&[at]);
        assert_eq!(index.flat().leaves()[0].loc, at);
        assert_eq!(
            shared.leaves()[0].loc,
            None,
            "the other holder keeps its copy"
        );
        assert_eq!(
            index.loop_sccs(),
            [vec![0]],
            "no table depends on placement"
        );
    }

    #[test]
    fn registers_know_their_clock_domain() {
        let mut c = Circuit::new("buffered");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let gclk = ctx.wire("gclk", 1);
        ctx.buffer(clk, gclk).unwrap();
        ctx.fd(gclk, d, q).unwrap();
        let index = FlatIndex::new(FlatNetlist::build(&c).unwrap());
        let ff = &index.seq()[0];
        assert_eq!(index.net_name(ff.clock), "buffered/gclk");
        assert_eq!(index.net_name(ff.domain), "buffered/clk");
        assert!(index.is_clock_net(ff.clock) && index.is_clock_net(ff.domain));
        assert!(!index.is_clock_net(ff.d()));
        assert_eq!(index.acyclic_prefix(), 1);
    }
}
