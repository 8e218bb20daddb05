//! The four workloads: their set-up, one op each, the replays of the
//! traced run, and the output checks.
//!
//! Every check recomputes the expected answer with the benchmark's own
//! arithmetic (i128 products, its own product-width rule, the manifest
//! it was sent); no check calls the code it is checking.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use ipd_core::{
    bundle_key, seal, unseal, AppletHost, AppletServer, BundleDelivery, CapabilitySet,
    DeliveryClient, DeliveryManifest, DeliveryResponse, DeliveryService, RunningDelivery,
};
use ipd_cosim::{
    BlackBoxClient, BlackBoxServer, CosimError, LocalSimModel, ModelId, RunningBlackBox, SimModel,
    SystemSimulator, TcpTransport,
};
use ipd_estimate::analyze_timing;
use ipd_hdl::{Circuit, FlatNetlist, Logic, LogicVec, PortDir};
use ipd_lint::{LintConfig, Linter, TimingConstraints};
use ipd_modgen::KcmMultiplier;
use ipd_netlist::{read_edif, NetlistFormat};
use ipd_sim::VectorSweep;
use ipd_wire::{WireConfig, WireStats};

use crate::trace::{self, span};

/// Customer threads, one client connection each at most: the load
/// matches a 2-core machine and never changes with the host.
pub const CUSTOMERS: usize = 2;

const VENDOR_KEY: &[u8] = b"perfbench-vendor-key";
/// The license day every request is made on (licenses run 0..365).
const TODAY: u32 = 30;
/// A clock period every pipelined KCM of the journey meets.
const CLOCK_NS: f64 = 10.0;
const JOURNEY_VECTORS: usize = 1024;
const SWEEP_VECTORS: usize = 4096;
const SWEEP_WIDTH: u32 = 16;
/// Ops per customer whose vendor-side or local batch work a traced run
/// replays.
const REPLAY_OPS: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Journey,
    CosimSweep,
    CosimEvents,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Journey,
        Workload::CosimSweep,
        Workload::CosimEvents,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Journey => "journey",
            Workload::CosimSweep => "cosim_sweep",
            Workload::CosimEvents => "cosim_events",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Error context for the benchmark's own reports.
trait At<T> {
    fn at(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> At<T> for Result<T, E> {
    fn at(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn hash(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD605_BBB5_8C8A_BBFD)).next_u64()
}

/// A signed, pipelined KCM as the benchmark sees it.
#[derive(Debug, Clone)]
pub struct Kcm {
    constant: i64,
    width: u32,
    product_width: u32,
    /// Bits dropped below the product (0 for a full-width product).
    shift: u32,
}

impl Kcm {
    /// The top `product_width` bits of `constant × x` for `width`-bit `x`.
    fn new(constant: i64, width: u32, product_width: u32) -> Self {
        Kcm {
            constant,
            width,
            product_width,
            shift: Self::full_width(constant, width) - product_width,
        }
    }

    /// The full-width product of `constant × x` for `width`-bit `x`.
    fn full(constant: i64, width: u32) -> Self {
        Kcm::new(constant, width, Self::full_width(constant, width))
    }

    /// The narrowest two's-complement width holding every product.
    fn full_width(constant: i64, width: u32) -> u32 {
        let (lo, hi) = Self::range(width);
        let (a, b) = (
            i128::from(constant) * i128::from(lo),
            i128::from(constant) * i128::from(hi),
        );
        let (min, max) = (a.min(b), a.max(b));
        (1..128u32)
            .find(|&w| min >= -(1i128 << (w - 1)) && max < (1i128 << (w - 1)))
            .expect("a 32-bit by 32-bit product fits 127 bits")
    }

    /// The paper's running example: −56·x, 8 bits in, top 12 bits out.
    fn paper() -> Self {
        Kcm::new(-56, 8, 12)
    }

    fn generator(&self) -> KcmMultiplier {
        KcmMultiplier::new(self.constant, self.width, self.product_width)
            .signed(true)
            .pipelined(true)
    }

    fn latency(&self) -> u32 {
        self.generator().latency()
    }

    fn range(width: u32) -> (i64, i64) {
        (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
    }

    fn expected(&self, x: i64) -> i128 {
        (i128::from(self.constant) * i128::from(x)) >> self.shift
    }

    /// Checks one output word; `corrupt` flips its bit 0 first.
    fn check(&self, x: i64, out: &LogicVec, corrupt: bool) -> Result<(), String> {
        let want = self.expected(x);
        let got = decode_signed(out).map(|v| if corrupt { v ^ 1 } else { v });
        if out.width() == self.product_width as usize && got == Some(want) {
            Ok(())
        } else {
            Err(format!(
                "{}·{x}: got {out} ({} bits, corrupted: {corrupt}), want {want} in {} bits",
                self.constant,
                out.width(),
                self.product_width
            ))
        }
    }

    /// Checks a batch result against its multiplicands.
    fn check_batch(
        &self,
        xs: impl IntoIterator<Item = i64>,
        outputs: &[(String, Vec<LogicVec>)],
        corrupt: bool,
    ) -> Result<(), String> {
        let products = outputs
            .iter()
            .find(|(port, _)| port == "product")
            .map(|(_, values)| values)
            .ok_or("batch result has no product port")?;
        let mut count = 0;
        for (i, x) in xs.into_iter().enumerate() {
            let out = products
                .get(i)
                .ok_or_else(|| format!("only {} products", products.len()))?;
            self.check(x, out, corrupt && i == 0)?;
            count += 1;
        }
        if count != products.len() {
            return Err(format!(
                "{} products for {count} multiplicands",
                products.len()
            ));
        }
        Ok(())
    }
}

/// Two's-complement value of a fully driven word.
fn decode_signed(v: &LogicVec) -> Option<i128> {
    let w = v.width();
    if w == 0 || w > 126 {
        return None;
    }
    let mut raw = 0i128;
    for (i, bit) in v.iter().enumerate() {
        match bit {
            Logic::One => raw |= 1 << i,
            Logic::Zero => {}
            _ => return None,
        }
    }
    Some(if raw >> (w - 1) & 1 == 1 {
        raw - (1 << w)
    } else {
        raw
    })
}

/// The KCM of journey op `op`. Widths 8–16 take turns, so every run
/// has the same width mix; the constant comes from a seeded bijection
/// onto the nonzero 12-bit constants, so no two ops of a run share
/// parameters.
fn journey_kcm(seed: u64, op: u64) -> Kcm {
    const WIDTHS: u64 = 9;
    const CONSTANTS: u64 = 4095;
    let mut stride = (hash(seed, 1) % CONSTANTS) | 1;
    while gcd(stride, CONSTANTS) != 1 {
        stride += 2;
    }
    let index = (hash(seed, 2) % CONSTANTS + (op / WIDTHS) % CONSTANTS * stride) % CONSTANTS;
    let constant = index as i64 - 2048;
    Kcm::full(
        if constant >= 0 {
            constant + 1
        } else {
            constant
        },
        8 + (op % WIDTHS) as u32,
    )
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// 1024 seeded multiplicands for journey op `op`, corners first.
fn journey_multiplicands(seed: u64, op: u64, width: u32) -> Vec<i64> {
    let (lo, hi) = Kcm::range(width);
    let mut rng = Rng::new(hash(seed, op ^ 0x5EED));
    let span = (hi - lo + 1) as u64;
    let mut xs = vec![lo, hi, 0, -1];
    xs.extend((4..JOURNEY_VECTORS).map(|_| lo + rng.below(span) as i64));
    xs
}

fn multiplicand_inputs(xs: &[i64], width: u32) -> Vec<(String, Vec<LogicVec>)> {
    let values = xs
        .iter()
        .map(|&x| LogicVec::from_i64(x, width as usize))
        .collect();
    vec![("multiplicand".to_owned(), values)]
}

/// The multiplicands of `cosim_sweep` slice `slice` (of 16).
fn sweep_slice(slice: usize) -> std::ops::Range<i64> {
    let start = Kcm::range(SWEEP_WIDTH).0 + (slice * SWEEP_VECTORS) as i64;
    start..start + SWEEP_VECTORS as i64
}

/// Client-side payload bytes in and out over one connection so far.
fn wire_bytes(stats: &WireStats) -> u64 {
    let totals = stats.totals();
    totals.bytes_in + totals.bytes_out
}

/// Checks a revalidation: every item a not-modified marker, and the
/// markers' names and digests exactly the manifest's.
fn check_not_modified(
    manifest: &DeliveryManifest,
    response: &DeliveryResponse,
) -> Result<(), String> {
    let mut got = BTreeSet::new();
    for item in response.items() {
        match item {
            BundleDelivery::NotModified { name, digest } => got.insert((name.clone(), *digest)),
            BundleDelivery::Payload { name, .. } => {
                return Err(format!("revalidation re-sent bundle {name}"))
            }
        };
    }
    let want: BTreeSet<(String, [u8; 32])> = manifest
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.digest))
        .collect();
    if manifest.entries().is_empty() || response.items().len() != want.len() || got != want {
        return Err(format!(
            "revalidation answered {} item(s) that do not match the manifest's {}",
            response.items().len(),
            want.len()
        ));
    }
    Ok(())
}

/// Shared, read-only state of one set-up.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub corrupt_op: Option<u64>,
    service: Arc<DeliveryService>,
    addr: SocketAddr,
    constraints: TimingConstraints,
    /// Each customer's license key, for the vendor-side replays.
    keys: Vec<[u8; 32]>,
    /// The one design of `cosim_sweep` / `cosim_events`.
    design: Option<Kcm>,
    /// The 16 slices of the exhaustive `cosim_sweep` space.
    slices: Vec<Vec<(String, Vec<LogicVec>)>>,
}

impl Ctx {
    pub fn service(&self) -> &DeliveryService {
        &self.service
    }
}

type ModelSlot = Arc<Mutex<Option<LocalSimModel>>>;

/// A customer with a license, a browser host and a black-box server of
/// its own. The server's factory takes the model the customer staged
/// in its slot; the customer never holds the slot lock while it
/// connects, because the factory runs inside the server's handshake.
pub struct Customer {
    id: String,
    key: [u8; 32],
    host: AppletHost,
    slot: ModelSlot,
    blackbox: RunningBlackBox,
}

impl Customer {
    fn connect_model(&self, model: LocalSimModel) -> Result<BlackBoxClient<TcpTransport>, String> {
        *self.slot.lock().expect("model slot lock") = Some(model);
        let addr = self.blackbox.addr();
        span("cosim.connect", || BlackBoxClient::connect(addr)).at("cosim connect")
    }

    /// The customer half of a delivery: portal visit with an all-304
    /// revalidation, sealed design, unseal and import. Returns the
    /// imported netlist and the visit's wire bytes.
    fn fetch_design(&mut self, ctx: &Ctx, design: &str) -> Result<(Circuit, u64), String> {
        let mut client = span("wire.connect", || {
            DeliveryClient::connect(ctx.addr, &self.id)
        })
        .at("connect")?;
        let manifest = span("core.manifest", || client.manifest(TODAY)).at("manifest")?;
        let response = span("core.fetch", || {
            let have = self.host.held_digests();
            let response = client.fetch(TODAY, &have)?;
            self.host.apply(&response);
            Ok::<_, ipd_core::CoreError>(response)
        })
        .at("revalidate")?;
        check_not_modified(&manifest, &response)?;
        trace::count("fetch_items", manifest.entries().len() as f64);
        let sealed = span("core.sealed_design", || client.sealed_design(TODAY, design))
            .at("sealed design")?;
        let bytes = wire_bytes(&client.stats());
        trace::count("round_trips", client.stats().totals().requests as f64);
        span("wire.close", || client.close());
        let plain = span("core.unseal", || unseal(&sealed.bytes, &self.key)).at("unseal")?;
        let text = String::from_utf8(plain).at("sealed payload")?;
        trace::count("edif_bytes", text.len() as f64);
        let circuit = span("netlist.read_edif", || read_edif(&text)).at("import EDIF")?;
        Ok((circuit, bytes))
    }
}

/// The first visit set-up makes for every customer: the host ends up
/// holding every bundle of the customer's manifest.
fn first_sync(addr: SocketAddr, id: &str, host: &mut AppletHost) -> Result<(), String> {
    let mut client = DeliveryClient::connect(addr, id).at("connect")?;
    let manifest = client.manifest(TODAY).at("manifest")?;
    host.sync_wire(&mut client, TODAY).at("first sync")?;
    let held: BTreeSet<[u8; 32]> = host.held_digests().into_iter().collect();
    if manifest.entries().iter().any(|e| !held.contains(&e.digest)) {
        return Err(format!("{id}: first sync left bundles missing"));
    }
    client.close();
    Ok(())
}

/// A local stimulus model: output `q` steps through seeded values.
struct Stimulus {
    seed: u64,
    width: u32,
    step: u64,
}

fn stimulus_value(seed: u64, step: u64, width: u32) -> i64 {
    let (lo, hi) = Kcm::range(width);
    lo + (hash(seed, step) % (hi - lo + 1) as u64) as i64
}

impl SimModel for Stimulus {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(vec![("q".to_owned(), PortDir::Output, self.width)])
    }
    fn set(&mut self, port: &str, _: LogicVec) -> Result<(), CosimError> {
        Err(CosimError::UnknownPort {
            port: port.to_owned(),
        })
    }
    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        self.step += u64::from(n);
        Ok(())
    }
    fn reset(&mut self) -> Result<(), CosimError> {
        self.step = 0;
        Ok(())
    }
    fn get(&mut self, _: &str) -> Result<LogicVec, CosimError> {
        let value = stimulus_value(self.seed, self.step, self.width);
        Ok(LogicVec::from_i64(value, self.width as usize))
    }
}

/// A local sink: captures input `d` on every clock.
struct Sink {
    width: u32,
    pending: LogicVec,
    captured: LogicVec,
}

impl SimModel for Sink {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(vec![("d".to_owned(), PortDir::Input, self.width)])
    }
    fn set(&mut self, _: &str, value: LogicVec) -> Result<(), CosimError> {
        self.pending = value;
        Ok(())
    }
    fn cycle(&mut self, _: u32) -> Result<(), CosimError> {
        self.captured = self.pending.clone();
        Ok(())
    }
    fn reset(&mut self) -> Result<(), CosimError> {
        self.captured = LogicVec::unknown(self.width as usize);
        Ok(())
    }
    fn get(&mut self, _: &str) -> Result<LogicVec, CosimError> {
        Ok(self.captured.clone())
    }
}

/// Times the black-box calls a [`SystemSimulator`] step makes.
struct Timed<M>(M);

impl<M: SimModel> SimModel for Timed<M> {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        self.0.interface()
    }
    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        span("cosim.set", || self.0.set(port, value))
    }
    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        span("cosim.cycle", || self.0.cycle(n))
    }
    fn reset(&mut self) -> Result<(), CosimError> {
        self.0.reset()
    }
    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        span("cosim.get", || self.0.get(port))
    }
}

/// Stimulus → `model` → sink, reset: the paper's Fig. 4 system.
fn fig4_system(
    seed: u64,
    kcm: &Kcm,
    model: Box<dyn SimModel + Send>,
) -> Result<(SystemSimulator, ModelId), String> {
    let mut system = SystemSimulator::new();
    let stimulus = Stimulus {
        seed,
        width: kcm.width,
        step: 0,
    };
    let stimulus = system.add_model("stimulus", Box::new(stimulus));
    let dut = system.add_model("kcm", model);
    let sink = Sink {
        width: kcm.product_width,
        pending: LogicVec::unknown(kcm.product_width as usize),
        captured: LogicVec::unknown(kcm.product_width as usize),
    };
    let sink = system.add_model("sink", Box::new(sink));
    system
        .connect(stimulus, "q", dut, "multiplicand")
        .at("wire stimulus")?;
    system.connect(dut, "product", sink, "d").at("wire sink")?;
    system.reset().at("reset system")?;
    Ok((system, sink))
}

/// Checks a Fig. 4 system after its step `step`: the sink holds the
/// product of the stimulus of step `step − latency`.
fn check_sink(
    system: &mut SystemSimulator,
    sink: ModelId,
    kcm: &Kcm,
    seed: u64,
    step: u64,
    corrupt: bool,
) -> Result<(), String> {
    let Some(source) = step.checked_sub(u64::from(kcm.latency())) else {
        return Ok(());
    };
    let got = system.probe(sink, "d").at("probe sink")?;
    kcm.check(stimulus_value(seed, source, kcm.width), &got, corrupt)
}

/// One customer thread's state.
pub enum Rig {
    Journey {
        customer: Customer,
    },
    Sweep {
        customer: Customer,
        client: BlackBoxClient<TcpTransport>,
        /// Where this customer starts cycling through the 16 slices.
        offset: usize,
        local: Box<LocalSimModel>,
        sweep: Box<VectorSweep>,
    },
    Events {
        customer: Customer,
        system: SystemSimulator,
        sink: ModelId,
        stats: Arc<WireStats>,
        local: Box<LocalSimModel>,
        steps: u64,
        seed: u64,
    },
}

/// The outcome of one op: its wire bytes, or why it failed.
pub type OpResult = Result<u64, String>;

impl Rig {
    /// Runs op number `j` of customer `c`, whose id is `op`.
    pub fn op(&mut self, ctx: &Ctx, c: usize, j: u64, op: u64) -> OpResult {
        let corrupt = ctx.corrupt_op == Some(op);
        match self {
            Rig::Journey { customer } => journey_op(ctx, customer, c, op, corrupt),
            Rig::Sweep { client, offset, .. } => {
                let slice = (*offset + j as usize) % ctx.slices.len();
                let kcm = ctx.design.as_ref().expect("sweep design");
                let before = client.transport().stats();
                let (bytes0, trips0) = (wire_bytes(&before), before.totals().requests);
                let outputs = span("cosim.batch_run", || {
                    client.run_batch(kcm.latency(), &ctx.slices[slice])
                })
                .at("run_batch")?;
                let stats = client.transport().stats();
                trace::count("round_trips", (stats.totals().requests - trips0) as f64);
                trace::count("vectors", SWEEP_VECTORS as f64);
                kcm.check_batch(sweep_slice(slice), &outputs, corrupt)?;
                Ok(wire_bytes(&stats) - bytes0)
            }
            Rig::Events {
                system,
                sink,
                stats,
                steps,
                seed,
                ..
            } => {
                let kcm = ctx.design.as_ref().expect("events design");
                let (bytes0, trips0) = (wire_bytes(stats), stats.totals().requests);
                system.step(1).at("step")?;
                check_sink(system, *sink, kcm, *seed, *steps, corrupt)?;
                *steps += 1;
                trace::count("round_trips", (stats.totals().requests - trips0) as f64);
                Ok(wire_bytes(stats) - bytes0)
            }
        }
    }

    /// Re-runs, uncontended and after the phase, the work of the
    /// traced ops `ops` (`(j, op id)` of customer `c`) that the ops
    /// could not time from outside: the vendor-side stages of up to
    /// `REPLAY_OPS` journey ops, the local batch of as many sweep ops,
    /// or every step of the Fig. 4 system against an in-process model.
    pub fn replay(&mut self, ctx: &Ctx, c: usize, ops: &[(u64, u64)]) -> Result<(), String> {
        let sampled = ops.iter().step_by(ops.len().div_ceil(REPLAY_OPS).max(1));
        match self {
            Rig::Journey { .. } => {
                for &(_, op) in sampled {
                    trace::root(op, "bench.replay", || replay_vendor(ctx, c, op))?;
                }
                Ok(())
            }
            Rig::Sweep {
                offset,
                local,
                sweep,
                ..
            } => {
                let kcm = ctx.design.as_ref().expect("sweep design");
                for &(j, op) in sampled {
                    let slice = (*offset + j as usize) % ctx.slices.len();
                    trace::root(op, "bench.replay", || {
                        replay_slice(kcm, local, sweep, &ctx.slices[slice], slice)
                    })?;
                }
                Ok(())
            }
            Rig::Events { local, seed, .. } => {
                let kcm = ctx.design.as_ref().expect("events design");
                let (mut system, sink) = fig4_system(*seed, kcm, local.clone())?;
                // The local system starts from reset, so its steps are
                // counted afresh.
                for (step, &(_, op)) in (0u64..).zip(ops) {
                    trace::root(op, "bench.replay", || {
                        span("sim.local_event", || system.step(1)).at("local step")?;
                        check_sink(&mut system, sink, kcm, *seed, step, false)
                    })?;
                }
                Ok(())
            }
        }
    }

    /// Closes the customer's connections and stops its black box.
    fn shut_down(self) -> Result<(), String> {
        let customer = match self {
            Rig::Journey { customer } => customer,
            Rig::Sweep {
                customer,
                mut client,
                ..
            } => {
                client.close().at("close cosim client")?;
                customer
            }
            Rig::Events {
                customer, system, ..
            } => {
                // Dropping the system closes its black-box client before
                // the server stops.
                drop(system);
                customer
            }
        };
        customer.blackbox.shutdown().at("stop black box")
    }
}

fn journey_op(ctx: &Ctx, customer: &mut Customer, c: usize, op: u64, corrupt: bool) -> OpResult {
    // Vendor side: generate the customer's KCM and register it behind
    // the timing gate.
    let kcm = journey_kcm(ctx.seed, op);
    let circuit = span("modgen.generate", || {
        Circuit::from_generator(&kcm.generator())
    })
    .at("generate")?;
    trace::count("prims", circuit.primitive_count() as f64);
    let design = format!("kcm-{c}");
    span("core.register", || {
        ctx.service.register_design_timed(
            design.clone(),
            circuit,
            LintConfig::default(),
            ctx.constraints.clone(),
        );
    });
    // Customer side: portal visit, delivery, import, co-simulation.
    let (imported, mut bytes) = customer.fetch_design(ctx, &design)?;
    let model = span("sim.compile", || LocalSimModel::new(&imported)).at("compile model")?;
    let mut client = customer.connect_model(model)?;
    let xs = journey_multiplicands(ctx.seed, op, kcm.width);
    let inputs = multiplicand_inputs(&xs, kcm.width);
    let outputs = span("cosim.batch_run", || {
        client.run_batch(kcm.latency(), &inputs)
    })
    .at("run_batch")?;
    span("wire.close", || client.close()).at("close cosim")?;
    let stats = client.transport().stats();
    bytes += wire_bytes(&stats);
    trace::count("round_trips", stats.totals().requests as f64);
    trace::count("vectors", xs.len() as f64);
    kcm.check_batch(xs, &outputs, corrupt)?;
    Ok(bytes)
}

/// One sweep slice through the local batch model and through the
/// sweep engine alone, both checked.
fn replay_slice(
    kcm: &Kcm,
    local: &mut LocalSimModel,
    sweep: &VectorSweep,
    inputs: &[(String, Vec<LogicVec>)],
    slice: usize,
) -> Result<(), String> {
    let outputs = span("cosim.local_batch", || {
        local.run_batch(kcm.latency(), inputs)
    })
    .at("local run_batch")?;
    kcm.check_batch(sweep_slice(slice), &outputs, false)?;
    let stimuli: Vec<Vec<(String, LogicVec)>> = inputs[0]
        .1
        .iter()
        .map(|v| vec![("multiplicand".to_owned(), v.clone())])
        .collect();
    let report = span("sim.vector_sweep", || sweep.run(&stimuli)).at("vector sweep")?;
    let products: Vec<LogicVec> = report
        .outputs
        .into_iter()
        .filter_map(|row| {
            row.into_iter()
                .find(|(p, _)| p == "product")
                .map(|(_, v)| v)
        })
        .collect();
    kcm.check_batch(
        sweep_slice(slice),
        &[("product".to_owned(), products)],
        false,
    )
}

/// The vendor-side stages of journey op `op`, each timed on its own:
/// the flatten, gates, netlist and seal that `sealed_design` runs
/// inside the server thread under the vendor lock.
fn replay_vendor(ctx: &Ctx, c: usize, op: u64) -> Result<(), String> {
    let circuit = Circuit::from_generator(&journey_kcm(ctx.seed, op).generator()).at("generate")?;
    let config = LintConfig::default();
    span("hdl.flatten", || FlatNetlist::build(&circuit)).at("flatten")?;
    span("lint.structural", || {
        Linter::with_config(config.clone()).run(&circuit)
    })
    .at("structural lint")?;
    span("estimate.sta", || {
        analyze_timing(&circuit, &ctx.constraints)
    })
    .at("sta")?;
    let report = span("lint.timed", || {
        Linter::with_timing(config.clone(), ctx.constraints.clone()).run(&circuit)
    })
    .at("timed lint")?;
    if report.error_count() > 0 {
        return Err(format!("replayed gate refuses: {}", report.summary()));
    }
    let edif = span("netlist.edif_write", || {
        NetlistFormat::Edif.generate(&circuit)
    })
    .at("EDIF")?;
    let sealed = span("core.seal", || {
        seal(edif.as_bytes(), &ctx.keys[c], u64::from(TODAY))
    });
    unseal(&sealed, &ctx.keys[c]).at("replayed seal")?;
    Ok(())
}

/// One complete set-up: the vendor's delivery server, the customers,
/// and everything the workload's first op needs.
pub struct Bench {
    pub ctx: Ctx,
    running: RunningDelivery,
    pub rigs: Vec<Rig>,
}

impl Bench {
    pub fn set_up(workload: Workload, seed: u64, corrupt_op: Option<u64>) -> Result<Self, String> {
        let mut vendor = AppletServer::new("byu", VENDOR_KEY.to_vec());
        let mut keys = Vec::new();
        for c in 0..CUSTOMERS {
            let license = vendor.enroll(
                &format!("customer-{c}"),
                "virtex-kcm",
                CapabilitySet::licensed(),
                0,
                365,
            );
            keys.push(bundle_key(VENDOR_KEY, &license));
        }
        let service = Arc::new(DeliveryService::new(vendor, VENDOR_KEY.to_vec()));
        let running = service
            .serve(WireConfig::default())
            .at("start delivery server")?;
        let addr = running.addr();
        let mut constraints = TimingConstraints::new();
        constraints.clock("clk", CLOCK_NS, "clk");

        let design = match workload {
            Workload::Journey => None,
            Workload::CosimSweep => {
                // A seeded constant of magnitude 1025..=2047, so every
                // seed's product is 27 bits wide and moves as many bytes.
                let magnitude = 1025 + (hash(seed, 3) % 1023) as i64;
                let sign = if hash(seed, 4).is_multiple_of(2) {
                    1
                } else {
                    -1
                };
                Some(Kcm::full(sign * magnitude, SWEEP_WIDTH))
            }
            Workload::CosimEvents => Some(Kcm::paper()),
        };
        let slices = if workload == Workload::CosimSweep {
            let width = SWEEP_WIDTH;
            (0..(1usize << width) / SWEEP_VECTORS)
                .map(|s| multiplicand_inputs(&sweep_slice(s).collect::<Vec<_>>(), width))
                .collect()
        } else {
            Vec::new()
        };
        if let Some(kcm) = &design {
            let circuit = Circuit::from_generator(&kcm.generator()).at("generate")?;
            service.register_design_timed(
                "kcm",
                circuit,
                LintConfig::default(),
                constraints.clone(),
            );
        }
        let ctx = Ctx {
            workload,
            seed,
            corrupt_op,
            service: Arc::clone(&service),
            addr,
            constraints,
            keys,
            design,
            slices,
        };

        let rigs = (0..CUSTOMERS)
            .map(|c| set_up_customer(&ctx, c))
            .collect::<Result<_, _>>()?;
        Ok(Bench { ctx, running, rigs })
    }

    /// Wire errors the delivery and black-box servers answered so far.
    pub fn server_errors(&self) -> u64 {
        let blackboxes = self.rigs.iter().map(|rig| match rig {
            Rig::Journey { customer }
            | Rig::Sweep { customer, .. }
            | Rig::Events { customer, .. } => customer.blackbox.stats().totals().errors,
        });
        self.running.stats().totals().errors + blackboxes.sum::<u64>()
    }

    pub fn shut_down(self) -> Result<(), String> {
        for rig in self.rigs {
            rig.shut_down()?;
        }
        self.running.shutdown().at("stop delivery server")?;
        Ok(())
    }
}

fn set_up_customer(ctx: &Ctx, c: usize) -> Result<Rig, String> {
    let mut host = AppletHost::new();
    host.grant_network_permission();
    let id = format!("customer-{c}");
    first_sync(ctx.addr, &id, &mut host)?;
    let slot: ModelSlot = Arc::new(Mutex::new(None));
    let factory_slot = Arc::clone(&slot);
    let blackbox = BlackBoxServer::bind(&host)
        .at("bind black box")?
        .start(move || {
            let model = factory_slot.lock().expect("model slot lock").take();
            let model = model.ok_or_else(|| CosimError::Wiring {
                reason: "no model staged for this session".to_owned(),
            })?;
            Ok(Box::new(model) as Box<dyn SimModel + Send>)
        });
    let mut customer = Customer {
        id,
        key: ctx.keys[c],
        host,
        slot,
        blackbox,
    };
    let Some(kcm) = &ctx.design else {
        return Ok(Rig::Journey { customer });
    };
    let (imported, _) = customer.fetch_design(ctx, "kcm")?;
    let local = Box::new(LocalSimModel::new(&imported).at("compile model")?);
    let client = customer.connect_model((*local).clone())?;
    Ok(match ctx.workload {
        Workload::CosimSweep => Rig::Sweep {
            customer,
            client,
            offset: (hash(ctx.seed, 200 + c as u64) % ctx.slices.len() as u64) as usize,
            local,
            sweep: Box::new(
                VectorSweep::new(&imported)
                    .at("compile sweep")?
                    .cycles(u64::from(kcm.latency())),
            ),
        },
        _ => {
            let stats = client.transport().stats();
            let seed = hash(ctx.seed, 300 + c as u64);
            let (system, sink) = fig4_system(seed, kcm, Box::new(Timed(client)))?;
            Rig::Events {
                customer,
                system,
                sink,
                stats,
                local,
                steps: 0,
                seed,
            }
        }
    })
}
