//! The applet session: the interactive surface of an IP delivery
//! executable, with every operation gated by the executable's
//! capability set.
//!
//! This is the paper's Figure 3 made programmatic: choose parameters,
//! press *build*, browse the schematic, *cycle*/*reset* the simulator,
//! and — for licensed users — press *netlist*.
//!
//! *Build* elaborates the circuit once: it flattens and indexes it, and
//! every aid (area, timing, device fit, slack, lint, the layout view
//! and the simulator) reads that one [`FlatIndex`].

use std::sync::Arc;

use ipd_estimate::{AreaReport, SlackSummary, Sta, StaReport, TimingConstraints, TimingReport};
use ipd_hdl::{Circuit, FlatNetlist, Generator, LogicVec};
use ipd_netlist::NetlistFormat;
use ipd_sim::{NetlistGraph, Simulator};
use ipd_techlib::{DelayModel, FlatIndex, NetDelaySource};

use crate::capability::Capability;
use crate::deliver::IpExecutable;
use crate::error::CoreError;
use crate::host::{AppletHost, ResourceLimits};

/// An interactive IP evaluation session inside an applet host.
///
/// # Examples
///
/// The paper's KCM applet flow:
///
/// ```
/// use ipd_core::{AppletHost, AppletSession, CapabilitySet, IpExecutable};
/// use ipd_modgen::KcmMultiplier;
///
/// # fn main() -> Result<(), ipd_core::CoreError> {
/// let exe = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::licensed());
/// let mut host = AppletHost::new();
/// host.load(&exe);
/// let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
/// let mut session = AppletSession::new(&exe, &host, Box::new(kcm));
/// session.build()?;
/// let schematic = session.schematic()?;          // structural view
/// session.set_i64("multiplicand", 3)?;           // simulate
/// let product = session.peek("product")?;
/// let edif = session.netlist(ipd_netlist::NetlistFormat::Edif)?;
/// assert!(schematic.contains("kcm"));
/// assert!(edif.starts_with("(edif"));
/// assert_eq!(product.to_i64(), Some(-42)); // (-56 × 3) >> 2: top 12 of 14 bits
/// # Ok(())
/// # }
/// ```
pub struct AppletSession {
    executable: IpExecutable,
    limits: ResourceLimits,
    generator: Box<dyn Generator>,
    built: Option<Built>,
    simulator: Option<Simulator>,
}

/// A built circuit and its one elaboration.
struct Built {
    circuit: Circuit,
    index: FlatIndex,
}

impl std::fmt::Debug for AppletSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppletSession")
            .field("executable", &self.executable)
            .field("generator", &self.generator.type_name())
            .field("built", &self.built.is_some())
            .finish()
    }
}

impl AppletSession {
    /// Opens a session for a generator under an executable's
    /// capability set, inside a host's sandbox limits.
    #[must_use]
    pub fn new(
        executable: &IpExecutable,
        host: &AppletHost,
        generator: Box<dyn Generator>,
    ) -> Self {
        AppletSession {
            executable: executable.clone(),
            limits: host.limits(),
            generator,
            built: None,
            simulator: None,
        }
    }

    /// The executable configuration this session runs under.
    #[must_use]
    pub fn executable(&self) -> &IpExecutable {
        &self.executable
    }

    /// The generator's type name (shown in the applet's title bar).
    #[must_use]
    pub fn generator_name(&self) -> String {
        self.generator.type_name()
    }

    /// The IP's port interface — always visible; it is what the
    /// customer integrates against.
    #[must_use]
    pub fn interface(&self) -> Vec<ipd_hdl::PortSpec> {
        self.generator.ports()
    }

    fn require(&self, cap: Capability) -> Result<(), CoreError> {
        if self.executable.capabilities().allows(cap) {
            Ok(())
        } else {
            Err(CoreError::CapabilityDenied { capability: cap })
        }
    }

    fn built(&self) -> Result<&Built, CoreError> {
        self.built.as_ref().ok_or(CoreError::NotBuilt)
    }

    fn circuit(&self) -> Result<&Circuit, CoreError> {
        Ok(&self.built()?.circuit)
    }

    fn index(&self) -> Result<&FlatIndex, CoreError> {
        Ok(&self.built()?.index)
    }

    /// The analyzer over the built design, under the Virtex delay
    /// model and placement-aware heuristic net delays.
    fn sta(&self) -> Result<Sta<'_>, CoreError> {
        let index = self.index()?;
        Ok(Sta::new(
            index,
            &DelayModel::virtex(),
            NetDelaySource::Heuristic,
        )?)
    }

    fn simulator(&mut self) -> Result<&mut Simulator, CoreError> {
        self.require(Capability::Simulate)?;
        if self.simulator.is_none() {
            let graph = NetlistGraph::build(self.index()?, None)?;
            self.simulator = Some(Simulator::from_graph(Arc::new(graph)));
        }
        Ok(self.simulator.as_mut().expect("just created"))
    }

    /// The *build* button: runs the generator, then flattens and
    /// indexes the circuit once for every aid to read.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Configure`]; fails on generator errors or
    /// when the result exceeds the sandbox's cell limit.
    pub fn build(&mut self) -> Result<(), CoreError> {
        self.require(Capability::Configure)?;
        let circuit = Circuit::from_generator(self.generator.as_ref())?;
        let cells = circuit.cell_count() as u64;
        if cells > self.limits.max_cells {
            return Err(CoreError::ResourceLimit {
                limit: "max_cells",
                max: self.limits.max_cells,
                requested: cells,
            });
        }
        let index = FlatIndex::new(FlatNetlist::build(&circuit)?);
        self.built = Some(Built { circuit, index });
        self.simulator = None;
        Ok(())
    }

    /// `true` once a circuit instance exists.
    #[must_use]
    pub fn is_built(&self) -> bool {
        self.built.is_some()
    }

    /// Area estimate (the evaluation panel of the paper's Figure 1).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Estimate`] and a built circuit.
    pub fn estimate_area(&self) -> Result<AreaReport, CoreError> {
        self.require(Capability::Estimate)?;
        Ok(AreaReport::from_index(self.index()?)?)
    }

    /// Timing estimate.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Estimate`] and a built circuit.
    pub fn estimate_timing(&self) -> Result<TimingReport, CoreError> {
        self.require(Capability::Estimate)?;
        Ok(self.sta()?.estimate())
    }

    /// The schematic view of the top level.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::StructuralView`] and a built circuit.
    pub fn schematic(&self) -> Result<String, CoreError> {
        self.require(Capability::StructuralView)?;
        let circuit = self.circuit()?;
        Ok(ipd_viewer::schematic_text(circuit, circuit.root()))
    }

    /// The schematic as SVG (for the web page around the applet).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::StructuralView`] and a built circuit.
    pub fn schematic_svg(&self) -> Result<String, CoreError> {
        self.require(Capability::StructuralView)?;
        let circuit = self.circuit()?;
        Ok(ipd_viewer::schematic_svg(circuit, circuit.root()))
    }

    /// The full hierarchy browser.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::StructuralView`] and a built circuit.
    pub fn hierarchy(&self) -> Result<String, CoreError> {
        self.require(Capability::StructuralView)?;
        Ok(ipd_viewer::hierarchy_tree(self.circuit()?))
    }

    /// The relative-layout occupancy view.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::LayoutView`] and a built circuit.
    pub fn layout(&self) -> Result<String, CoreError> {
        self.require(Capability::LayoutView)?;
        Ok(ipd_viewer::layout_grid(self.index()?.flat()))
    }

    /// Drives a primary input (simulator panel).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Simulate`]; propagates simulator errors.
    pub fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CoreError> {
        self.simulator()?.set(port, value)?;
        Ok(())
    }

    /// Drives a primary input with an unsigned integer.
    ///
    /// # Errors
    ///
    /// As for [`AppletSession::set`].
    pub fn set_u64(&mut self, port: &str, value: u64) -> Result<(), CoreError> {
        self.simulator()?.set_u64(port, value)?;
        Ok(())
    }

    /// Drives a primary input with a signed integer.
    ///
    /// # Errors
    ///
    /// As for [`AppletSession::set`].
    pub fn set_i64(&mut self, port: &str, value: i64) -> Result<(), CoreError> {
        self.simulator()?.set_i64(port, value)?;
        Ok(())
    }

    /// The *Cycle* button.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Simulate`]; enforces the sandbox cycle
    /// limit per call.
    pub fn cycle(&mut self, n: u64) -> Result<(), CoreError> {
        if n > self.limits.max_cycles_per_call {
            return Err(CoreError::ResourceLimit {
                limit: "max_cycles_per_call",
                max: self.limits.max_cycles_per_call,
                requested: n,
            });
        }
        self.simulator()?.cycle(n)?;
        Ok(())
    }

    /// The *Reset* button.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Simulate`] and a built circuit.
    pub fn reset(&mut self) -> Result<(), CoreError> {
        self.simulator()?.reset();
        Ok(())
    }

    /// Reads a primary port.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Simulate`]; propagates simulator errors.
    pub fn peek(&mut self, port: &str) -> Result<LogicVec, CoreError> {
        Ok(self.simulator()?.peek(port)?)
    }

    /// Reads an internal net — this needs *structural* visibility on
    /// top of simulation (a black-box executable can only see ports).
    ///
    /// # Errors
    ///
    /// Requires both [`Capability::Simulate`] and
    /// [`Capability::StructuralView`].
    pub fn peek_net(&mut self, net: &str) -> Result<ipd_hdl::Logic, CoreError> {
        self.require(Capability::StructuralView)?;
        Ok(self.simulator()?.peek_net(net)?)
    }

    /// Starts recording a waveform for a port.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::WaveformView`] (and simulation).
    pub fn record(&mut self, port: &str) -> Result<(), CoreError> {
        self.require(Capability::WaveformView)?;
        self.simulator()?.record(port)?;
        Ok(())
    }

    /// Renders recorded waveforms.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::WaveformView`].
    pub fn waveforms(&mut self) -> Result<String, CoreError> {
        self.require(Capability::WaveformView)?;
        let sim = self.simulator()?;
        Ok(ipd_viewer::waveform_text(sim.traces()))
    }

    /// Reads memory contents by instance path (the memory viewer).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::MemoryView`].
    pub fn memory(&mut self, path: &str) -> Result<Option<LogicVec>, CoreError> {
        self.require(Capability::MemoryView)?;
        Ok(self.simulator()?.memory(path))
    }

    /// Exports recorded waveforms as a Value Change Dump for the
    /// customer's own viewer.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::WaveformView`]; fails on I/O errors.
    pub fn export_vcd(&mut self) -> Result<String, CoreError> {
        self.require(Capability::WaveformView)?;
        let sim = self.simulator()?;
        let mut buf = Vec::new();
        ipd_sim::write_vcd(sim.traces(), &mut buf)
            .map_err(|e| CoreError::Netlist(ipd_netlist::NetlistError::Io(e)))?;
        Ok(String::from_utf8(buf).expect("VCD output is ASCII"))
    }

    /// Device-fit feedback: the smallest catalog part that holds the
    /// instance, or whether a named part fits (the applet's evaluation
    /// panel).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Estimate`] and a built circuit.
    pub fn device_fit(&self, part: Option<&str>) -> Result<String, CoreError> {
        self.require(Capability::Estimate)?;
        let area = AreaReport::from_index(self.index()?)?;
        match part {
            None => Ok(match area.device {
                Some(d) => format!(
                    "smallest fitting part: {} at {:.1}% utilization",
                    d,
                    area.utilization.unwrap_or(0.0)
                ),
                None => "no catalog part fits this instance".to_owned(),
            }),
            Some(name) => match ipd_techlib::Device::by_name(name) {
                None => Ok(format!("unknown part {name}")),
                Some(d) => Ok(if d.fits(&area.total) {
                    format!(
                        "{} fits at {:.1}% utilization",
                        d.name,
                        d.utilization(&area.total)
                    )
                } else {
                    format!("{} does not fit ({} LUTs needed)", d.name, area.total.luts)
                }),
            },
        }
    }

    /// Constraint-evaluated slack summary: per-clock worst slack,
    /// violation counts and slack histograms. Aggregate only — no
    /// endpoint names or paths leak — so an evaluation or black-box
    /// customer can check timing closure without seeing structure.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::TimingView`] and a built circuit;
    /// propagates STA failures (e.g. a combinational loop).
    pub fn slack_summary(
        &self,
        constraints: &TimingConstraints,
    ) -> Result<SlackSummary, CoreError> {
        self.require(Capability::TimingView)?;
        Ok(self.sta()?.analyze(constraints).slack_summary())
    }

    /// The full STA report with named endpoints and critical paths.
    /// Path steps name internal nets, so this needs structural
    /// visibility on top of [`Capability::TimingView`].
    ///
    /// # Errors
    ///
    /// Requires [`Capability::TimingView`] and
    /// [`Capability::StructuralView`], plus a built circuit.
    pub fn sta_report(&self, constraints: &TimingConstraints) -> Result<StaReport, CoreError> {
        self.require(Capability::TimingView)?;
        self.require(Capability::StructuralView)?;
        Ok(self.sta()?.analyze(constraints))
    }

    /// The *Lint* button: runs the full static-analysis engine over
    /// the built instance. Diagnostics name internal hierarchical
    /// paths, so this needs structural visibility — a black-box
    /// evaluator cannot use lint findings to map the implementation.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::StructuralView`] and a built circuit.
    pub fn lint(&self) -> Result<ipd_lint::LintReport, CoreError> {
        self.require(Capability::StructuralView)?;
        Ok(ipd_lint::Linter::new().run_index(self.index()?))
    }

    /// The *Netlist* button: generates the deliverable netlist.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Netlist`]; enforces the sandbox output
    /// size limit.
    pub fn netlist(&mut self, format: NetlistFormat) -> Result<String, CoreError> {
        self.require(Capability::Netlist)?;
        let text = format.generate(self.circuit()?)?;
        if text.len() as u64 > self.limits.max_netlist_bytes {
            return Err(CoreError::ResourceLimit {
                limit: "max_netlist_bytes",
                max: self.limits.max_netlist_bytes,
                requested: text.len() as u64,
            });
        }
        Ok(text)
    }

    /// Exposes the simulator for black-box export over a socket (used
    /// by the co-simulation server; the host must separately grant
    /// network permission).
    ///
    /// # Errors
    ///
    /// Requires [`Capability::BlackBoxExport`].
    pub fn black_box_simulator(&mut self) -> Result<&mut Simulator, CoreError> {
        self.require(Capability::BlackBoxExport)?;
        self.require(Capability::Simulate)?;
        self.simulator()
    }

    /// The built circuit, for protection passes (watermark/obfuscate)
    /// run by the *vendor* before delivery. Gated on the netlist
    /// capability since it exposes full structure.
    ///
    /// # Errors
    ///
    /// Requires [`Capability::Netlist`] and a built circuit.
    pub fn circuit_for_delivery(&self) -> Result<&Circuit, CoreError> {
        self.require(Capability::Netlist)?;
        self.circuit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use ipd_modgen::KcmMultiplier;

    fn session(caps: CapabilitySet) -> AppletSession {
        let exe = IpExecutable::new("kcm", "byu", caps);
        let host = AppletHost::new();
        let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
        AppletSession::new(&exe, &host, Box::new(kcm))
    }

    #[test]
    fn licensed_session_full_flow() {
        let mut s = session(CapabilitySet::licensed());
        assert!(!s.is_built());
        s.build().unwrap();
        assert!(s.is_built());
        let area = s.estimate_area().unwrap();
        assert!(area.total.luts > 0);
        let timing = s.estimate_timing().unwrap();
        assert!(timing.critical_path_ns > 0.0);
        assert!(s.schematic().unwrap().contains("pp0"));
        assert!(s.hierarchy().unwrap().contains("kcm"));
        let lint = s.lint().unwrap();
        assert!(lint.is_clean() && lint.diags().is_empty(), "{lint}");
        assert!(s.layout().unwrap().contains('|'));
        s.set_i64("multiplicand", 2).unwrap();
        assert_eq!(s.peek("product").unwrap().to_i64(), Some(-28)); // (-56 × 2) >> 2
        let edif = s.netlist(NetlistFormat::Edif).unwrap();
        assert!(edif.starts_with("(edif"));
    }

    #[test]
    fn passive_session_denies_visibility() {
        let mut s = session(CapabilitySet::passive());
        s.build().unwrap();
        s.estimate_area().unwrap();
        assert!(matches!(
            s.schematic(),
            Err(CoreError::CapabilityDenied {
                capability: Capability::StructuralView
            })
        ));
        assert!(matches!(
            s.set_i64("multiplicand", 1),
            Err(CoreError::CapabilityDenied {
                capability: Capability::Simulate
            })
        ));
        assert!(matches!(
            s.lint(),
            Err(CoreError::CapabilityDenied {
                capability: Capability::StructuralView
            })
        ));
        assert!(matches!(
            s.netlist(NetlistFormat::Edif),
            Err(CoreError::CapabilityDenied {
                capability: Capability::Netlist
            })
        ));
    }

    #[test]
    fn black_box_session_simulates_but_hides() {
        let mut s = session(CapabilitySet::black_box());
        s.build().unwrap();
        s.set_i64("multiplicand", 3).unwrap();
        assert_eq!(s.peek("product").unwrap().to_i64(), Some(-42)); // (-56 × 3) >> 2
        assert!(s.schematic().is_err());
        assert!(
            s.peek_net("kcm_w8_p12_c-56_s/zero").is_err(),
            "no internal nets"
        );
        assert!(s.netlist(NetlistFormat::Vhdl).is_err());
        assert!(s.black_box_simulator().is_ok());
    }

    #[test]
    fn operations_before_build_fail() {
        let mut s = session(CapabilitySet::licensed());
        assert!(matches!(s.estimate_area(), Err(CoreError::NotBuilt)));
        assert!(matches!(s.peek("product"), Err(CoreError::NotBuilt)));
    }

    #[test]
    fn sandbox_cycle_limit() {
        let exe = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
        let host = AppletHost::with_limits(ResourceLimits {
            max_cells: 100_000,
            max_cycles_per_call: 10,
            max_netlist_bytes: 1 << 20,
        });
        let kcm = KcmMultiplier::new(5, 4, 7).pipelined(true);
        let mut s = AppletSession::new(&exe, &host, Box::new(kcm));
        s.build().unwrap();
        s.cycle(10).unwrap();
        assert!(matches!(
            s.cycle(11),
            Err(CoreError::ResourceLimit {
                limit: "max_cycles_per_call",
                ..
            })
        ));
    }

    #[test]
    fn sandbox_cell_limit() {
        let exe = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
        let host = AppletHost::with_limits(ResourceLimits {
            max_cells: 5,
            max_cycles_per_call: 10,
            max_netlist_bytes: 1 << 20,
        });
        let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
        let mut s = AppletSession::new(&exe, &host, Box::new(kcm));
        assert!(matches!(
            s.build(),
            Err(CoreError::ResourceLimit {
                limit: "max_cells",
                ..
            })
        ));
    }

    #[test]
    fn waveform_flow() {
        let mut s = session(CapabilitySet::licensed());
        s.build().unwrap();
        s.record("product").unwrap();
        s.set_i64("multiplicand", 1).unwrap();
        // Combinational KCM has no clock; recording still works after
        // cycles on a pipelined instance — use waveforms text path.
        let text = s.waveforms().unwrap();
        assert!(text.contains("cycle"));
    }

    #[test]
    fn interface_always_visible() {
        let s = session(CapabilitySet::passive());
        let ports = s.interface();
        assert!(ports.iter().any(|p| p.name == "multiplicand"));
        assert!(ports.iter().any(|p| p.name == "product"));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use ipd_modgen::KcmMultiplier;

    fn session(caps: CapabilitySet) -> AppletSession {
        let exe = IpExecutable::new("kcm", "byu", caps);
        let host = AppletHost::new();
        let kcm = KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true);
        AppletSession::new(&exe, &host, Box::new(kcm))
    }

    #[test]
    fn vcd_export_flows_and_gates() {
        let mut s = session(CapabilitySet::licensed());
        s.build().unwrap();
        s.record("product").unwrap();
        s.set_i64("multiplicand", 5).unwrap();
        s.cycle(3).unwrap();
        let vcd = s.export_vcd().unwrap();
        assert!(vcd.contains("$var wire 12"));
        assert!(vcd.contains("$enddefinitions"));
        let mut passive = session(CapabilitySet::passive());
        passive.build().unwrap();
        assert!(matches!(
            passive.export_vcd(),
            Err(CoreError::CapabilityDenied { .. })
        ));
    }

    fn clk_constraints(period_ns: f64) -> TimingConstraints {
        let mut t = TimingConstraints::new();
        t.clock("clk", period_ns, "clk");
        t
    }

    #[test]
    fn timing_view_exposes_slack_without_structure() {
        // Black-box grants TimingView but not StructuralView: the
        // aggregate summary flows, the path-level report does not.
        let mut s = session(CapabilitySet::black_box());
        s.build().unwrap();
        let summary = s.slack_summary(&clk_constraints(100.0)).unwrap();
        assert!(!summary.clocks.is_empty());
        assert_eq!(summary.violations(), 0, "{summary}");
        assert!(matches!(
            s.sta_report(&clk_constraints(100.0)),
            Err(CoreError::CapabilityDenied {
                capability: Capability::StructuralView
            })
        ));
        // A licensed session sees the full report.
        let mut lic = session(CapabilitySet::licensed());
        lic.build().unwrap();
        let report = lic.sta_report(&clk_constraints(100.0)).unwrap();
        assert!(!report.endpoints.is_empty());
        // Passive sessions lack TimingView entirely.
        let mut passive = session(CapabilitySet::passive());
        passive.build().unwrap();
        assert!(matches!(
            passive.slack_summary(&clk_constraints(100.0)),
            Err(CoreError::CapabilityDenied {
                capability: Capability::TimingView
            })
        ));
    }

    #[test]
    fn device_fit_feedback() {
        let mut s = session(CapabilitySet::passive());
        s.build().unwrap();
        let auto = s.device_fit(None).unwrap();
        assert!(auto.contains("xcv50"), "{auto}");
        let named = s.device_fit(Some("xcv1000")).unwrap();
        assert!(named.contains("fits"), "{named}");
        assert!(s
            .device_fit(Some("xc9500"))
            .unwrap()
            .contains("unknown part"));
    }
}
