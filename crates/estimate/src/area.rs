//! Area estimation: resource totals, per-primitive breakdown and device
//! fitting.

use std::collections::BTreeMap;
use std::fmt;

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_techlib::{area_of, AreaCost, Device, FlatIndex};

use crate::error::EstimateError;

/// The area estimate an IP evaluation executable displays to a customer
/// (paper §3.2: "obtaining area and timing estimates").
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// Total resource cost.
    pub total: AreaCost,
    /// Per-primitive-kind counts and costs, keyed by primitive name.
    pub by_primitive: BTreeMap<String, (usize, AreaCost)>,
    /// Number of black-box leaves whose internals are hidden (their
    /// area is *not* included — the vendor reports it separately).
    pub black_boxes: usize,
    /// The smallest catalog device that fits, if any.
    pub device: Option<Device>,
    /// Utilization of the chosen device, percent of the scarcest
    /// resource.
    pub utilization: Option<f64>,
}

impl AreaReport {
    /// Estimates the area of an indexed design.
    ///
    /// # Errors
    ///
    /// Refuses what [`FlatIndex::check_primitives`] refuses.
    pub fn from_index(index: &FlatIndex) -> Result<Self, EstimateError> {
        index.check_primitives()?;
        let mut total = AreaCost::zero();
        let mut by_primitive: BTreeMap<String, (usize, AreaCost)> = BTreeMap::new();
        let mut black_boxes = 0usize;
        for kind in index.kinds() {
            let Some(kind) = kind else {
                black_boxes += 1;
                continue;
            };
            let cost = area_of(kind);
            total += cost;
            let entry = by_primitive
                .entry(kind.name().to_owned())
                .or_insert((0, AreaCost::zero()));
            entry.0 += 1;
            entry.1 += cost;
        }
        let device = Device::smallest_fitting(&total);
        let utilization = device.map(|d| d.utilization(&total));
        Ok(AreaReport {
            total,
            by_primitive,
            black_boxes,
            device,
            utilization,
        })
    }

    /// Estimated slice count.
    #[must_use]
    pub fn slices(&self) -> u32 {
        self.total.slices()
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area: {} LUTs, {} FFs, {} carry cells, {} pads ({} slices)",
            self.total.luts,
            self.total.ffs,
            self.total.carries,
            self.total.pads,
            self.slices()
        )?;
        for (name, (count, cost)) in &self.by_primitive {
            writeln!(
                f,
                "  {name:<12} x{count:<5} ({} LUT, {} FF, {} carry)",
                cost.luts, cost.ffs, cost.carries
            )?;
        }
        if self.black_boxes > 0 {
            writeln!(
                f,
                "  (+{} protected black box(es), area not shown)",
                self.black_boxes
            )?;
        }
        match (self.device, self.utilization) {
            (Some(d), Some(u)) => writeln!(f, "fits: {} at {u:.1}% utilization", d.name),
            _ => writeln!(f, "fits: no catalog device is large enough"),
        }
    }
}

/// Estimates the area of a circuit: one elaboration plus
/// [`AreaReport::from_index`].
///
/// # Errors
///
/// Fails on flattening errors, unknown primitives, and primitives
/// whose pins do not match their library interface.
///
/// # Examples
///
/// ```
/// use ipd_estimate::estimate_area;
/// use ipd_hdl::{Circuit, PortSpec};
/// use ipd_techlib::LogicCtx;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new("t");
/// let mut ctx = circuit.root_ctx();
/// let a = ctx.add_port(PortSpec::input("a", 1))?;
/// let y = ctx.add_port(PortSpec::output("y", 1))?;
/// ctx.xor2(a, a, y)?;
/// let report = estimate_area(&circuit)?;
/// assert_eq!(report.total.luts, 1);
/// # Ok(())
/// # }
/// ```
pub fn estimate_area(circuit: &Circuit) -> Result<AreaReport, EstimateError> {
    AreaReport::from_index(&FlatIndex::new(FlatNetlist::build(circuit)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    #[test]
    fn counts_resources_by_kind() {
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 4)).unwrap();
        let t = ctx.wire("t", 4);
        for b in 0..4 {
            ctx.inv(Signal::bit_of(a, b), Signal::bit_of(t, b)).unwrap();
            ctx.fd(clk, Signal::bit_of(t, b), Signal::bit_of(y, b))
                .unwrap();
        }
        let report = estimate_area(&c).expect("estimate");
        assert_eq!(report.total.luts, 4);
        assert_eq!(report.total.ffs, 4);
        assert_eq!(report.slices(), 2);
        assert_eq!(report.by_primitive["inv"].0, 4);
        assert_eq!(report.by_primitive["fd"].0, 4);
        assert_eq!(report.device.map(|d| d.name), Some("xcv50"));
        let text = report.to_string();
        assert!(text.contains("4 LUTs"));
        assert!(text.contains("xcv50"));
    }

    #[test]
    fn black_boxes_are_counted_but_not_costed() {
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        ctx.black_box(
            "secret",
            vec![PortSpec::input("i", 1)],
            "u0",
            &[("i", a.into())],
        )
        .unwrap();
        let report = estimate_area(&c).expect("estimate");
        assert_eq!(report.total, AreaCost::zero());
        assert_eq!(report.black_boxes, 1);
        assert!(report.to_string().contains("protected black box"));
    }

    #[test]
    fn empty_circuit_fits_smallest_part() {
        let c = Circuit::new("empty");
        let report = estimate_area(&c).expect("estimate");
        assert_eq!(report.device.map(|d| d.name), Some("xcv50"));
        assert_eq!(report.utilization, Some(0.0));
    }
}
