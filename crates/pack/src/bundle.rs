//! Bundle partitioning — the reproduction of the paper's Table 1.
//!
//! "The binaries associated with the JHDL design tool are partitioned
//! into a number of smaller, more specific Jar archive files. This
//! allows a given applet to require only those Jar files required by
//! the applet code" (paper §4.4). Here the "binaries" are the actual
//! source modules of this workspace, embedded at compile time, so the
//! bundle sizes track the real code a delivery executable ships.

use std::fmt;
use std::sync::OnceLock;

use crate::archive::Archive;
use crate::error::PackError;

/// One downloadable code bundle (a "Jar file").
#[derive(Debug, Clone)]
pub struct Bundle {
    name: String,
    description: String,
    archive: Archive,
    /// Memoized compressed size: measuring and rendering (the Table 1
    /// `Display`) must not re-run LZSS per call.
    packed_size: OnceLock<usize>,
}

impl PartialEq for Bundle {
    fn eq(&self, other: &Self) -> bool {
        // The memoized size is derived state, not identity.
        self.name == other.name
            && self.description == other.description
            && self.archive == other.archive
    }
}

impl Eq for Bundle {}

impl Bundle {
    /// Builds a bundle from `(entry name, contents)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::DuplicateEntry`] on repeated entry names.
    pub fn from_entries(
        name: impl Into<String>,
        description: impl Into<String>,
        entries: &[(&str, &str)],
    ) -> Result<Self, PackError> {
        let name = name.into();
        let mut archive = Archive::new(name.clone());
        for (entry_name, contents) in entries {
            archive.add(*entry_name, contents.as_bytes().to_vec())?;
        }
        Ok(Bundle {
            name,
            description: description.into(),
            archive,
            packed_size: OnceLock::new(),
        })
    }

    /// Bundle name, e.g. `"JHDLBase"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable description (the Table 1 description column).
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying archive.
    #[must_use]
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Compressed (download) size in bytes. The first call compresses
    /// the archive; every later call returns the memoized size.
    #[must_use]
    pub fn packed_size(&self) -> usize {
        *self.packed_size.get_or_init(|| self.archive.packed_size())
    }

    /// Uncompressed payload size in bytes.
    #[must_use]
    pub fn raw_size(&self) -> usize {
        self.archive.raw_size()
    }
}

/// A set of bundles with a size table, the analog of the paper's
/// Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSet {
    bundles: Vec<Bundle>,
}

impl BundleSet {
    /// Builds a set from bundles.
    #[must_use]
    pub fn new(bundles: Vec<Bundle>) -> Self {
        BundleSet { bundles }
    }

    /// The four bundles used by the constant-multiplier applet, the
    /// direct counterpart of the paper's Table 1:
    /// `JHDLBase` (circuit classes & simulator), `Virtex` (technology
    /// library), `Viewer` (schematic viewers), `Applet` (the module
    /// generator plus applet glue).
    #[must_use]
    pub fn jhdl_applet_set() -> Self {
        BundleSet::new(vec![
            base_bundle(),
            virtex_bundle(),
            viewer_bundle(),
            applet_bundle(),
        ])
    }

    /// The applet set plus the optional bundles a vendor can add for
    /// richer executables (netlisters, the estimator, the full module
    /// generator library).
    #[must_use]
    pub fn full_set() -> Self {
        let mut set = Self::jhdl_applet_set();
        set.bundles.push(netlist_bundle());
        set.bundles.push(estimator_bundle());
        set.bundles.push(modgen_bundle());
        set
    }

    /// The bundles in order.
    #[must_use]
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Looks up a bundle by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Bundle> {
        self.bundles.iter().find(|b| b.name == name)
    }

    /// A subset by names (unknown names are skipped).
    #[must_use]
    pub fn subset(&self, names: &[&str]) -> BundleSet {
        BundleSet {
            bundles: self
                .bundles
                .iter()
                .filter(|b| names.contains(&b.name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Total download size of the set.
    #[must_use]
    pub fn total_packed(&self) -> usize {
        self.bundles.iter().map(Bundle::packed_size).sum()
    }

    /// Total uncompressed size of the set.
    #[must_use]
    pub fn total_raw(&self) -> usize {
        self.bundles.iter().map(Bundle::raw_size).sum()
    }
}

impl fmt::Display for BundleSet {
    /// Renders the Table 1 layout: file, size, description.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<14} {:>9}  Description", "File", "Size")?;
        for b in &self.bundles {
            writeln!(
                f,
                "{:<14} {:>6} kB  {}",
                format!("{}.jar", b.name()),
                b.packed_size().div_ceil(1024),
                b.description()
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>6} kB",
            "Total",
            self.total_packed().div_ceil(1024)
        )
    }
}

fn base_bundle() -> Bundle {
    Bundle::from_entries(
        "JHDLBase",
        "Circuit classes & simulator",
        &[
            ("hdl/logic.rs", include_str!("../../hdl/src/logic.rs")),
            ("hdl/cell.rs", include_str!("../../hdl/src/cell.rs")),
            ("hdl/wire.rs", include_str!("../../hdl/src/wire.rs")),
            ("hdl/circuit.rs", include_str!("../../hdl/src/circuit.rs")),
            ("hdl/flatten.rs", include_str!("../../hdl/src/flatten.rs")),
            ("hdl/validate.rs", include_str!("../../hdl/src/validate.rs")),
            ("hdl/stats.rs", include_str!("../../hdl/src/stats.rs")),
            ("hdl/id.rs", include_str!("../../hdl/src/id.rs")),
            ("hdl/error.rs", include_str!("../../hdl/src/error.rs")),
            ("hdl/lib.rs", include_str!("../../hdl/src/lib.rs")),
            ("sim/graph.rs", include_str!("../../sim/src/graph.rs")),
            (
                "sim/simulator.rs",
                include_str!("../../sim/src/simulator.rs"),
            ),
            ("sim/waveform.rs", include_str!("../../sim/src/waveform.rs")),
            ("sim/error.rs", include_str!("../../sim/src/error.rs")),
            ("sim/lib.rs", include_str!("../../sim/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

fn virtex_bundle() -> Bundle {
    Bundle::from_entries(
        "Virtex",
        "Virtex technology library",
        &[
            ("techlib/prim.rs", include_str!("../../techlib/src/prim.rs")),
            (
                "techlib/builder.rs",
                include_str!("../../techlib/src/builder.rs"),
            ),
            ("techlib/area.rs", include_str!("../../techlib/src/area.rs")),
            (
                "techlib/delay.rs",
                include_str!("../../techlib/src/delay.rs"),
            ),
            (
                "techlib/device.rs",
                include_str!("../../techlib/src/device.rs"),
            ),
            (
                "techlib/error.rs",
                include_str!("../../techlib/src/error.rs"),
            ),
            (
                "techlib/index.rs",
                include_str!("../../techlib/src/index.rs"),
            ),
            ("techlib/lib.rs", include_str!("../../techlib/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

fn viewer_bundle() -> Bundle {
    Bundle::from_entries(
        "Viewer",
        "Schematic viewers",
        &[
            (
                "viewer/hierarchy.rs",
                include_str!("../../viewer/src/hierarchy.rs"),
            ),
            (
                "viewer/schematic.rs",
                include_str!("../../viewer/src/schematic.rs"),
            ),
            (
                "viewer/layout.rs",
                include_str!("../../viewer/src/layout.rs"),
            ),
            ("viewer/wave.rs", include_str!("../../viewer/src/wave.rs")),
            ("viewer/lib.rs", include_str!("../../viewer/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

fn applet_bundle() -> Bundle {
    Bundle::from_entries(
        "Applet",
        "Module generator & applet",
        &[
            ("modgen/kcm.rs", include_str!("../../modgen/src/kcm.rs")),
            (
                "applet/manifest.txt",
                "applet: kcm-evaluator\nmain: KcmAppletSession\nrequires: JHDLBase, Virtex, Viewer\n",
            ),
        ],
    )
    .expect("static entry names are unique")
}

fn netlist_bundle() -> Bundle {
    Bundle::from_entries(
        "Netlist",
        "EDIF/VHDL/Verilog netlisters (licensed users)",
        &[
            ("netlist/edif.rs", include_str!("../../netlist/src/edif.rs")),
            ("netlist/vhdl.rs", include_str!("../../netlist/src/vhdl.rs")),
            (
                "netlist/verilog.rs",
                include_str!("../../netlist/src/verilog.rs"),
            ),
            (
                "netlist/names.rs",
                include_str!("../../netlist/src/names.rs"),
            ),
            (
                "netlist/sexpr.rs",
                include_str!("../../netlist/src/sexpr.rs"),
            ),
            (
                "netlist/error.rs",
                include_str!("../../netlist/src/error.rs"),
            ),
            ("netlist/lib.rs", include_str!("../../netlist/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

fn estimator_bundle() -> Bundle {
    Bundle::from_entries(
        "Estimator",
        "Area & timing estimator",
        &[
            (
                "estimate/area.rs",
                include_str!("../../estimate/src/area.rs"),
            ),
            (
                "estimate/timing.rs",
                include_str!("../../estimate/src/timing.rs"),
            ),
            (
                "estimate/error.rs",
                include_str!("../../estimate/src/error.rs"),
            ),
            ("estimate/lib.rs", include_str!("../../estimate/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

fn modgen_bundle() -> Bundle {
    Bundle::from_entries(
        "ModGen",
        "Full module generator library",
        &[
            ("modgen/add.rs", include_str!("../../modgen/src/add.rs")),
            ("modgen/kcm.rs", include_str!("../../modgen/src/kcm.rs")),
            ("modgen/mult.rs", include_str!("../../modgen/src/mult.rs")),
            (
                "modgen/bitsum.rs",
                include_str!("../../modgen/src/bitsum.rs"),
            ),
            (
                "modgen/counter.rs",
                include_str!("../../modgen/src/counter.rs"),
            ),
            (
                "modgen/register.rs",
                include_str!("../../modgen/src/register.rs"),
            ),
            (
                "modgen/compare.rs",
                include_str!("../../modgen/src/compare.rs"),
            ),
            ("modgen/rom.rs", include_str!("../../modgen/src/rom.rs")),
            ("modgen/accum.rs", include_str!("../../modgen/src/accum.rs")),
            ("modgen/fir.rs", include_str!("../../modgen/src/fir.rs")),
            (
                "modgen/logicgen.rs",
                include_str!("../../modgen/src/logicgen.rs"),
            ),
            ("modgen/lib.rs", include_str!("../../modgen/src/lib.rs")),
        ],
    )
    .expect("static entry names are unique")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applet_set_has_the_four_table1_rows() {
        let set = BundleSet::jhdl_applet_set();
        let names: Vec<_> = set.bundles().iter().map(|b| b.name().to_owned()).collect();
        assert_eq!(names, ["JHDLBase", "Virtex", "Viewer", "Applet"]);
    }

    #[test]
    fn table1_shape_holds() {
        // The paper's Table 1 shape: the base bundle is the largest,
        // the applet bundle by far the smallest, and partitioning lets
        // an applet skip unneeded code.
        let set = BundleSet::jhdl_applet_set();
        let base = set.get("JHDLBase").unwrap().packed_size();
        let virtex = set.get("Virtex").unwrap().packed_size();
        let viewer = set.get("Viewer").unwrap().packed_size();
        let applet = set.get("Applet").unwrap().packed_size();
        assert!(base > virtex, "base {base} > virtex {virtex}");
        assert!(virtex > viewer, "virtex {virtex} > viewer {viewer}");
        assert!(viewer > applet, "viewer {viewer} > applet {applet}");
        assert!(base > 5 * applet, "applet is by far the smallest");
    }

    #[test]
    fn compression_saves_bandwidth() {
        let set = BundleSet::jhdl_applet_set();
        assert!(set.total_packed() < set.total_raw());
    }

    #[test]
    fn bundles_round_trip_through_bytes() {
        let set = BundleSet::jhdl_applet_set();
        for bundle in set.bundles() {
            let bytes = bundle.archive().to_bytes();
            let back = Archive::from_bytes(&bytes).expect("reparse");
            assert_eq!(&back, bundle.archive(), "bundle {}", bundle.name());
        }
    }

    #[test]
    fn table_renders_like_table1() {
        let set = BundleSet::jhdl_applet_set();
        let table = set.to_string();
        assert!(table.contains("JHDLBase.jar"));
        assert!(table.contains("Applet.jar"));
        assert!(table.contains("Total"));
        assert!(table.contains("kB"));
    }

    #[test]
    fn subset_selects_by_name() {
        let set = BundleSet::full_set();
        let sub = set.subset(&["Virtex", "Netlist", "nope"]);
        assert_eq!(sub.bundles().len(), 2);
        assert!(sub.get("Netlist").is_some());
    }

    #[test]
    fn full_set_extends_applet_set() {
        let set = BundleSet::full_set();
        assert_eq!(set.bundles().len(), 7);
        assert!(set.get("Estimator").is_some());
        assert!(set.get("ModGen").is_some());
    }
}
