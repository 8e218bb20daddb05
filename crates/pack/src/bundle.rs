//! Bundle partitioning — the reproduction of the paper's Table 1.
//!
//! "The binaries associated with the JHDL design tool are partitioned
//! into a number of smaller, more specific Jar archive files. This
//! allows a given applet to require only those Jar files required by
//! the applet code" (paper §4.4). Here the "binaries" are the actual
//! source modules of this workspace, embedded at compile time, so the
//! bundle sizes track the real code a delivery executable ships.
//!
//! The built-in bundles form one catalog per process. Each [`Bundle`]
//! memoizes its serialized container, so a bundle is compressed at
//! most once per process, on the thread that first needs its bytes or
//! its size, and every [`BundleSet`] holds `Arc` pointers into that
//! catalog.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::archive::Archive;
use crate::error::PackError;

/// One downloadable code bundle (a "Jar file").
#[derive(Debug, Clone)]
pub struct Bundle {
    name: String,
    description: String,
    archive: Archive,
    /// The serialized container, packed on first use: measuring,
    /// rendering (the Table 1 `Display`) and serving all read it.
    wire: OnceLock<Arc<[u8]>>,
}

impl PartialEq for Bundle {
    fn eq(&self, other: &Self) -> bool {
        // The memoized bytes are derived state, not identity.
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
            wire: OnceLock::new(),
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

    /// The serialized container ([`Archive::to_bytes`]), computed on
    /// the first call and shared behind an `Arc` thereafter, so serving
    /// the same bundle many times is a pointer clone.
    #[must_use]
    pub fn wire_bytes(&self) -> Arc<[u8]> {
        self.pack_once().0
    }

    /// [`Bundle::wire_bytes`], plus whether this call ran the
    /// compression: `true` for the one call that packed the bundle,
    /// `false` for every call that found the bytes already packed.
    #[must_use]
    pub fn pack_once(&self) -> (Arc<[u8]>, bool) {
        let mut packed_now = false;
        let wire = self.wire.get_or_init(|| {
            packed_now = true;
            self.archive.to_bytes().into()
        });
        (Arc::clone(wire), packed_now)
    }

    /// Compressed (download) size in bytes: the length of
    /// [`Bundle::wire_bytes`], so only the first call compresses.
    #[must_use]
    pub fn packed_size(&self) -> usize {
        self.wire_bytes().len()
    }

    /// Uncompressed payload size in bytes.
    #[must_use]
    pub fn raw_size(&self) -> usize {
        self.archive.raw_size()
    }
}

/// The built-in bundles, built once per process: the four Table 1
/// bundles first, then the optional ones.
fn catalog() -> &'static [Arc<Bundle>] {
    static CATALOG: OnceLock<Vec<Arc<Bundle>>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        [
            base_bundle(),
            virtex_bundle(),
            viewer_bundle(),
            applet_bundle(),
            netlist_bundle(),
            estimator_bundle(),
            modgen_bundle(),
        ]
        .into_iter()
        .map(Arc::new)
        .collect()
    })
}

/// A set of bundles with a size table, the analog of the paper's
/// Table 1. Bundles are held behind `Arc`, so clones and subsets share
/// them, packed bytes included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSet {
    bundles: Vec<Arc<Bundle>>,
}

impl BundleSet {
    /// The four bundles used by the constant-multiplier applet, the
    /// direct counterpart of the paper's Table 1:
    /// `JHDLBase` (circuit classes & simulator), `Virtex` (technology
    /// library), `Viewer` (schematic viewers), `Applet` (the module
    /// generator plus applet glue). Shares the process catalog.
    #[must_use]
    pub fn jhdl_applet_set() -> Self {
        BundleSet {
            bundles: catalog()[..4].to_vec(),
        }
    }

    /// The applet set plus the optional bundles a vendor can add for
    /// richer executables (netlisters, the estimator, the full module
    /// generator library). Shares the process catalog.
    #[must_use]
    pub fn full_set() -> Self {
        BundleSet {
            bundles: catalog().to_vec(),
        }
    }

    /// The bundles in order.
    #[must_use]
    pub fn bundles(&self) -> &[Arc<Bundle>] {
        &self.bundles
    }

    /// Looks up a bundle by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Arc<Bundle>> {
        self.bundles.iter().find(|b| b.name == name)
    }

    /// A subset by names, sharing `self`'s bundles (unknown names are
    /// skipped).
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
        self.bundles.iter().map(|b| b.packed_size()).sum()
    }

    /// Total uncompressed size of the set.
    #[must_use]
    pub fn total_raw(&self) -> usize {
        self.bundles.iter().map(|b| b.raw_size()).sum()
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

    #[test]
    fn wire_bytes_match_archive_bytes() {
        let mut text = "partial product lookup ".repeat(40);
        text.push_str(&"7".repeat(900));
        let bundle = Bundle::from_entries(
            "sample",
            "d",
            &[("one", &text), ("two", "0123"), ("empty", "")],
        )
        .unwrap();
        let fresh = bundle.archive().to_bytes();
        assert_eq!(bundle.wire_bytes()[..], fresh[..]);
        assert_eq!(bundle.packed_size(), fresh.len());
        assert_eq!(bundle.raw_size(), bundle.archive().raw_size());
        assert_eq!(
            &Archive::from_bytes(&bundle.wire_bytes()).unwrap(),
            bundle.archive()
        );
    }

    #[test]
    fn wire_bytes_are_memoized_and_shared() {
        let set = BundleSet::jhdl_applet_set();
        let bundle = set.get("Applet").expect("applet");
        let first = bundle.wire_bytes();
        let second = bundle.wire_bytes();
        assert!(
            Arc::ptr_eq(&first, &second),
            "serve-many is a pointer clone"
        );
        assert_eq!(first.len(), bundle.packed_size());
        let (third, packed_now) = bundle.pack_once();
        assert!(Arc::ptr_eq(&first, &third));
        assert!(!packed_now, "a packed bundle is never packed again");
    }

    #[test]
    fn subsets_share_bundle_storage() {
        let set = BundleSet::full_set();
        let sub = set.subset(&["Virtex", "Applet"]);
        assert_eq!(sub.bundles().len(), 2);
        for b in sub.bundles() {
            let original = set.get(b.name()).expect("from full set");
            assert!(Arc::ptr_eq(b, original), "{} not shared", b.name());
            assert!(Arc::ptr_eq(&b.wire_bytes(), &original.wire_bytes()));
        }
    }

    #[test]
    fn applet_set_shares_storage_with_full_set() {
        let full = BundleSet::full_set();
        let applet = BundleSet::jhdl_applet_set();
        assert_eq!(applet.bundles().len(), 4);
        for b in applet.bundles() {
            let original = full.get(b.name()).expect("subset of full");
            assert!(Arc::ptr_eq(b, original));
        }
    }

    #[test]
    fn catalog_is_packed_once_and_matches_fresh_compression() {
        let shared = BundleSet::full_set();
        for bundle in shared.bundles() {
            assert_eq!(
                bundle.packed_size(),
                bundle.archive().to_bytes().len(),
                "memoizing must not change the Table 1 size of {}",
                bundle.name()
            );
        }
        let again = BundleSet::full_set();
        for (a, b) in shared.bundles().iter().zip(again.bundles()) {
            assert!(Arc::ptr_eq(a, b), "{}: one catalog per process", a.name());
            let (bytes, packed_now) = b.pack_once();
            assert!(!packed_now, "{}: second access repacks nothing", b.name());
            assert!(Arc::ptr_eq(&bytes, &a.wire_bytes()));
        }
    }
}
