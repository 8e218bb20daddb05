//! The formal-equivalence CI gate: every example-zoo generator must
//! stay provably equivalent to its committed golden EDIF fixture, and
//! the committed mutated fixture (one LUT INIT bit flipped in the KCM)
//! must be refuted with a replay-confirmed counterexample.
//!
//! The fixtures pin the *function* of each generator: an accidental
//! change to a generator, the techlib builders, the flattener, or the
//! EDIF writer/reader that alters observable behaviour fails here with
//! a distinguishing input vector, not just a textual diff.
//!
//! Regenerate fixtures after an *intentional* functional change with:
//!
//! ```text
//! IPD_REGEN_GOLDEN=1 cargo test --test equiv_golden
//! ```

use std::fs;
use std::path::PathBuf;

use ipd::hdl::FlatNetlist;
use ipd::techlib::FlatIndex;
use ipd::verify::{check_equiv, EquivConfig, EquivVerdict};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

fn regen() -> bool {
    std::env::var_os("IPD_REGEN_GOLDEN").is_some()
}

fn read_flat(path: &PathBuf) -> FlatNetlist {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             regenerate with IPD_REGEN_GOLDEN=1 cargo test --test equiv_golden",
            path.display()
        )
    });
    let circuit = ipd::netlist::read_edif(&text).expect("golden fixture parses");
    FlatNetlist::build(&circuit).expect("golden fixture flattens")
}

#[test]
fn zoo_matches_committed_golden_fixtures() {
    fs::create_dir_all(fixture_dir()).unwrap();
    for (name, circuit) in ipd::modgen::example_zoo() {
        let path = fixture_dir().join(format!("{name}.edif"));
        if regen() {
            let edif = ipd::netlist::NetlistFormat::Edif
                .generate(&circuit)
                .expect("netlist");
            fs::write(&path, edif).unwrap();
        }
        let golden = read_flat(&path);
        let revised = FlatNetlist::build(&circuit).expect("zoo design flattens");
        let report = check_equiv(
            &FlatIndex::new(&golden),
            &FlatIndex::new(&revised),
            &EquivConfig::default(),
        )
        .expect("check completes");
        assert!(
            report.is_equivalent(),
            "{name} diverged from its committed golden fixture: {:?}\n\
             if the change is intentional, regenerate with IPD_REGEN_GOLDEN=1",
            report.verdict
        );
    }
}

/// The zoo's KCM multiplier (the paper's running example).
fn kcm() -> (String, FlatNetlist) {
    let (name, circuit) = ipd::modgen::example_zoo().remove(0);
    assert!(name.starts_with("kcm"), "zoo reordered: {name}");
    (name, FlatNetlist::build(&circuit).expect("kcm flattens"))
}

#[test]
fn mutated_fixture_is_refuted_with_replayed_vector() {
    let (kcm_name, golden) = kcm();
    let path = fixture_dir().join("mutated_kcm.edif");
    if regen() {
        // Flip the low bit of the first LUT INIT nibble in the golden
        // KCM fixture — a single-bit functional fault.
        let text = fs::read_to_string(fixture_dir().join(format!("{kcm_name}.edif"))).unwrap();
        let marker = "(property INIT (string \"";
        let at = text.find(marker).expect("kcm has INIT properties") + marker.len();
        let digit = text[at..].chars().next().expect("INIT digit");
        let flipped = char::from_digit(digit.to_digit(16).expect("hex INIT") ^ 1, 16).unwrap();
        let mut mutated = text;
        mutated.replace_range(at..at + 1, &flipped.to_uppercase().to_string());
        fs::write(&path, mutated).unwrap();
    }
    let mutated = read_flat(&path);
    // Replay is on by default: the reported vector has already been
    // cross-checked against both simulation engines.
    let report = check_equiv(
        &FlatIndex::new(&golden),
        &FlatIndex::new(&mutated),
        &EquivConfig::default(),
    )
    .expect("check completes");
    match report.verdict {
        EquivVerdict::NotEquivalent(cex) => {
            assert!(!cex.inputs.is_empty(), "vector must name the inputs");
            assert_ne!(cex.golden_value, cex.revised_value);
        }
        EquivVerdict::Equivalent => {
            panic!("mutated KCM fixture passed the equivalence gate")
        }
    }
}
