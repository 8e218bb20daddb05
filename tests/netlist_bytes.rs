//! Byte identity of the delivered-netlist path. The EDIF text the
//! writer emits, and the text re-emitted after an import, hash to
//! SHA-256 digests frozen from the writer and reader as they stood
//! before either was tuned for speed. Any change to the writer or the
//! reader that moves a byte on the wire fails here.

use std::path::PathBuf;

use ipd::core::{sha256, to_hex};
use ipd::hdl::Circuit;
use ipd::modgen::{example_zoo, KcmMultiplier};
use ipd::netlist::{edif_string, read_edif};

/// `(design, sha256(edif_string(c)), sha256(edif_string(read_edif(text))))`
/// for every `example_zoo()` design.
const ZOO: &[(&str, &str, &str)] = &[
    (
        "kcm_w8_p12_c-56_s",
        "09343e656fa51419a6cc58bb9909fd30df82d546b7b99e9083383672c20d801f",
        "a7bcb543396ba31ed2f73ad20eabab14ddeae65144b3f03d6d5eaf0d1455c7c7",
    ),
    (
        "fir_t5_w8",
        "49d92057443f2544d4b88840b7df008d26f454a40577857f610ba7d817e62292",
        "ad4a6979a1a88edcd735dad0c13e594d320987d7d786b7b9f5c093067b987bc6",
    ),
    (
        "counter_w8_up_load",
        "0d07ce696614b2784f402ac6bc036165d5f73c00854a150c15defbc8bd526a5c",
        "c5449bc6f899c39b2cb46584b6baf46f475ad897de9203428fc5f099d498ad2e",
    ),
    (
        "popcount_w12",
        "f9fd2c699dfbf9e96a63c77a1ef12d7e4b2040b7cbb8128bfbc727c942758b27",
        "5276d98cdbde3e870201c843ff2baca0d800d738415cf1cf6063edda6e863260",
    ),
    (
        "rom_a5_d8",
        "d35f24177b16b9be2aea89332d8fa19792aa37b79b9c423f474e45b895baeef8",
        "b89430bf2b620c2f218b9305f9c467a3fa39d8bb9c92a6cc111006c750839eb7",
    ),
    (
        "add_w10",
        "6e484ed0e904fd1d738c1eb50bd55dd1002407be40977d10925ca004f4c96701",
        "5d69435381c7d8679aed1c4b74615f662a837ce8861a427b567e45194b572355",
    ),
    (
        "mult_6x6",
        "bb6e50494652762dd271092e0095e9990c046f4160d1ef509f6c6b366e7918ed",
        "00b0b5959a917d4a76fa3ad8eb8cfe4e48afccfe73e62ea09f9a5c6d418ca33a",
    ),
    (
        "cmp_w8_lt",
        "1a1c73ff62135aa7713fc5bba8052ca545ef72a5a2e433b311ef7cb40f33e218",
        "c3979cfe8c4a0397033667a3cada2376b73b7532f1015104e9e26a8099d0438d",
    ),
    (
        "srl_w4_d9",
        "5b91600c34e17cdb897c9f1e71bd5a71fb638e980644c37a47e7196333d8557c",
        "a2ef608d77d56186235a75a6d8d64b6e5c1ed2694e79c55a305a94f2d35c119c",
    ),
    (
        "gray_w6",
        "bef6766ecfd820ccd6bc86125d370b295582eecd52f9ee9d9a55b0493d681236",
        "e2084d2f1d091fe6988127cf381f6d8486ece575f1b8d5e6de650a1b69b65e2c",
    ),
];

/// `(constant, width, sha256(edif), sha256(re-emitted edif))` for
/// signed, pipelined, full-width KCMs, shaped like the ones a customer
/// journey requests: every width from 8 to 16, fixed constants.
const KCMS: &[(i64, u32, &str, &str)] = &[
    (
        -56,
        8,
        "f59c9b5511a5286c5f9e06069d5773f66791ec7c36ad89cc7df0983705713387",
        "15b3c2485eea4ba4de4757196b5f778170f7d9bcf97b4ae2a8603af3ef359881",
    ),
    (
        2047,
        9,
        "f9cfdb47b5f58a91bfb809991868f23cb74cfae4879db7df5262313b8437198a",
        "9905f3f5b6e0e6f80fcc5ba0f5bd0943b0250327fa897bea56159842032cb43f",
    ),
    (
        -2048,
        10,
        "c09e109d1f149c35f2ecc83893afca5db88c56ac9dc04f0211944193c26b755e",
        "8d73ebdf32e981fa5f60459ae54feec220f7f1cfac03e28c54324681a94a641a",
    ),
    (
        1,
        11,
        "a2130b4b27c8db16ffe9bfea2d1379668a07424a62a4a83bdffaac3c2cbe624f",
        "1e62da09951e1c0f537ad69d54fa00824700475723d8645b1d1c44675bd1453d",
    ),
    (
        -1,
        12,
        "375327f3046e515015e5c77f753c2c931e21c32b59bb1de744490d2e4dee0bdf",
        "a0cfd50a2e27d6097bf61642e596cffb91aacb634a62c815a583cd3477450b56",
    ),
    (
        1234,
        13,
        "5e39314bc1e35e39e1d8908ce601a2c097485183230428e5d11327145d3b5cb1",
        "edb8e0026328e51195ec11bd43f98fe9ff18bdc1ff6dc4c5326ad8d5ed58483e",
    ),
    (
        -777,
        14,
        "3eb90be263c2a94f6026d1c670eed120e190a7b74e0b5717430e128cd783913b",
        "6b493741f59a86e2005f2005e94c8659ec5fefcbcc82ff9e763713a321c0c2b2",
    ),
    (
        3,
        15,
        "a67b7742707778f28b9743e2c230e31271b38edc661aa28fea1158959450872e",
        "bd75f2c043d8b22e22578bc58f457e2a579d3fe0b997bb2213376510eac73b07",
    ),
    (
        -1500,
        16,
        "6a5e16098e9815520411fdf8bf1f9524d990c7b907c1029fe112b2782cec7511",
        "5a5180b6a05adf1c6c6a3151df3cfacc6e7b16e168333a5a2cd662a065e0add0",
    ),
];

/// `(fixture, sha256(edif_string(read_edif(text))))` for every committed
/// `tests/fixtures/golden/*.edif`.
const GOLDEN: &[(&str, &str)] = &[
    (
        "add_w10.edif",
        "5d69435381c7d8679aed1c4b74615f662a837ce8861a427b567e45194b572355",
    ),
    (
        "cmp_w8_lt.edif",
        "c3979cfe8c4a0397033667a3cada2376b73b7532f1015104e9e26a8099d0438d",
    ),
    (
        "counter_w8_up_load.edif",
        "c5449bc6f899c39b2cb46584b6baf46f475ad897de9203428fc5f099d498ad2e",
    ),
    (
        "fir_t5_w8.edif",
        "ad4a6979a1a88edcd735dad0c13e594d320987d7d786b7b9f5c093067b987bc6",
    ),
    (
        "gray_w6.edif",
        "e2084d2f1d091fe6988127cf381f6d8486ece575f1b8d5e6de650a1b69b65e2c",
    ),
    (
        "kcm_w8_p12_c-56_s.edif",
        "a7bcb543396ba31ed2f73ad20eabab14ddeae65144b3f03d6d5eaf0d1455c7c7",
    ),
    (
        "mult_6x6.edif",
        "00b0b5959a917d4a76fa3ad8eb8cfe4e48afccfe73e62ea09f9a5c6d418ca33a",
    ),
    (
        "mutated_kcm.edif",
        "802a9ae976c37a2976052c7fda957b156bb770578a79c5ddf7a74024ea52a444",
    ),
    (
        "popcount_w12.edif",
        "5276d98cdbde3e870201c843ff2baca0d800d738415cf1cf6063edda6e863260",
    ),
    (
        "rom_a5_d8.edif",
        "b89430bf2b620c2f218b9305f9c467a3fa39d8bb9c92a6cc111006c750839eb7",
    ),
    (
        "srl_w4_d9.edif",
        "a2ef608d77d56186235a75a6d8d64b6e5c1ed2694e79c55a305a94f2d35c119c",
    ),
];

fn digest(text: &str) -> String {
    to_hex(&sha256(text.as_bytes()))
}

fn reimported(text: &str, what: &str) -> String {
    let circuit = read_edif(text).unwrap_or_else(|e| panic!("{what}: import: {e}"));
    edif_string(&circuit).unwrap_or_else(|e| panic!("{what}: re-emit: {e}"))
}

/// The narrowest two's-complement width holding `constant × x` for
/// every signed `width`-bit `x`.
fn full_width(constant: i64, width: u32) -> u32 {
    let (lo, hi) = (-(1i128 << (width - 1)), (1i128 << (width - 1)) - 1);
    let (a, b) = (i128::from(constant) * lo, i128::from(constant) * hi);
    let (min, max) = (a.min(b), a.max(b));
    (1..128u32)
        .find(|&w| min >= -(1i128 << (w - 1)) && max < (1i128 << (w - 1)))
        .expect("a KCM product fits 127 bits")
}

/// Collects every mismatch so one run names all of them.
#[derive(Default)]
struct Mismatches(Vec<String>);

impl Mismatches {
    fn check(&mut self, what: &str, frozen: &str, text: &str) {
        let got = digest(text);
        if got != frozen {
            self.0
                .push(format!("{what}: frozen {frozen:?}, got {got:?}"));
        }
    }

    fn assert_none(self) {
        assert!(self.0.is_empty(), "{}", self.0.join("\n"));
    }
}

#[test]
fn zoo_edif_bytes_are_frozen() {
    let zoo = example_zoo();
    let names: Vec<&str> = zoo.iter().map(|(name, _)| name.as_str()).collect();
    let frozen: Vec<&str> = ZOO.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, frozen, "every zoo design has frozen digests");
    let mut bad = Mismatches::default();
    for ((name, circuit), (_, edif_digest, reimport_digest)) in zoo.iter().zip(ZOO) {
        let text = edif_string(circuit).expect("emit");
        bad.check(&format!("{name} edif"), edif_digest, &text);
        bad.check(
            &format!("{name} re-emitted"),
            reimport_digest,
            &reimported(&text, name),
        );
    }
    bad.assert_none();
}

#[test]
fn journey_kcm_edif_bytes_are_frozen() {
    let mut bad = Mismatches::default();
    for &(constant, width, edif_digest, reimport_digest) in KCMS {
        let generator = KcmMultiplier::new(constant, width, full_width(constant, width))
            .signed(true)
            .pipelined(true);
        let circuit = Circuit::from_generator(&generator).expect("KCM elaborates");
        let text = edif_string(&circuit).expect("emit");
        let what = format!("kcm {constant}x{width}");
        bad.check(&format!("{what} edif"), edif_digest, &text);
        bad.check(
            &format!("{what} re-emitted"),
            reimport_digest,
            &reimported(&text, &what),
        );
    }
    bad.assert_none();
}

#[test]
fn golden_fixtures_reimport_to_frozen_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden fixture directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.into_string().expect("ASCII fixture name"))
        .filter(|name| name.ends_with(".edif"))
        .collect();
    files.sort();
    let frozen: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    assert_eq!(files, frozen, "every golden fixture has a frozen digest");
    let mut bad = Mismatches::default();
    for (file, reimport_digest) in GOLDEN {
        let text = std::fs::read_to_string(dir.join(file)).expect("read fixture");
        bad.check(file, reimport_digest, &reimported(&text, file));
    }
    bad.assert_none();
}
