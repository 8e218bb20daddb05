//! Byte identity of the delivered-netlist path. The EDIF text the
//! writer emits, and the text re-emitted after an import, hash to
//! SHA-256 digests frozen from the writer and reader as they stood
//! before either was tuned for speed. Any change to the writer or the
//! reader that moves a byte on the wire fails here.
//!
//! The flat Verilog and VHDL texts print every flattened net name and
//! leaf path, so their digests, frozen from the flattener as it stood
//! before it was tuned for speed, pin the flat view as well.

use std::path::PathBuf;

use ipd::core::{sha256, to_hex};
use ipd::hdl::Circuit;
use ipd::modgen::{example_zoo, KcmMultiplier};
use ipd::netlist::{edif_string, read_edif, verilog_string, vhdl_string};

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

/// `(design, sha256(verilog_string(c)), sha256(vhdl_string(c)))` for
/// every `example_zoo()` design.
const ZOO_FLAT: &[(&str, &str, &str)] = &[
    (
        "kcm_w8_p12_c-56_s",
        "052191a7994cc65caa4e0275abf956d16b6a281790758486f8ce20662bf5deb5",
        "7a9c10e4c6ca443a1af90767a36fb970123a3a6b9e6eca3d557accdb88771053",
    ),
    (
        "fir_t5_w8",
        "4b262191344a071e0b2effbccf91b2703131ceefc16f229419b018f6b623e22e",
        "ea9a198266d0a698e605a3b2918271e2100fc765d22f6a0edc57fcdd5c638c73",
    ),
    (
        "counter_w8_up_load",
        "24b9889209d1ab1d957c8e6a6914556d7e437ba7182a2ad11ce78dcbe30d456e",
        "0b61d75ab8dd89829a107357993076dcce6eb087d7af69eca0e686fa20efb7f9",
    ),
    (
        "popcount_w12",
        "b9a80db4613884a31d4cde5014c31945f2a521c54769c31d3b6d83b974aa9675",
        "1d395a5e92af37f37cce0443ed794c476513632adaa55349ccaa858dc402c555",
    ),
    (
        "rom_a5_d8",
        "ab74963260fd7b2923bf9f439f079cc4a9240efd5d48549776a16c3787e277b2",
        "86b9819e5e41bf9e79c6abea2297fd0a26e1ec095cb259a64958756123eb3394",
    ),
    (
        "add_w10",
        "e222953c771de3edfe67be021817995e20203cba4238f3144b7207181af36e86",
        "c8ab775838fd9020b76ca1c308fb8c27f81dbd8efe43a9151491efccfc85651e",
    ),
    (
        "mult_6x6",
        "c77e7495b6dbc5af976579d0fe19a5daf063c6737a9f93a2555ea348eaa32650",
        "ab623699184eaf188a6c8ee12647987f5cac0234042b464fe955d150688ba405",
    ),
    (
        "cmp_w8_lt",
        "9646ab320a6e649366b9460caaa2f0510e99b96714e8681329be9b96a83ac936",
        "68c1401934aef2d0db88225b911300fe7d3ca87725b01fecc784aa8a81bd9836",
    ),
    (
        "srl_w4_d9",
        "e550ccdb8257b401163af7b84b5c4f797c7090b667c9c343e48af309f288e9af",
        "d9b47d30377f10adc6efb639c07102ce41f59021a8abf54d644e343affef4db4",
    ),
    (
        "gray_w6",
        "b7e1414545c248c28b95140b9b70c090db92141e166acac93e79c8648ea281ea",
        "a6ce97b5cbcbb0dc82a4acb96d9ae3136b658eb452f45ad3071191a31b9bfb62",
    ),
];

/// `(constant, width, sha256(verilog), sha256(vhdl))` for the journey
/// KCMs of [`KCMS`].
const KCMS_FLAT: &[(i64, u32, &str, &str)] = &[
    (
        -56,
        8,
        "0a5a83b75959644959bf1f5bd93e4090320c51d9513c0129cbb636b11d36c35c",
        "32051bbf69e5c550bb961dc320c5bbc7424e06c92f6e8f0c82f0950050dc758f",
    ),
    (
        2047,
        9,
        "e316fdf42f3215da1c89ab1f077fb3e60fadd0eade37711c1ecd6c80e0cf58f4",
        "df41acf683f9169ea2e03c13d33181cbe63068b5f37079e6a09fdf11ee073284",
    ),
    (
        -2048,
        10,
        "a586e659f0e944025874f84d8445788fe43a16f047b94d715b3996d4dea88ff1",
        "6fee38db7bff078b6f141a66f39d4080fadc8e1a829d06ea3b343f3aa00bd394",
    ),
    (
        1,
        11,
        "5a0b6ae0a529decc474f982438bd726bbd04ba6979610cba86200b4cf44bbb27",
        "a6d72b99a343c574ab5d541388057be3b1e3148b0c03b104d3220c49284a5d81",
    ),
    (
        -1,
        12,
        "877e52c439a2e6a8eed0af8bbac3a379c322b6ae702770d4f0f6e705a7b0b760",
        "ca12508de6bac1a6e6ecb89184240f948ebb758e56924517ffb65b12a5475c74",
    ),
    (
        1234,
        13,
        "fcb20a7416cfe2565d96db1191a920a58e83a3825ebfd45c4de7bfdc004931c3",
        "940f7f82acb5789a93946ba24097dc99c8798e693bfd2c9286e08d4a69e9121a",
    ),
    (
        -777,
        14,
        "60848026b0e48dea470952bf1b1399c9ea5c4098263b8687da5aa814c839f696",
        "8bea617ce469e370f0cb2fe81fea32c2a97174b36af768882c8228e8ae5001ba",
    ),
    (
        3,
        15,
        "98f575def4183e03f7fd44517b90377e9c71b0c72ced838a23096d9d90c8ba20",
        "66afae89074b1fb092686c84b66c76ee43d444167c2e67633abb62eb7073ab33",
    ),
    (
        -1500,
        16,
        "5eb214b36b5a3b9c52555a5bfc9b6771fc60c9a0078a31ae0a27fb20c3d5a88a",
        "88148fc55dd4314c390e2089630a3e60941306c8ab039943bbe591f7f76dd28c",
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
fn zoo_flat_names_are_frozen() {
    let zoo = example_zoo();
    let names: Vec<&str> = zoo.iter().map(|(name, _)| name.as_str()).collect();
    let frozen: Vec<&str> = ZOO_FLAT.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, frozen, "every zoo design has frozen flat digests");
    let mut bad = Mismatches::default();
    for ((name, circuit), (_, verilog_digest, vhdl_digest)) in zoo.iter().zip(ZOO_FLAT) {
        let verilog = verilog_string(circuit).expect("emit Verilog");
        bad.check(&format!("{name} verilog"), verilog_digest, &verilog);
        let vhdl = vhdl_string(circuit).expect("emit VHDL");
        bad.check(&format!("{name} vhdl"), vhdl_digest, &vhdl);
    }
    bad.assert_none();
}

#[test]
fn journey_kcm_flat_names_are_frozen() {
    let pinned: Vec<(i64, u32)> = KCMS.iter().map(|&(c, w, _, _)| (c, w)).collect();
    let flat: Vec<(i64, u32)> = KCMS_FLAT.iter().map(|&(c, w, _, _)| (c, w)).collect();
    assert_eq!(pinned, flat, "every journey KCM has frozen flat digests");
    let mut bad = Mismatches::default();
    for &(constant, width, verilog_digest, vhdl_digest) in KCMS_FLAT {
        let generator = KcmMultiplier::new(constant, width, full_width(constant, width))
            .signed(true)
            .pipelined(true);
        let circuit = Circuit::from_generator(&generator).expect("KCM elaborates");
        let what = format!("kcm {constant}x{width}");
        let verilog = verilog_string(&circuit).expect("emit Verilog");
        bad.check(&format!("{what} verilog"), verilog_digest, &verilog);
        let vhdl = vhdl_string(&circuit).expect("emit VHDL");
        bad.check(&format!("{what} vhdl"), vhdl_digest, &vhdl);
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
