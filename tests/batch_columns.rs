//! Batch co-simulation outputs are bit-identical across every path a
//! batch can take: in process through `LocalSimModel`, and through
//! `BlackBoxClient` over `InProcTransport` and over `TcpTransport`.
//!
//! The digests below are SHA-256 over the rendered `run_batch` outputs
//! of every example-zoo design, recorded from the per-vector batch codec
//! and sweep that the columnar path replaced, for seeded four-state
//! inputs (X and Z included) at counts on both sides of the 64-value
//! plane word and the 256-lane shard. The non-batch message bytes were
//! recorded from the same code and must not change either.

use ipd::core::{sha256, to_hex, AppletHost};
use ipd::cosim::{
    BehavioralModel, BlackBoxClient, BlackBoxServer, CosimError, InProcTransport, LocalSimModel,
    Message, SimModel, Transport,
};
use ipd::hdl::{Circuit, Logic, LogicVec, PortDir};
use ipd::sim::Simulator;
use ipd::wire::{ClientConfig, WireClient};
use ipd_testutil::XorShift64;

/// Vector counts of every frozen batch.
const COUNTS: [usize; 9] = [0, 1, 63, 64, 65, 255, 256, 257, 4097];

/// Clock cycles per vector.
const CYCLES: u32 = 2;

/// `(zoo design, digest per count in COUNTS)`.
const FROZEN: [(&str, [&str; 9]); 10] = [
    (
        "kcm_w8_p12_c-56_s",
        [
            "8db13c09d5dcd22e98baa68148e6c117d332c730225cd01b0d34e0dccdf3ba11",
            "def116df96d7984ca90c8f9037253eaaebad7df9e6484b119d1ce5e7effeed42",
            "cc272a3776079a6301746d115ac80bb0febe84ed9eaf54e3580da7837294bd99",
            "73cde55d7e1b8e8ad9bdfe00ff0a2df72d013171046d764f91024a378a6c0421",
            "ec4f024bce6d4ec461091194b22512b6ac011b6615391e8b2429898d44a989f8",
            "66266d17a14bc408f0745b8d544de78168425955e1debf1ffc7ba652edf55fbb",
            "53502376595cb003e186a3efa377321f2030a2352306c2f00c9e47543918785a",
            "77f3b1ae62607ab506242cf672f2bf94d3131fcbbadf95a6005ff8ac611df608",
            "6a62268abc3316e3d73267292ffe34e4f081b887e7680c4ec7019a00a70215d4",
        ],
    ),
    (
        "fir_t5_w8",
        [
            "641ca45e50b92b33bea6b87121b5cc4afb418991eadf4219eff5e1d69245b4e8",
            "62837a4630f6d5a58d0b08105f3edd18442c54d69bf732fc3f88bd5dcb12df56",
            "5f98eec37e5332d2221dc2475a0d338698ec5e0744b45e02c922f6b0a23267aa",
            "cc67a257a2e191a69269777f0ed5caa39d4fab6438dc31a3c8954df0cce10e7f",
            "831d3fd0503a81f5b1322652e473e737285b04ce827ab5f863cb075e85af6521",
            "72fb79a020b1fe58f1254b1a29e9e8d1f75a83f1ee7f1ac3e1b8d13be3595f51",
            "a37cac6679f063e25f0dc6907f60c97540342ada9f849694c457847fb9bd4d57",
            "86c0452704410b86c24fe72d6678825b3fc884bb7aa564d01a92d4ef65ee3d61",
            "a799b2dd8df259a2d300e2a9c805125ac1b37d665be3a4508a0eea032aebd005",
        ],
    ),
    (
        "counter_w8_up_load",
        [
            "f2599940b7a16f192bc0129d639f17316fb4f0d98b7dafdc0b3a8c38ec5105a3",
            "a8c6ab19eb73c8df62d64f3aa8d9fd5245d0dd580b436f94cb343bbc39345f9a",
            "90eb3a75c78c87de469a529d226478dbfd9c59ea27e57cb96caf649eadfa915e",
            "c169baaa2f6b95c5e308e33ebdaf058e27da0cc0de3dbca23ebf5df78f6147eb",
            "aea4da42d13b430757af53eecbd0a6ccb39aae155ed712c1fcc2ccbdd7809f5b",
            "4bc0a932f5dc2e540c6fbec53df4b41e679d5d2427e83fbe355b1343d2ee4cbb",
            "14f146c5be71aa0585b75635c63692f33ba73d2496ee41ee3ff05d87c084598b",
            "2cba3d52aa8457b085685fba9cb3d16082e2996f97f27c72e9cc9fe5a2ef186b",
            "8f2abe3356d233077230737f07db5719926d25cd3b833c1eb20100edf3e0d300",
        ],
    ),
    (
        "popcount_w12",
        [
            "68ed5377caf7271e4a85ce004c2072005d66dc0215a1595bc2198ff32d0be4a0",
            "84fc0b5a4a1a97e4ead9b4f641778c88d51d5e36bc018629ae22139f0137a368",
            "a18b195eaaea41e4183ed21ace22867aa45ad52c99c239269793162b6931dd89",
            "d5c655399423fff902cb63b61c4c287e22fe935b233cecca9d43e9180405be5e",
            "75ab998bbc47dd61359a2a3af6e017f5260ce517f2eb7d068e722cf014eec67e",
            "fa78d76c0712115cd6ad9693389efeb78ec0db965980bebfd25722c2db29003b",
            "46198baa56ea50d9f64bf9fa164e9c9f355accc8346d2c8187206a5f979066fb",
            "b81f75e0b07ea8c884021265909b2524772f94f4be96bd23affd11e17afb683b",
            "d16138aa6d6bff65cdc287c9b4364c07c43301612409ec5208286347897ce62e",
        ],
    ),
    (
        "rom_a5_d8",
        [
            "3cd415f26fc62a2613cf71ae0813b1837425beb8b8b77ae83f586dc264672727",
            "641ea4d5cd3eae1de3ee5a660a00eb565cce4275aaef623a275ceb980fe3a8fd",
            "7f13f8d912a2dd5b19e3a38343a385ee07c94c15ef9ef15f0cba264754eb307f",
            "64e20696288384f239578e9a9d6c8b5bb3655e1d8219f8bc1eaaff70e4f91f44",
            "b674f7e22f6720961fda09cb641ba58b4cc21d929986ce6fd361b2ea2ee20743",
            "e09110da963885cdd6d95f52c6638760d3039b92eaeee799b6c0bd38d52d35fa",
            "b521ea680a777861affc27e05f523d9969913771f5d446060f20f2e844bb2ec2",
            "09995fb2d3baf8502c8c8111d12010aae81666f1f6925eeb12838ca23e89e361",
            "f18e75f70a848e7e7e1044be019be0f93bc6e022cab09751a11de3d6e12c047c",
        ],
    ),
    (
        "add_w10",
        [
            "1a31132b799bc1a201bb1162935bb6235866a2071f7b01e5818af96cca6fc54f",
            "b0cf52704fbe519a6b87e2a02f3ba0423a1bdc73fcc59624ab61050d68faf677",
            "ea021279e67720017b2002ba4dcb42340da78b3b9f1051a513b719ebaf02324d",
            "b39c24840c2bb5f6da43c3fdf59ce3f7b7abf4d5b59cf0c0d08d3489ee4c8299",
            "864fc5848b2b2971c09de3f270bbd1c71c6215e72347ddf0b9bcbe20acd417a6",
            "07f31c75641289b68c7762817918c34b40b5d61bd4c494ae1d6a11e82e9a9308",
            "7caf378aa653583bf212f1f1a719b8d0a35ce903c4fd9552721d4839e199e837",
            "b6c346e13463768c3eff9d410bc8571284046474a3ee680c308b3c9180c0a12b",
            "351d9bf64642409848dcc0ac822529450b1f10e1eb22e10d2e06bbc4e79bacbc",
        ],
    ),
    (
        "mult_6x6",
        [
            "8223735975dab0f7b988b1d2325224dcf7d363f97fbeed2ea72d14ed82e19776",
            "dd0834d2bc3167274b474a5348a392e59a56437acb05c6a1c0c8d10e17d9d2cf",
            "88b6746390f87e2555e537eba37c7eab3f00058be57b6fbd2880b605d9e296de",
            "2f3b7e17ddfb2445b47ed171a702b35f3434f5916fce3116cc8a16f40229e00a",
            "ce36ab746e5890c4b83dd1e5401796efa6d7c9dfc46272cca0cca9003ee639bc",
            "d81b1daf5c5b1acf5ca587949c2dc7ead90fab434d121da946d58c34173deb2f",
            "61dba21509a79466a14f414bed846ebbb6ec356546d6caaa16ba3dfe8817d8aa",
            "c2305bea7b04965ecbd5600ead287ce68a7738982e36abeca5b5233ad6e22643",
            "e2b8b9af967642444d566acdc0d79c89accfa9fe31793a1beebe63c30d0fc2a7",
        ],
    ),
    (
        "cmp_w8_lt",
        [
            "68ed5377caf7271e4a85ce004c2072005d66dc0215a1595bc2198ff32d0be4a0",
            "2d30426061ba14617c07ccea6c1f078b610f60a405ad50b52c2a92c2bd93d8ce",
            "3aae048b46ee5323c331d55674caa3388a348530d570a7b455a103b4deeb7055",
            "c814c6b9d67910930a80b0824baf90ad06664ff1b1beec1b6e8e57b6a70989d4",
            "7c78730bebbe7ea3901820a134bd85bcdf63643e85ec33f96f765d4e1dc886d4",
            "a9c887aaafb9a5aca945bbb58903a9687d41ff8556b8f6eb6ddc9230dc3307f1",
            "8de9b395a9cb4e8a434678e90905663f5ed57d95b87930db74200c2d5a3f196b",
            "46fa91851050c78fd5731cad3d771a24704264c788b192e01f9070806e4e0ae7",
            "b77da734a7180f8d2bc958f7c0f872bb8f1ad4e041fbad2dbbbc5fa3b09472af",
        ],
    ),
    (
        "srl_w4_d9",
        [
            "f2599940b7a16f192bc0129d639f17316fb4f0d98b7dafdc0b3a8c38ec5105a3",
            "dcca7527c5206fc89f5267cfb56c76cca856e084c0dd43387b5c68172239fbb9",
            "9bb0faafaf986bcbbd466b9dd3c05c2297c4e182f7ecbae57d402e2a46552e1e",
            "740e64fe43a7285c7da12cea205887a3184bc37713cf31ac20ad21f1e0c7e536",
            "f140bd0b92c86034c1c8b0abe0136684ff2f21b1c5195e64e6baf8415b4dc7b1",
            "817c9f3b9522a4884df96bc46144bf2e505f1100c848ce4001d831d5c131300c",
            "bc4304b3a2d16924916e37b261fc82bbbd163a0f1f8eee002233ccb478a0422c",
            "50ccb4e115949dfa76bc404cbadda11cdba47b522859fd968cc6501799e853c5",
            "aab236656827576652f5a48cbef8e5537b22d6a991e87ce30ae3d1e0ad5a3626",
        ],
    ),
    (
        "gray_w6",
        [
            "f2599940b7a16f192bc0129d639f17316fb4f0d98b7dafdc0b3a8c38ec5105a3",
            "e51b83fb58cd602c7cd80082f4d363043233b98ab1ba2cd8dde177fb9cf9106f",
            "bd5bf00afacbfa1c2949c40aa8e4ff0c9338bdc31b9bc188446f64971e47f427",
            "46fd1e0184527aa17c4814b39eb8f75e4cc1e55bd9273fbc8f7bf60e2a012178",
            "a79bdcbd017ad1cddcfebf810b14659d7d846bacdda301cb6bc59ff528bfe179",
            "2a20732284f5b682c6320104886efff311af7227a10c69d7724a6ed29ff0af57",
            "e947cd12629bdc93862a2b2d09140a2d37b9838b9d409c0aea3e44abfd6650fa",
            "578a088c9f8f14b8f1156be3754474a04b08fa81913d28d695d8979046e89758",
            "5c9bef49cfe4dcb3ff64fe54b0dc36898a3a30e4221aec2ff388524fca63f9d0",
        ],
    ),
];

/// The encoding of every non-batch message in [`non_batch_messages`].
const FROZEN_MESSAGES: [&str; 12] = [
    "00",
    "01",
    "0204000300636c6b00010000000c006d756c7469706c6963616e640008000000070070726f64756374011100000003006275730246000000",
    "030c006d756c7469706c6963616e6408001874",
    "04e8030000",
    "05",
    "06070070726f64756374",
    "07070070726f6475637408001874",
    "070400776964654600515555555555555555555555555555550000",
    "08",
    "091000756e6b6e6f776e20706f7274207a7a7a",
    "0a",
];

fn any_logic(rng: &mut XorShift64) -> Logic {
    match rng.below(8) {
        0..=2 => Logic::Zero,
        3..=5 => Logic::One,
        6 => Logic::X,
        _ => Logic::Z,
    }
}

/// Seeded four-state values for every input port, clock included.
fn inputs(
    ports: &[(String, PortDir, u32)],
    count: usize,
    seed: u64,
) -> Vec<(String, Vec<LogicVec>)> {
    let mut rng = XorShift64::new(seed);
    ports
        .iter()
        .filter(|(_, dir, _)| *dir == PortDir::Input)
        .map(|(name, _, width)| {
            let values = (0..count)
                .map(|_| (0..*width).map(|_| any_logic(&mut rng)).collect())
                .collect();
            (name.clone(), values)
        })
        .collect()
}

fn render(outputs: &[(String, Vec<LogicVec>)]) -> String {
    let mut text = String::new();
    for (port, values) in outputs {
        text.push_str(port);
        text.push(':');
        for value in values {
            text.push_str(&value.to_string());
            text.push(',');
        }
        text.push('\n');
    }
    text
}

fn zoo() -> Vec<(String, Circuit)> {
    let zoo = ipd::modgen::example_zoo();
    let names: Vec<&str> = zoo.iter().map(|(name, _)| name.as_str()).collect();
    let frozen: Vec<&str> = FROZEN.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, frozen, "the zoo the digests were recorded from");
    zoo
}

/// Runs every frozen batch of design `d` through `model` and checks
/// its digest.
fn check_frozen(d: usize, model: &mut dyn SimModel, path: &str) {
    let (name, digests) = FROZEN[d];
    let ports = model.interface().expect("interface");
    for (&count, digest) in COUNTS.iter().zip(digests) {
        let seed = 0x5EED_0000 + d as u64 * 1000 + count as u64;
        let outputs = model
            .run_batch(CYCLES, &inputs(&ports, count, seed))
            .expect("run_batch");
        assert_eq!(
            to_hex(&sha256(render(&outputs).as_bytes())),
            digest,
            "{name} x{count} via {path}"
        );
    }
}

#[test]
fn frozen_outputs_in_process() {
    for (d, (_, circuit)) in zoo().iter().enumerate() {
        let mut model = LocalSimModel::new(circuit).expect("compile");
        check_frozen(d, &mut model, "LocalSimModel");
    }
}

#[test]
fn frozen_outputs_over_in_proc_transport() {
    for (d, (_, circuit)) in zoo().iter().enumerate() {
        let model = LocalSimModel::new(circuit).expect("compile");
        let mut client = BlackBoxClient::over(InProcTransport::new(model));
        check_frozen(d, &mut client, "InProcTransport");
    }
}

#[test]
fn frozen_outputs_over_tcp() {
    let mut host = AppletHost::new();
    host.grant_network_permission();
    for (d, (_, circuit)) in zoo().iter().enumerate() {
        let model = LocalSimModel::new(circuit).expect("compile");
        let server = BlackBoxServer::bind(&host).expect("bind");
        let running = server.start_cloning(model);
        let mut client = BlackBoxClient::connect(running.addr()).expect("connect");
        check_frozen(d, &mut client, "TcpTransport");
        client.close().expect("close");
        running.shutdown().expect("shutdown");
    }
}

/// The columnar path against the scalar serial path, one vector at a
/// time through `set`/`cycle`/`get`.
#[test]
fn columnar_path_matches_the_serial_oracle() {
    for (d, (name, circuit)) in zoo().iter().enumerate() {
        let mut fast = LocalSimModel::new(circuit).expect("compile");
        let mut serial = LocalSimModel::from_simulator(Simulator::new(circuit).expect("compile"));
        let ports = fast.interface().expect("interface");
        for count in [1, 64, 65, 257] {
            let batch = inputs(&ports, count, 0x0AC1_E000 + d as u64 * 1000 + count as u64);
            for cycles in [0, 1, 3] {
                assert_eq!(
                    fast.run_batch(cycles, &batch).expect("columnar"),
                    serial.run_batch(cycles, &batch).expect("serial"),
                    "{name} x{count}, {cycles} cycles"
                );
            }
        }
    }
}

fn non_batch_messages() -> Vec<Message> {
    let mut value = LogicVec::from_u64(0b1010_0110, 8);
    value.set_bit(1, Logic::X);
    value.set_bit(6, Logic::Z);
    vec![
        Message::Hello,
        Message::GetInterface,
        Message::Interface(vec![
            ("clk".into(), PortDir::Input, 1),
            ("multiplicand".into(), PortDir::Input, 8),
            ("product".into(), PortDir::Output, 17),
            ("bus".into(), PortDir::Inout, 70),
        ]),
        Message::SetInput {
            port: "multiplicand".into(),
            value: value.clone(),
        },
        Message::Cycle { n: 1000 },
        Message::Reset,
        Message::GetOutput {
            port: "product".into(),
        },
        Message::Value {
            port: "product".into(),
            value,
        },
        Message::Value {
            port: "wide".into(),
            value: LogicVec::from_i64(-3, 70),
        },
        Message::Ok,
        Message::Error {
            message: "unknown port zzz".into(),
        },
        Message::Bye,
    ]
}

#[test]
fn non_batch_messages_keep_their_bytes() {
    for (msg, frozen) in non_batch_messages().iter().zip(FROZEN_MESSAGES) {
        assert_eq!(to_hex(&msg.encode()), frozen, "{msg:?}");
        assert_eq!(&Message::decode(&msg.encode()).expect("decode"), msg);
    }
}

#[test]
fn client_refuses_mixed_widths_before_sending() {
    let circuit = ipd::modgen::example_zoo().swap_remove(0).1;
    let mut host = AppletHost::new();
    host.grant_network_permission();
    let running = BlackBoxServer::bind(&host)
        .expect("bind")
        .start_cloning(LocalSimModel::new(&circuit).expect("compile"));
    let mut client = BlackBoxClient::connect(running.addr()).expect("connect");
    let before = client.transport().stats().totals();
    let mixed = vec![(
        "multiplicand".to_owned(),
        vec![LogicVec::zeros(8), LogicVec::zeros(7)],
    )];
    assert!(matches!(
        client.run_batch(0, &mixed),
        Err(CosimError::Wiring { .. })
    ));
    let zero_width = vec![("multiplicand".to_owned(), vec![LogicVec::zeros(0); 3])];
    assert!(matches!(
        client.run_batch(0, &zero_width),
        Err(CosimError::Wiring { .. })
    ));
    let after = client.transport().stats().totals();
    assert_eq!(
        (after.requests, after.bytes_out),
        (before.requests, before.bytes_out),
        "nothing sent"
    );
    client.close().expect("close");
    running.shutdown().expect("shutdown");
}

/// A model whose only working path is its own `run_batch`: `y = a ^
/// 0b1010` per vector.
struct XorBatchOnly;

impl SimModel for XorBatchOnly {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(vec![
            ("a".into(), PortDir::Input, 4),
            ("y".into(), PortDir::Output, 4),
        ])
    }
    fn set(&mut self, port: &str, _: LogicVec) -> Result<(), CosimError> {
        Err(CosimError::UnknownPort { port: port.into() })
    }
    fn cycle(&mut self, _: u32) -> Result<(), CosimError> {
        Err(CosimError::Wiring {
            reason: "batches only".into(),
        })
    }
    fn reset(&mut self) -> Result<(), CosimError> {
        self.cycle(0)
    }
    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        Err(CosimError::UnknownPort { port: port.into() })
    }
    fn run_batch(
        &mut self,
        _cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        let y = inputs[0]
            .1
            .iter()
            .map(|a| LogicVec::from_u64(a.to_u64().unwrap_or(0) ^ 0b1010, 4))
            .collect();
        Ok(vec![("y".into(), y)])
    }
}

/// A model that overrides only `run_batch` is served through the
/// default `run_columns`, which adapts through it.
#[test]
fn run_batch_only_models_serve_batches() {
    let mut client = BlackBoxClient::over(InProcTransport::new(XorBatchOnly));
    let batch = vec![(
        "a".to_owned(),
        (0..70u64).map(|k| LogicVec::from_u64(k % 16, 4)).collect(),
    )];
    let outputs = client.run_batch(1, &batch).expect("batch");
    assert_eq!(client.round_trips(), 1);
    let expected: Vec<LogicVec> = (0..70u64)
        .map(|k| LogicVec::from_u64((k % 16) ^ 0b1010, 4))
        .collect();
    assert_eq!(outputs, vec![("y".to_owned(), expected)]);
}

/// A `BatchRun` body with one column `a` of no values, `width` bits
/// wide: a header and no plane bytes.
fn empty_column_batch(width: u32) -> Vec<u8> {
    let mut body = Message::BatchRun {
        cycles: 1,
        inputs: vec![],
    }
    .encode();
    body[5] = 1; // one port
    body.extend_from_slice(&[1, 0, b'a']);
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&width.to_le_bytes());
    body
}

/// A column of no values costs no plane bytes whatever its width, so
/// the width is capped at a single value's `u16::MAX` and unpacking an
/// empty column allocates nothing. Models without the lane-parallel
/// engine serve batches through the default `run_columns`: such a
/// server refuses a wider column and answers the widest at once.
#[test]
fn empty_columns_are_refused_or_served_cheaply() {
    let circuit = ipd::modgen::example_zoo().swap_remove(0).1;
    let mut host = AppletHost::new();
    host.grant_network_permission();
    let serial = LocalSimModel::from_simulator(Simulator::new(&circuit).expect("compile"));
    let running = BlackBoxServer::bind(&host)
        .expect("bind")
        .start_cloning(serial);
    let mut wire = WireClient::connect(running.addr(), &ClientConfig::default()).expect("connect");
    assert!(wire.call(13, &empty_column_batch(u32::MAX)).is_err());
    assert!(wire.call(13, &empty_column_batch(65_536)).is_err());
    let body = wire
        .call(13, &empty_column_batch(65_535))
        .expect("the widest empty column");
    let Ok(Message::BatchResult { outputs }) = Message::decode(&body) else {
        panic!("not a batch result")
    };
    assert!(!outputs.is_empty());
    assert!(outputs.iter().all(|(_, column)| column.is_empty()));
    wire.close();
    running.shutdown().expect("shutdown");

    let behavioral = BehavioralModel::new(
        vec![
            ("a".into(), PortDir::Input, 8),
            ("y".into(), PortDir::Output, 8),
        ],
        |inputs| vec![("y".into(), inputs[0].1.clone())],
    );
    let request = Message::decode(&empty_column_batch(65_535)).expect("decode");
    match InProcTransport::new(behavioral).request(&request) {
        Ok(Message::BatchResult { outputs }) => {
            assert_eq!(outputs.len(), 1);
            assert!(outputs[0].1.is_empty());
        }
        other => panic!("{other:?}"),
    }
}
