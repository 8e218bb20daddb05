//! Figure 1's numbers, frozen. Every timing figure the applet shows a
//! customer, and every timed seal the journey ships, hashes to a
//! SHA-256 digest recorded while `estimate_timing` still ran a
//! propagation mode of its own beside the constraint-driven STA:
//!
//! - for each `example_zoo()` design, `estimate_timing` as built, with
//!   its placement stripped and after `auto_place`; `analyze_timing`
//!   under `tests/fixtures/zoo.constraints`; and the placed-and-routed
//!   design's `timing()` and `analyze()` under the same constraints;
//! - for the journey-shaped KCMs of `netlist_bytes.rs`, plain and
//!   pipelined: `estimate_timing`, `analyze_timing` under
//!   `clock clk 10 clk`, and `seal_design`'s bytes and shipped report
//!   under a policy with fanout and port-width limits of 0 (the
//!   journey's policy when they were frozen; the `high-fanout`
//!   messages quote the estimate) plus that clock.
//!
//! Reports are hashed as their `{:?}` text, so a change in any float,
//! name or path fails here.

use std::path::PathBuf;

use ipd::core::{seal_design, sha256, to_hex, SealPolicy};
use ipd::estimate::{
    analyze_timing, auto_place, estimate_timing, place_and_route, PlacerConfig, PnrConfig,
    TimingConstraints,
};
use ipd::hdl::Circuit;
use ipd::lint::LintConfig;
use ipd::modgen::{example_zoo, KcmMultiplier};

/// `(label, sha256)` of every zoo output, in `example_zoo()` order.
const ZOO: &[(&str, &str)] = &[
    (
        "kcm_w8_p12_c-56_s estimate",
        "a83cbee76cc61f5e58602c3d461e58ec75f5a049622478d85149d2a63e0047af",
    ),
    (
        "kcm_w8_p12_c-56_s estimate stripped",
        "7e3fab50d383b317ba57bd85011250779ad654d8b9b8e00f09d3cebe53987c4a",
    ),
    (
        "kcm_w8_p12_c-56_s estimate auto-placed",
        "1ca18b772a7c47ed818dba15807a313c693b2554a22d8b8caea6fdb89afab19d",
    ),
    (
        "kcm_w8_p12_c-56_s analyze",
        "b6bc62d6f3cc2b7786ad328e0ad6c8054bbe4de4c97f923c88f9f0eea1d82082",
    ),
    (
        "kcm_w8_p12_c-56_s routed timing",
        "a83cbee76cc61f5e58602c3d461e58ec75f5a049622478d85149d2a63e0047af",
    ),
    (
        "kcm_w8_p12_c-56_s routed analyze",
        "b6bc62d6f3cc2b7786ad328e0ad6c8054bbe4de4c97f923c88f9f0eea1d82082",
    ),
    (
        "fir_t5_w8 estimate",
        "e2de804a66398f69f7942a839bf31c63817ece708d6c195d5f22740e02df8127",
    ),
    (
        "fir_t5_w8 estimate stripped",
        "916b3cc6f0657659c5edb64e1b3ea8780c120647dcf98ee7ddfd01abba3cccff",
    ),
    (
        "fir_t5_w8 estimate auto-placed",
        "1529eafa3339b5abd4203e1b9b3fdabf372d41ab3a4c10c6e10d690d443e19f6",
    ),
    (
        "fir_t5_w8 analyze",
        "22b7d36491553ceb4c4f75073734df5539805cdeae0286d03d2addc9bb6be244",
    ),
    (
        "fir_t5_w8 routed timing",
        "58cdc158ea6333bb7fd02bfd2dd1042a7da33ccc73610751b575fd616f874a1d",
    ),
    (
        "fir_t5_w8 routed analyze",
        "9b13501c3d4c40e64d8ab6796cbf27657b2e9843ed9f0f9c413a92ef79cbff75",
    ),
    (
        "counter_w8_up_load estimate",
        "e078d22a8fb633f5a5c958c71a91f4118213a9159da4750315cac09b5ef47382",
    ),
    (
        "counter_w8_up_load estimate stripped",
        "3423c4b92b60af33908897a2f51e535cf374ee91cd82cd4b9449388af445898d",
    ),
    (
        "counter_w8_up_load estimate auto-placed",
        "2abd2f4b916d5c6c499a7c7b95efc7be173f8393d24c23a56c5d45aa588fb3a2",
    ),
    (
        "counter_w8_up_load analyze",
        "31bbf4e4e5b274c3d5d4323d51e975f1c4b50f617cb34f1fe6d473132f891d9e",
    ),
    (
        "counter_w8_up_load routed timing",
        "b8f2651e5572016d37ca9c4dd2fb74b0cc6b129878539beb22e3ccc2f4d478ca",
    ),
    (
        "counter_w8_up_load routed analyze",
        "5778b93dc99b61640133e9106100d951fff65372e3ec58cea8fc9950a022b7fc",
    ),
    (
        "popcount_w12 estimate",
        "0b974010eeea15c91f39e38534bc97f113a8d4added1872c00c92a3597d5fd0b",
    ),
    (
        "popcount_w12 estimate stripped",
        "6f15722a73ba19d68e3d5c2339b9bc46e6fe4424e8d0cdc74f897f267bec3979",
    ),
    (
        "popcount_w12 estimate auto-placed",
        "8db1570661245c447fcdcea7fcc30833a3267aacdb58eabb4c59782c52ccf924",
    ),
    (
        "popcount_w12 analyze",
        "795101272092aceb6ed374cb0627d229b77721e2aee7635ea4b61bd1d479ac09",
    ),
    (
        "popcount_w12 routed timing",
        "b9de8351878c3ae3eb80752a72c98992381d3e7b66a756c8c113e90f5f3b6d47",
    ),
    (
        "popcount_w12 routed analyze",
        "e6ad6ecad52b5b2b8649e7394b200f43266f780b7b501224e6ee7218d299f3aa",
    ),
    (
        "rom_a5_d8 estimate",
        "bef8b735e31a33c836e208cf1544a8bafff96764aeb647330a305b5817f0f6bb",
    ),
    (
        "rom_a5_d8 estimate stripped",
        "bef8b735e31a33c836e208cf1544a8bafff96764aeb647330a305b5817f0f6bb",
    ),
    (
        "rom_a5_d8 estimate auto-placed",
        "5742f33b33b22ce6c15b1bd2f967c57429a434f18979b6ab32f992e7988b126c",
    ),
    (
        "rom_a5_d8 analyze",
        "d6e5c4f0b58404fa2e6df0d65afd4189b0ce88d5661f93055cc2786bfc55f0dc",
    ),
    (
        "rom_a5_d8 routed timing",
        "5742f33b33b22ce6c15b1bd2f967c57429a434f18979b6ab32f992e7988b126c",
    ),
    (
        "rom_a5_d8 routed analyze",
        "b3387a2b69a82f47710ca069e238a54753049e9d06af441e1ffb137e591fe36e",
    ),
    (
        "add_w10 estimate",
        "880fd4345cd85b809154c9164789c3cb8a0973b13f131f76298044152281cb00",
    ),
    (
        "add_w10 estimate stripped",
        "28831799823635ecfd995e88e19d8785aad60636d0164f1dca2105fc061ac53a",
    ),
    (
        "add_w10 estimate auto-placed",
        "718b1122e7b8ff8b5a9400f4d465bcf106f7f44ef44135c9a5a089119bbe17d9",
    ),
    (
        "add_w10 analyze",
        "b6379b71e23dfcfc86ef1d7d42711be143c2f2678b4718e3570da6e21fe54e2d",
    ),
    (
        "add_w10 routed timing",
        "880fd4345cd85b809154c9164789c3cb8a0973b13f131f76298044152281cb00",
    ),
    (
        "add_w10 routed analyze",
        "b6379b71e23dfcfc86ef1d7d42711be143c2f2678b4718e3570da6e21fe54e2d",
    ),
    (
        "mult_6x6 estimate",
        "ec18dc0d9f166c9d74193c62eff2562c97304be01e526cd5436c8d7f15d60c52",
    ),
    (
        "mult_6x6 estimate stripped",
        "cc4ad4e5e634a05a42b6d985be9ffeb7736b556eb9ed61aca66d413282056420",
    ),
    (
        "mult_6x6 estimate auto-placed",
        "fffa0ae2014b6381c1cc52704ccb750133bcecbfcca0eafd860c179f29ad0978",
    ),
    (
        "mult_6x6 analyze",
        "7c9af8ef94506c7666fa3ddc87741ddd34ad033fc0cb624b0b6510c222d6fda0",
    ),
    (
        "mult_6x6 routed timing",
        "813542a8ee7b9d63acbc1c7ed03d39cd94192103917d5939b73d80b9e428faf1",
    ),
    (
        "mult_6x6 routed analyze",
        "34b82d43c2d09470e0d01a2ccddbfed5ad6357a5fe9e0395ae74fb495bb9c6cc",
    ),
    (
        "cmp_w8_lt estimate",
        "3343df5d807af7f7687ca4c7c3eb7bf50008511b2db6ac58858a8aa4f9b1a1cd",
    ),
    (
        "cmp_w8_lt estimate stripped",
        "078b528e4627d04e7309c8cc26ff081a53965335e2140292480c873ef5ab14dd",
    ),
    (
        "cmp_w8_lt estimate auto-placed",
        "b8202aeb1119f692066d9d6d56569e5d5db4fcc1b6a3296b194b7333789e08f1",
    ),
    (
        "cmp_w8_lt analyze",
        "d5f5923e1211a73461aca8ecd949e90ebd36e72a1f5990eb4de2a24ddf034dcb",
    ),
    (
        "cmp_w8_lt routed timing",
        "39608299dc2f9a64edfef11ffe7d31ca7fc3332bc46fa07c8f9bcf8a64366527",
    ),
    (
        "cmp_w8_lt routed analyze",
        "d5f5923e1211a73461aca8ecd949e90ebd36e72a1f5990eb4de2a24ddf034dcb",
    ),
    (
        "srl_w4_d9 estimate",
        "85100f3e3a5624243b67745c6de32a4f7c3b9f5f5723ad526867e998565a7355",
    ),
    (
        "srl_w4_d9 estimate stripped",
        "65c9294c0bfd10b9a81218c68636218a80b23c17f4fc9506a1cc70bc3adbc86a",
    ),
    (
        "srl_w4_d9 estimate auto-placed",
        "85100f3e3a5624243b67745c6de32a4f7c3b9f5f5723ad526867e998565a7355",
    ),
    (
        "srl_w4_d9 analyze",
        "70a206c989a9200fa778fd77594401a0b1688454a3081e24bff42af3bbb0e17d",
    ),
    (
        "srl_w4_d9 routed timing",
        "85100f3e3a5624243b67745c6de32a4f7c3b9f5f5723ad526867e998565a7355",
    ),
    (
        "srl_w4_d9 routed analyze",
        "70a206c989a9200fa778fd77594401a0b1688454a3081e24bff42af3bbb0e17d",
    ),
    (
        "gray_w6 estimate",
        "de75f90160cfcb0f022d6e9e096aff7dfe3653b8f0af5ec25c75a9322081eb18",
    ),
    (
        "gray_w6 estimate stripped",
        "973fec48d36359113f4cf834c986f8d160a7474c88af2852bec714cb9e92abf5",
    ),
    (
        "gray_w6 estimate auto-placed",
        "68275a0c797810a9d4ec5d77b553ddb8b4fa7dae67a5b0c9bb5b7d9f93635805",
    ),
    (
        "gray_w6 analyze",
        "2a69e6ebb30b0b2401eae633d00e29d570a410b3f002811cbfcb7478f027b4c9",
    ),
    (
        "gray_w6 routed timing",
        "4bba1f3f446d8477a88cc6281270bff15f8a559919c98f5b38970f63a7f5301c",
    ),
    (
        "gray_w6 routed analyze",
        "4fe59cc3cc48ab4beda46b0a036db0287107f10bb6cd504e079fea0936ce916b",
    ),
];

/// `(label, sha256)` of every journey-shaped KCM output.
const KCMS: &[(&str, &str)] = &[
    (
        "kcm -56x8 plain estimate",
        "dabb18259139f361f024523b2411afa72791e70d7a129a0726656f61718efe2c",
    ),
    (
        "kcm -56x8 plain analyze",
        "70e39be44807aec414d633168cae42011ef67c8a1d23b525f7b5cb8cbdf19275",
    ),
    (
        "kcm -56x8 plain sealed",
        "90492197b517983d53b390278886fd2d079d891915f788c08b5ee1f845a0713f",
    ),
    (
        "kcm -56x8 plain report",
        "2e56ba05ec1a444c6fb1d2f5fc73a75559b4df0c1674ad0c118b1cb05a1c10eb",
    ),
    (
        "kcm -56x8 pipelined estimate",
        "942f21b9786eb812f604d125c10e4482f758e594bb93456968416d577d769fc3",
    ),
    (
        "kcm -56x8 pipelined analyze",
        "bfdefc25fe31d01a117cb49aab8192f965287af97045018fa5ce00fc840191a1",
    ),
    (
        "kcm -56x8 pipelined sealed",
        "d5ca3d9fab581c91925e4357a4e121b3caa4ada10f64d2378d8fe469e7a79b6b",
    ),
    (
        "kcm -56x8 pipelined report",
        "8c97a34c88a53df3c4311c01a10a04fd5a401c94701d86adcaf5625abae53be7",
    ),
    (
        "kcm 2047x9 plain estimate",
        "f36cfe7cdf992bdef198fb2e93e53083075dd48cb8e36617dae7c10052fc0025",
    ),
    (
        "kcm 2047x9 plain analyze",
        "570234c448ac4fd7353e8e02df8497871f439617c2f934c2c3da2e9cabec47b7",
    ),
    (
        "kcm 2047x9 plain sealed",
        "3eb7d6bd0049e2c90b3d33dd081c08c82a3ebdd8d79fba65d444be10c977b943",
    ),
    (
        "kcm 2047x9 plain report",
        "e46aa145b69beb95bb1fcde86e40594c9eee2e1d9427af12a3425628e872fc31",
    ),
    (
        "kcm 2047x9 pipelined estimate",
        "f4c5f760939ac6d659600f658ac77eb914b1c4e808483ba1c463df89b47d683b",
    ),
    (
        "kcm 2047x9 pipelined analyze",
        "3c95df795e6d4c6d8daefd3b12dc46ab4d0f32cab0427036ded4596650df3c9d",
    ),
    (
        "kcm 2047x9 pipelined sealed",
        "32df4ecbba7d8d02e22d4adc5e692658b74f8c43b47aaaed52b9e39c1ef6f642",
    ),
    (
        "kcm 2047x9 pipelined report",
        "7b95737fd3948d2dacc905ec8c308b622fbcffb11b583d26b3b687ed585c92d9",
    ),
    (
        "kcm -2048x10 plain estimate",
        "9b981fd5440485c1178d5a3c954c1983fc9410fed09892f2805a57fef530df94",
    ),
    (
        "kcm -2048x10 plain analyze",
        "fa4ed84c27a68bf6450453a9c3c3d190ede9ceae0024595ac0ab0f6953df0e92",
    ),
    (
        "kcm -2048x10 plain sealed",
        "5052d0808af7d8a441cbbd0a3c7dedfb516fa8f6855ed471246790dfc5b78986",
    ),
    (
        "kcm -2048x10 plain report",
        "327cc4b8462cd25a86feb2ea856d12c2cbdea588973d689bd5b78382679fb739",
    ),
    (
        "kcm -2048x10 pipelined estimate",
        "7bd29d616a07468db02bc7b0aa031f9225dfe3b24c559c38e2347dd73462163d",
    ),
    (
        "kcm -2048x10 pipelined analyze",
        "0f8909174e82e5b20bf6d155ed4e0e6f37bc233becfb55d77755e2967b184ef3",
    ),
    (
        "kcm -2048x10 pipelined sealed",
        "dd8119341a7ddfd351eaba905a412f8883e5c92bfcf7dabb1ac8d2794fef1f11",
    ),
    (
        "kcm -2048x10 pipelined report",
        "e8385656e3bd100df6390ea4271aff0cab299de006f000ca1f028fd7a75628bd",
    ),
    (
        "kcm 1x11 plain estimate",
        "33905e6d147d7c19801366f0697a1a1fe04db2671041239aabd617fbeb7b666f",
    ),
    (
        "kcm 1x11 plain analyze",
        "2dd293b77c3c0ca20ddf1eadfddf847e33b362f12c4b72a0c8f91f7bc98ca46b",
    ),
    (
        "kcm 1x11 plain sealed",
        "42502d882c6deed89db89d8a11bd2d501acd4e67cd304754daf978e3ace0ed53",
    ),
    (
        "kcm 1x11 plain report",
        "3f4595da3024531ce0a14e42b2ec02b838f9ade1eff7e39d7596a59b15651b92",
    ),
    (
        "kcm 1x11 pipelined estimate",
        "7da682689fb4bf5923b149c2a4aea913b372e0b0d90627f654f1416d54015308",
    ),
    (
        "kcm 1x11 pipelined analyze",
        "dc73360f9e9f2499990cd10ae1875fc7c5bf5b413b78a27214ac73880ca04a7f",
    ),
    (
        "kcm 1x11 pipelined sealed",
        "139fa6bef9fcbae50b503e6832249e20d409985a4f5f52441a31bb0054010ef1",
    ),
    (
        "kcm 1x11 pipelined report",
        "76a2b5172a93086192a500c93cf829e21a231dbc2b09504659f0a66b61d08d54",
    ),
    (
        "kcm -1x12 plain estimate",
        "27f5b3f0ae6d37e7afb66b1b4709b81cf04685b871861df418a1ad4d43087a02",
    ),
    (
        "kcm -1x12 plain analyze",
        "5c06e02291f735ad4b5e6dba9fc7cf55454fafdb92451c0f45ae723793ccecab",
    ),
    (
        "kcm -1x12 plain sealed",
        "464d1f87ea61575383eb4be25936c8cbfacac7a4ee6521a500f45d1ca6463d6f",
    ),
    (
        "kcm -1x12 plain report",
        "1f3716940933818c06bd6d4ccff33020cf562ecfebf72f3bd7ecd21b46b54ecb",
    ),
    (
        "kcm -1x12 pipelined estimate",
        "bd71c14f7c45822ca12bac2189d1dd7a326ae9143cae054b03f3bcc88a735b83",
    ),
    (
        "kcm -1x12 pipelined analyze",
        "07b242618b43a9a1067615cc3cb976dbb98c88a7281b4db67efc4ffef8453e52",
    ),
    (
        "kcm -1x12 pipelined sealed",
        "25cf8a74b2c33da2516ec030bc4a6fd0ef80d27d8b30fb2981968e649967cc8a",
    ),
    (
        "kcm -1x12 pipelined report",
        "786c64a641c14efdddf9b0d9ef57c8e4992e3ddb303442fde45a95dfa95a2b55",
    ),
    (
        "kcm 1234x13 plain estimate",
        "3c4cc26beca8bdc9852c86d050f4c8efb500f28caa560354913a791b6056b9d0",
    ),
    (
        "kcm 1234x13 plain analyze",
        "c9f45a0c0fb663fd53be6ea52ab66e15acb6cf582bcf61a275a669bafb7684f8",
    ),
    (
        "kcm 1234x13 plain sealed",
        "7f4e346a2185017e39ae4607ae8dcd46f50bc9ab919c8a79263b89dc25604785",
    ),
    (
        "kcm 1234x13 plain report",
        "c4cbcfaff8d528dee67ea1979ef93c0647f68a09ecf0451eb11063deb088f650",
    ),
    (
        "kcm 1234x13 pipelined estimate",
        "70f3d9e78ff972bbc3ca96542eb44ed7b96737b72772d864d684f1013680609f",
    ),
    (
        "kcm 1234x13 pipelined analyze",
        "29943b741a4b71222867390db7aadfae4b8cb282d14a50686612543cca4bb937",
    ),
    (
        "kcm 1234x13 pipelined sealed",
        "2aeaa0aa7e86c73825efc88841329d71bbd7524eed0ad80c6090edd6239f0c54",
    ),
    (
        "kcm 1234x13 pipelined report",
        "e20e3d4408bc95994dfd09e0e573127b384e6afb4f5d73aae673d5fd98410ace",
    ),
    (
        "kcm -777x14 plain estimate",
        "54fee96671f36ce0c367d7cf20d64c8df1b830e230dc6c42a5585298fcec2b08",
    ),
    (
        "kcm -777x14 plain analyze",
        "a108045fe01a3de0a525acbbb0f238eaa213b927e14f78dce7804507e3e5220a",
    ),
    (
        "kcm -777x14 plain sealed",
        "374ef1e253bb8be5f2a4106f0b815b77fdeb7775ab8cd1876155a47b6d8f126b",
    ),
    (
        "kcm -777x14 plain report",
        "b134625aeecc6295171c1208c70ef6e96ba41d20853cf145f836c9d7b0ad7298",
    ),
    (
        "kcm -777x14 pipelined estimate",
        "21ebdb49d63c008da5f703aca580799c86c5da0a4786ac9eaee9ffaaab934833",
    ),
    (
        "kcm -777x14 pipelined analyze",
        "a6e5a3894f28202e4a07ecbeffd1d69442ad1dc8095ff3f832382903e0a04e19",
    ),
    (
        "kcm -777x14 pipelined sealed",
        "a2fd5863e1df45fcf2f808850ccc9f7682eea64e76c9cef794f946b0a2db93b0",
    ),
    (
        "kcm -777x14 pipelined report",
        "0317f3df6ab7b88bed71421f4d88303800004f07e105ccaf0ceb9fd42fcacf4c",
    ),
    (
        "kcm 3x15 plain estimate",
        "e57f3565e00b8b87edee940bbc3aa6a24b3e257699224c5a6e3eabf6a3da9beb",
    ),
    (
        "kcm 3x15 plain analyze",
        "1eb1f5d741256cbd8a3a56d849b6865cb1e772837caee724e950c7912d0006bb",
    ),
    (
        "kcm 3x15 plain sealed",
        "83f8c578b7bd15f04e06fc06d9a85d9d26e90261943cb2d8c613eed313beb875",
    ),
    (
        "kcm 3x15 plain report",
        "e29aed6183e7740fc19d78bbc50cb0744a198560e7d0b47def56dbf12a5d73d5",
    ),
    (
        "kcm 3x15 pipelined estimate",
        "c46e239e1241a812e765ece63ce0b14185f730d4ddc7a87723b3af71e61ad042",
    ),
    (
        "kcm 3x15 pipelined analyze",
        "b0dd74d765288a525fa1f6a6d421ba6938d1ac8c8bb06cff9183ab157a0232b5",
    ),
    (
        "kcm 3x15 pipelined sealed",
        "a681b97270a523f6afb0b560eef89e10cf3fddaf5697b4425c11e1f4ea68b5b9",
    ),
    (
        "kcm 3x15 pipelined report",
        "e9460c8e1b58eefaa9e8a7fc24909eab6bd86fa484cef3c4005a031c88786fb7",
    ),
    (
        "kcm -1500x16 plain estimate",
        "3cb5f92b3a909c9ddd2d006c99a60425b5038167c60f640f26c1234f0a1c97b3",
    ),
    (
        "kcm -1500x16 plain analyze",
        "a23c591d11020dd404fe77cc0426cc31961cd89b7e204fc8c72ead17c946b112",
    ),
    (
        "kcm -1500x16 plain sealed",
        "804585b85439c8b6711634058a0d9de7463104a86dbb826d2a5e3af14f1c05ef",
    ),
    (
        "kcm -1500x16 plain report",
        "0458214f1ab52f54ebe5a1d10c8b37570555c4c15f1fcf9ccea176347071b040",
    ),
    (
        "kcm -1500x16 pipelined estimate",
        "e97bffaab6f635f9e2d4540cbff793dc4737039241e48f80a39bb87eb3bee10f",
    ),
    (
        "kcm -1500x16 pipelined analyze",
        "43c43a2c0559f6ca3c7436f504b2f28d7589635aac6ada4b87353c695254dd7f",
    ),
    (
        "kcm -1500x16 pipelined sealed",
        "0ee341ce58fc7960c87b29054df48a19298bbee7522f1826bb604ab89864ac30",
    ),
    (
        "kcm -1500x16 pipelined report",
        "9d9a2ec135a27f7fa68a86a3deb7d4749e928c5437ea94fecc6d0b2e3b39af45",
    ),
];

/// The `(constant, width)` pairs of `netlist_bytes.rs`'s journey KCMs.
const KCM_SHAPES: &[(i64, u32)] = &[
    (-56, 8),
    (2047, 9),
    (-2048, 10),
    (1, 11),
    (-1, 12),
    (1234, 13),
    (-777, 14),
    (3, 15),
    (-1500, 16),
];

fn key() -> [u8; 32] {
    core::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
}

const NONCE: u64 = 0x1d2c_3b4a;

fn digest(bytes: &[u8]) -> String {
    to_hex(&sha256(bytes))
}

fn debug_digest(value: &impl std::fmt::Debug) -> String {
    digest(format!("{value:?}").as_bytes())
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

fn zoo_constraints() -> TimingConstraints {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/zoo.constraints");
    let text = std::fs::read_to_string(path).expect("zoo constraints fixture");
    TimingConstraints::parse(&text).expect("constraints parse")
}

/// Compares computed `(label, digest)` pairs with a frozen table and
/// names every mismatch in one failure.
fn assert_frozen(got: &[(String, String)], frozen: &[(&str, &str)]) {
    let mut bad = Vec::new();
    for (i, (label, digest)) in got.iter().enumerate() {
        match frozen.get(i) {
            Some(&(l, d)) if l == label && d == digest => {}
            Some(&(l, d)) => bad.push(format!("{label}: frozen ({l:?}, {d:?}), got {digest:?}")),
            None => bad.push(format!("{label}: not frozen, got {digest:?}")),
        }
    }
    if frozen.len() > got.len() {
        bad.push(format!(
            "{} frozen outputs not computed",
            frozen.len() - got.len()
        ));
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn zoo_timing_is_frozen() {
    let zoo_constraints = zoo_constraints();
    let mut got = Vec::new();
    for (name, circuit) in example_zoo() {
        let mut push = |what: &str, digest: String| got.push((format!("{name} {what}"), digest));
        push(
            "estimate",
            debug_digest(&estimate_timing(&circuit).expect("estimate")),
        );
        let mut stripped = circuit.clone();
        stripped.strip_placement();
        push(
            "estimate stripped",
            debug_digest(&estimate_timing(&stripped).expect("estimate stripped")),
        );
        let placed = auto_place(&circuit, &PlacerConfig::default()).expect("auto_place");
        push(
            "estimate auto-placed",
            debug_digest(&estimate_timing(&placed.circuit).expect("estimate placed")),
        );
        push(
            "analyze",
            debug_digest(&analyze_timing(&circuit, &zoo_constraints).expect("analyze")),
        );
        let phys = place_and_route(&circuit, &PnrConfig::virtex()).expect("place and route");
        push(
            "routed timing",
            debug_digest(&phys.timing().expect("routed timing")),
        );
        push(
            "routed analyze",
            debug_digest(&phys.analyze(&zoo_constraints).expect("routed analyze")),
        );
    }
    assert_frozen(&got, ZOO);
}

#[test]
fn journey_kcm_timing_and_seals_are_frozen() {
    let mut clock = TimingConstraints::new();
    clock.clock("clk", 10.0, "clk");
    let mut lint = LintConfig::new();
    lint.max_fanout = 0;
    lint.max_port_width = 0;
    let policy = SealPolicy {
        lint,
        timing: Some(clock.clone()),
        ..SealPolicy::default()
    };
    let key = key();
    let mut got = Vec::new();
    for &(constant, width) in KCM_SHAPES {
        for pipelined in [false, true] {
            let generator = KcmMultiplier::new(constant, width, full_width(constant, width))
                .signed(true)
                .pipelined(pipelined);
            let circuit = Circuit::from_generator(&generator).expect("KCM elaborates");
            let shape = if pipelined { "pipelined" } else { "plain" };
            let mut push = |what: &str, digest: String| {
                got.push((format!("kcm {constant}x{width} {shape} {what}"), digest));
            };
            push(
                "estimate",
                debug_digest(&estimate_timing(&circuit).expect("estimate")),
            );
            push(
                "analyze",
                debug_digest(&analyze_timing(&circuit, &clock).expect("analyze")),
            );
            let sealed = seal_design(&circuit, &policy, &key, NONCE).expect("seal");
            push("sealed", digest(sealed.bytes()));
            push("report", digest(sealed.report().to_json().as_bytes()));
        }
    }
    assert_frozen(&got, KCMS);
}
