//! SHA-256 and HMAC-SHA-256, the signing substrate for licenses,
//! watermarks and sealed bundles.
//!
//! The paper defers to "a variety of web-based security measures"; a
//! keyed MAC is the minimal such measure that lets a vendor issue
//! unforgeable capability licenses. Implemented in-repo per the
//! reproduction's no-new-dependencies rule (FIPS 180-4).
//!
//! The compression function has two kernels: the portable [`compress`],
//! and on x86-64 CPUs with the SHA extensions a SHA-NI kernel about
//! four times faster. Each hasher takes the fastest kernel CPUID
//! reports; nothing else selects one. The portable kernel is the
//! fallback everywhere else and the reference the tests hold the
//! SHA-NI kernel to. The same two kernels compute the sealing
//! keystream ([`HmacKey::xor_keystream`]).

/// A streaming SHA-256 hasher (FIPS 180-4): feed the message with
/// [`Sha256::update`] in any split, then take the digest with
/// [`Sha256::finish`]. Whole 64-byte blocks are compressed straight
/// from the caller's slice; only a trailing partial block is buffered,
/// so hashing never copies the message.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    block: [u8; 64],
    /// Bytes of `block` in use; below 64 between calls.
    buffered: usize,
    /// Message length so far, in bytes.
    len: u64,
    kernel: Kernel,
}

impl Sha256 {
    /// A hasher at the FIPS 180-4 initial hash value, on the fastest
    /// kernel this CPU runs.
    pub(crate) fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: [
                0x6a09_e667,
                0xbb67_ae85,
                0x3c6e_f372,
                0xa54f_f53a,
                0x510e_527f,
                0x9b05_688c,
                0x1f83_d9ab,
                0x5be0_cd19,
            ],
            block: [0; 64],
            buffered: 0,
            len: 0,
            kernel,
        }
    }

    /// Appends bytes to the message.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.block[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            self.kernel
                .compress_blocks(&mut self.state, std::slice::from_ref(&self.block));
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        self.kernel.compress_blocks(&mut self.state, blocks);
        self.block[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads the message (0x80, zeros, 64-bit big-endian bit length)
    /// and returns its digest.
    pub(crate) fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.block[self.buffered] = 0x80;
        self.block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.kernel
                .compress_blocks(&mut self.state, std::slice::from_ref(&self.block));
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel
            .compress_blocks(&mut self.state, std::slice::from_ref(&self.block));
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A SHA-256 compression kernel this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`compress`], in portable Rust.
    Portable,
    /// [`shani::compress_blocks`]; the token shows CPUID reported every
    /// extension it uses.
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Detected),
}

impl Kernel {
    /// The fastest kernel this CPU runs, chosen from CPUID alone.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = shani::Detected::new() {
            return Kernel::ShaNi(detected);
        }
        Kernel::Portable
    }

    /// Folds whole 64-byte blocks into the state, in order.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Portable => {
                for block in blocks {
                    compress(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Kernel::ShaNi(_) => {
                // SAFETY: `shani::compress_blocks` is safe Rust compiled
                // for the SHA, SSE2, SSSE3 and SSE4.1 extensions; its only
                // requirement is that the CPU has them. A `ShaNi` kernel
                // carries a `Detected` token, which `Detected::new` alone
                // makes, and only after CPUID reported all four.
                unsafe { shani::compress_blocks(state, blocks) }
            }
        }
    }

    /// XORs the keystream of [`HmacKey::xor_keystream`] over `data`,
    /// from the key's `ipad` and `opad` midstates.
    fn xor_keystream(self, ipad: &[u32; 8], opad: &[u32; 8], nonce: u64, data: &mut [u8]) {
        match self {
            Kernel::Portable => {
                let mut inner = [0u8; 64];
                inner[..8].copy_from_slice(&nonce.to_le_bytes());
                inner[16] = 0x80;
                inner[56..].copy_from_slice(&INNER_BITS.to_be_bytes());
                let mut outer = [0u8; 64];
                outer[32] = 0x80;
                outer[56..].copy_from_slice(&OUTER_BITS.to_be_bytes());
                for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
                    inner[8..16].copy_from_slice(&counter.to_le_bytes());
                    let mut state = *ipad;
                    compress(&mut state, &inner);
                    for (bytes, word) in outer.chunks_exact_mut(4).zip(state) {
                        bytes.copy_from_slice(&word.to_be_bytes());
                    }
                    let mut state = *opad;
                    compress(&mut state, &outer);
                    for (bytes, word) in chunk.chunks_mut(4).zip(state) {
                        for (byte, key) in bytes.iter_mut().zip(word.to_be_bytes()) {
                            *byte ^= key;
                        }
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Kernel::ShaNi(_) => {
                // SAFETY: as for `compress_blocks`: `shani::xor_keystream`
                // is safe Rust compiled for the SHA, SSE2, SSSE3 and
                // SSE4.1 extensions, and the `Detected` token a `ShaNi`
                // kernel carries shows CPUID reported all four.
                unsafe { shani::xor_keystream(ipad, opad, nonce, data) }
            }
        }
    }
}

/// Bit length of a keystream block's inner message: the `ipad` block
/// and `nonce || counter`.
const INNER_BITS: u64 = (64 + 16) * 8;

/// Bit length of a keystream block's outer message: the `opad` block
/// and the inner digest.
const OUTER_BITS: u64 = (64 + 32) * 8;

/// One SHA-256 compression: folds a 64-byte block into the state.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// An HMAC-SHA-256 key (RFC 2104) with its two padded key blocks
/// already compressed: `inner` and `outer` are the midstates after
/// `key ^ ipad` and `key ^ opad`. A MAC then costs the message's own
/// compressions plus one for the outer hash, so a short message such
/// as a keystream counter block costs two compressions in all. No
/// `Debug`: the midstates are as secret as the key.
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Derives the midstates; keys longer than a block are hashed
    /// first.
    pub(crate) fn new(key: &[u8]) -> Self {
        Self::with_kernel(Kernel::detect(), key)
    }

    fn with_kernel(kernel: Kernel, key: &[u8]) -> Self {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            let mut hasher = Sha256::with_kernel(kernel);
            hasher.update(key);
            block[..32].copy_from_slice(&hasher.finish());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut hasher = Sha256::with_kernel(kernel);
            hasher.update(&block.map(|b| b ^ pad));
            hasher
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// The MAC of one message, hashed in place.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }

    /// XORs the HMAC-counter keystream over `data` in place (the same
    /// call encrypts and decrypts): 32-byte block `i` is the MAC of
    /// `nonce || i`, both little-endian. Each block's inner and outer
    /// messages fill one padded block apiece, of which only the counter
    /// words change, so a block costs two compressions from the
    /// midstates; the SHA-NI kernel compresses four blocks in lockstep.
    pub(crate) fn xor_keystream(&self, nonce: u64, data: &mut [u8]) {
        self.inner
            .kernel
            .xor_keystream(&self.inner.state, &self.outer.state, nonce, data);
    }
}

/// Computes the SHA-256 digest of a message.
///
/// # Examples
///
/// ```
/// use ipd_core::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf], // ba7816bf... the FIPS test vector
/// );
/// ```
#[must_use]
pub fn sha256(message: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(message);
    hasher.finish()
}

/// Computes HMAC-SHA-256 (RFC 2104) of a message under a key.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Computes the SHA-256 digest of a sequence of byte parts, each
/// length-prefixed (64-bit little-endian) so part boundaries are
/// unambiguous: `["ab", "c"]` and `["a", "bc"]` hash differently.
///
/// This is the framing [`crate::bundle_digest`] uses to digest a
/// bundle's name and entries without concatenation ambiguity.
#[must_use]
pub fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(&(part.len() as u64).to_le_bytes());
        hasher.update(part);
    }
    hasher.finish()
}

/// Formats a digest as lowercase hex.
#[must_use]
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

static K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// The SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
///
/// `sha256rnds2` runs two rounds on a state held as two vectors, ABEF
/// and CDGH, and `sha256msg1`/`sha256msg2` extend the message schedule
/// four words at a time. Everything here is safe Rust: the intrinsics
/// take and return values, and this module's functions are compiled
/// for the extensions they use. Calling [`compress_blocks`] from code
/// compiled without them is the one `unsafe` step, taken only with a
/// [`Detected`] token.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_cvtsi128_si64, _mm_extract_epi32,
        _mm_extract_epi64, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
        _mm_unpackhi_epi64, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    use super::{INNER_BITS, K, OUTER_BITS};

    /// One state per block in flight, as its ABEF and CDGH vectors.
    type States = [[__m128i; 2]; LANES];

    /// Keystream blocks compressed in lockstep. On the 2-vCPU Xeon the
    /// benchmark runs on, `sha256rnds2` takes about 1.6 ns after the
    /// previous one of its own block but issues every 1.2 ns across
    /// independent blocks, so one block at a time leaves the unit
    /// waiting.
    const LANES: usize = 4;

    /// Proof that CPUID reported the SHA, SSE2, SSSE3 and SSE4.1
    /// extensions. The field is private, so [`Detected::new`] is the
    /// only way to make one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Detected(());

    impl Detected {
        /// A token when this CPU has every extension the kernel uses.
        pub(super) fn new() -> Option<Detected> {
            (is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"))
            .then_some(Detected(()))
        }
    }

    /// Folds whole 64-byte blocks into the state, in order; the same
    /// result as [`super::compress`] on each block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        // Lane 3 first: ABEF holds A in its top lane and F in lane 0.
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = message_words(block, 0);
            let mut w1 = message_words(block, 1);
            let mut w2 = message_words(block, 2);
            let mut w3 = message_words(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for group in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }

    /// XORs the keystream of [`super::HmacKey::xor_keystream`] over
    /// `data`, from the `ipad` and `opad` midstates, [`LANES`] blocks at
    /// a time. The padded inner and outer blocks are built as message
    /// words; each inner digest stays in registers as the first eight
    /// words of its outer block, and the keystream is XORed 16 bytes at
    /// a time. A partial last group computes whole blocks and uses what
    /// the data needs.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn xor_keystream(ipad: &[u32; 8], opad: &[u32; 8], nonce: u64, data: &mut [u8]) {
        let (ipad, opad) = (state_vectors(ipad), state_vectors(opad));
        // Message words 4..8 and 12..16 of either block: the 0x80 pad
        // byte opens the first word after the message, and the bit
        // length closes the block.
        let pad_word = _mm_set_epi32(0, 0, 0, 0x8000_0000_u32 as i32);
        let inner_length = _mm_set_epi32(INNER_BITS as i32, 0, 0, 0);
        let outer_length = _mm_set_epi32(OUTER_BITS as i32, 0, 0, 0);
        let [n0, n1] = le_words(nonce);
        for (group, chunk) in (0u64..).zip(data.chunks_mut(32 * LANES)) {
            let mut counters = [_mm_setzero_si128(); LANES];
            for (lane, words) in (0u64..).zip(&mut counters) {
                let [c0, c1] = le_words(LANES as u64 * group + lane);
                *words = _mm_set_epi32(c1, c0, n1, n0);
            }
            let mut inner = [ipad; LANES];
            compress_lanes(
                &mut inner,
                [
                    counters,
                    [pad_word; LANES],
                    [_mm_setzero_si128(); LANES],
                    [inner_length; LANES],
                ],
            );
            let mut digests = [[_mm_setzero_si128(); LANES]; 2];
            for (lane, [abef, cdgh]) in inner.into_iter().enumerate() {
                [digests[0][lane], digests[1][lane]] = digest_words(abef, cdgh);
            }
            let mut outer = [opad; LANES];
            compress_lanes(
                &mut outer,
                [
                    digests[0],
                    digests[1],
                    [pad_word; LANES],
                    [outer_length; LANES],
                ],
            );
            for (block, [abef, cdgh]) in chunk.chunks_mut(32).zip(outer) {
                for (half, words) in block.chunks_mut(16).zip(digest_words(abef, cdgh)) {
                    xor_bytes(half, _mm_shuffle_epi8(words, big_endian()));
                }
            }
        }
    }

    /// Compresses one block into each state, all in lockstep: `w[q]`
    /// holds message words `4 * q .. 4 * q + 4` of every lane's block,
    /// as [`message_words`] lays them out.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_lanes(states: &mut States, w: [[__m128i; LANES]; 4]) {
        let start = *states;
        let [mut w0, mut w1, mut w2, mut w3] = w;
        rounds_lanes(states, w0, 0);
        rounds_lanes(states, w1, 1);
        rounds_lanes(states, w2, 2);
        rounds_lanes(states, w3, 3);
        for group in (4..16).step_by(4) {
            w0 = schedule_lanes(w0, w1, w2, w3);
            rounds_lanes(states, w0, group);
            w1 = schedule_lanes(w1, w2, w3, w0);
            rounds_lanes(states, w1, group + 1);
            w2 = schedule_lanes(w2, w3, w0, w1);
            rounds_lanes(states, w2, group + 2);
            w3 = schedule_lanes(w3, w0, w1, w2);
            rounds_lanes(states, w3, group + 3);
        }
        for ([abef, cdgh], [abef_in, cdgh_in]) in states.iter_mut().zip(start) {
            *abef = _mm_add_epi32(*abef, abef_in);
            *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
        }
    }

    /// [`rounds4`] on every lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds_lanes(states: &mut States, w: [__m128i; LANES], group: usize) {
        for ([abef, cdgh], w) in states.iter_mut().zip(w) {
            rounds4(abef, cdgh, w, group);
        }
    }

    /// [`schedule`] on every lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule_lanes(
        w0: [__m128i; LANES],
        w1: [__m128i; LANES],
        w2: [__m128i; LANES],
        w3: [__m128i; LANES],
    ) -> [__m128i; LANES] {
        let mut next = w0;
        for (lane, next) in next.iter_mut().enumerate() {
            *next = schedule(w0[lane], w1[lane], w2[lane], w3[lane]);
        }
        next
    }

    /// A state as its ABEF and CDGH vectors.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn state_vectors(state: &[u32; 8]) -> [__m128i; 2] {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        // Lane 3 first: ABEF holds A in its top lane and F in lane 0.
        [_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h)]
    }

    /// A state's words in digest order, A to D and E to H, the first in
    /// lane 0: the message words of the digest's bytes.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn digest_words(abef: __m128i, cdgh: __m128i) -> [__m128i; 2] {
        // Lanes 3..0 to 0..3.
        const REVERSE: i32 = 0x1b;
        [
            _mm_shuffle_epi32::<REVERSE>(_mm_unpackhi_epi64(cdgh, abef)),
            _mm_shuffle_epi32::<REVERSE>(_mm_unpacklo_epi64(cdgh, abef)),
        ]
    }

    /// The two big-endian message words of a little-endian `u64`, as
    /// lane values.
    fn le_words(value: u64) -> [i32; 2] {
        [value as u32, (value >> 32) as u32].map(|word| word.swap_bytes() as i32)
    }

    /// XORs `key`'s bytes, lane 0's lowest first, over up to 16 bytes.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn xor_bytes(bytes: &mut [u8], key: __m128i) {
        if let Ok(whole) = <&mut [u8; 16]>::try_from(&mut *bytes) {
            *whole = to_bytes(_mm_xor_si128(from_bytes(whole), key));
        } else {
            for (byte, key) in bytes.iter_mut().zip(to_bytes(key)) {
                *byte ^= key;
            }
        }
    }

    /// Sixteen bytes as a vector, byte 0 in lane 0's lowest byte.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn from_bytes(bytes: &[u8; 16]) -> __m128i {
        let half = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// A vector's sixteen bytes, lane 0's lowest first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn to_bytes(vector: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&_mm_cvtsi128_si64(vector).to_le_bytes());
        out[8..].copy_from_slice(&_mm_extract_epi64::<1>(vector).to_le_bytes());
        out
    }

    /// The `_mm_shuffle_epi8` mask that reverses the bytes of each
    /// 32-bit lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn big_endian() -> __m128i {
        _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203)
    }

    /// Big-endian message words `4 * quarter .. 4 * quarter + 4` of a
    /// block, the first in lane 0.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn message_words(block: &[u8; 64], quarter: usize) -> __m128i {
        let bytes = block[16 * quarter..16 * quarter + 16]
            .try_into()
            .expect("16 bytes");
        _mm_shuffle_epi8(from_bytes(bytes), big_endian())
    }

    /// Rounds `4 * group .. 4 * group + 4` on schedule words `w`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = |i: usize| K[4 * group + i] as i32;
        let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        // Each `sha256rnds2` takes the two words in the low lanes and
        // returns the new ABEF; the old ABEF becomes the new CDGH.
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write as _;

    use super::*;
    use ipd_testutil::XorShift64;

    /// Every kernel this CPU runs, portable first. Says so when the
    /// SHA-NI kernel is missing, so a run that checked only the
    /// portable kernel reads as such; the note goes straight to stderr,
    /// past the test harness's capture, so passing runs show it too.
    fn kernels() -> Vec<Kernel> {
        let kernels = vec![Kernel::Portable, Kernel::detect()];
        if kernels[1] == Kernel::Portable {
            let _ = writeln!(
                std::io::stderr(),
                "no SHA-NI on this CPU: checking the portable kernel alone"
            );
            return vec![Kernel::Portable];
        }
        kernels
    }

    fn sha256_on(kernel: Kernel, message: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::with_kernel(kernel);
        hasher.update(message);
        hasher.finish()
    }

    fn hmac_on(kernel: Kernel, key: &[u8], message: &[u8]) -> String {
        to_hex(&HmacKey::with_kernel(kernel, key).mac(message))
    }

    #[test]
    fn detection_picks_the_fastest_kernel() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            matches!(Kernel::detect(), Kernel::ShaNi(_)),
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Kernel::detect(), Kernel::Portable);
        assert_eq!(Sha256::new().kernel, Kernel::detect());
    }

    /// Both kernels fold the same random blocks into the same random
    /// states, one block at a time and in runs of up to four.
    #[test]
    fn kernels_agree_on_random_blocks() {
        let kernels = kernels();
        let mut rng = XorShift64::new(0x5A_256);
        for case in 0..10_000 {
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = rng.next_u64() as u32;
            }
            let run = 1 + case % 4;
            let blocks: Vec<[u8; 64]> = (0..run)
                .map(|_| rng.bytes(64).try_into().expect("64 bytes"))
                .collect();
            let mut expected = state;
            for block in &blocks {
                compress(&mut expected, block);
            }
            for &kernel in &kernels {
                let mut got = state;
                kernel.compress_blocks(&mut got, &blocks);
                assert_eq!(got, expected, "{kernel:?}, case {case}");
                let mut one_by_one = state;
                for block in &blocks {
                    kernel.compress_blocks(&mut one_by_one, std::slice::from_ref(block));
                }
                assert_eq!(one_by_one, expected, "{kernel:?}, case {case}, one by one");
            }
        }
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        for kernel in kernels() {
            assert_eq!(
                to_hex(&sha256_on(kernel, b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{kernel:?}"
            );
            assert_eq!(
                to_hex(&sha256_on(kernel, b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{kernel:?}"
            );
            assert_eq!(
                to_hex(&sha256_on(
                    kernel,
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn long_message() {
        let message = vec![b'a'; 1_000_000];
        for kernel in kernels() {
            assert_eq!(
                to_hex(&sha256_on(kernel, &message)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    /// For every length 0..=130 (across the 55/56 padding edge and two
    /// block boundaries), every two-part split and a byte-at-a-time
    /// feed give the one-shot digest, and the one-shot digests of all
    /// lengths hash to a value frozen from the original copying
    /// implementation. Run on each kernel.
    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        for kernel in kernels() {
            let mut all = Vec::new();
            for n in 0..=130usize {
                let message: Vec<u8> = (0..n).map(|i| (i * 7 + 1) as u8).collect();
                let whole = sha256_on(kernel, &message);
                for split in 0..=n {
                    let mut hasher = Sha256::with_kernel(kernel);
                    hasher.update(&message[..split]);
                    hasher.update(&message[split..]);
                    assert_eq!(
                        hasher.finish(),
                        whole,
                        "{kernel:?} length {n} split {split}"
                    );
                }
                let mut hasher = Sha256::with_kernel(kernel);
                for byte in &message {
                    hasher.update(std::slice::from_ref(byte));
                }
                assert_eq!(
                    hasher.finish(),
                    whole,
                    "{kernel:?} length {n} byte at a time"
                );
                all.extend_from_slice(&whole);
            }
            assert_eq!(
                to_hex(&sha256_on(kernel, &all)),
                "d959a41ac0a5596363055ecd1c08d54eb4347fbd25233db0007bae1a28756d03",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        assert_eq!(
            to_hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        for kernel in kernels() {
            // RFC 4231 test case 1.
            assert_eq!(
                hmac_on(kernel, &[0x0b; 20], b"Hi There"),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                "{kernel:?}"
            );
            // Test case 2: key "Jefe".
            assert_eq!(
                hmac_on(kernel, b"Jefe", b"what do ya want for nothing?"),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // RFC 4231 test case 6 (131-byte key).
        for kernel in kernels() {
            assert_eq!(
                hmac_on(
                    kernel,
                    &[0xaa; 131],
                    b"Test Using Larger Than Block-Size Key - Hash Key First",
                ),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                "{kernel:?}"
            );
        }
    }

    /// The keystream one MAC per block, as sealing first computed it:
    /// the reference both kernels are held to.
    fn keystream_oracle(key: &HmacKey, nonce: u64, data: &mut [u8]) {
        let mut block_input = [0u8; 16];
        block_input[..8].copy_from_slice(&nonce.to_le_bytes());
        for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
            block_input[8..].copy_from_slice(&counter.to_le_bytes());
            for (byte, key) in chunk.iter_mut().zip(key.mac(&block_input)) {
                *byte ^= key;
            }
        }
    }

    /// Every length 0..=300 (across the 32-byte block, the 128-byte
    /// group of four and their tails) and seeded lengths up to 8 KB, at
    /// nonces 0, `u64::MAX` and seeded ones, on each kernel.
    #[test]
    fn keystream_matches_one_mac_per_block() {
        let mut rng = XorShift64::new(0x6B_5EA1);
        let key_bytes = rng.bytes(32);
        let oracle_key = HmacKey::with_kernel(Kernel::Portable, &key_bytes);
        let seeded: Vec<usize> = (0..40).map(|_| rng.index(8 * 1024 + 1)).collect();
        let lengths = (0..=300).chain(seeded).chain([8 * 1024]);
        let mut nonces = vec![0, u64::MAX];
        nonces.extend((0..3).map(|_| rng.next_u64()));
        for kernel in kernels() {
            let key = HmacKey::with_kernel(kernel, &key_bytes);
            for len in lengths.clone() {
                let data = rng.bytes(len);
                for &nonce in &nonces {
                    let mut expected = data.clone();
                    keystream_oracle(&oracle_key, nonce, &mut expected);
                    let mut got = data.clone();
                    key.xor_keystream(nonce, &mut got);
                    assert_eq!(got, expected, "{kernel:?} length {len} nonce {nonce}");
                }
            }
        }
    }

    #[test]
    fn part_framing_is_unambiguous() {
        assert_eq!(
            sha256_parts(&[b"abc"]),
            sha256_parts(&[b"abc"]),
            "deterministic"
        );
        assert_ne!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"a", b"bc"]));
        assert_ne!(sha256_parts(&[b"abc"]), sha256_parts(&[b"abc", b""]));
    }

    #[test]
    fn keyed_macs_differ_by_key() {
        let a = hmac_sha256(b"key-a", b"license");
        let b = hmac_sha256(b"key-b", b"license");
        assert_ne!(a, b);
    }
}
