//! Four-state logic values and logic vectors.
//!
//! JHDL simulates circuits over a four-state algebra so that uninitialized
//! state ([`Logic::X`]) and undriven nets ([`Logic::Z`]) are observable
//! during IP evaluation. The same algebra is used here by the simulator,
//! the technology-library behavioral models and the waveform viewers.

use std::fmt;

/// A single four-state logic value.
///
/// # Examples
///
/// ```
/// use ipd_hdl::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero); // 0 dominates AND
/// assert_eq!(Logic::One | Logic::X, Logic::One);   // 1 dominates OR
/// assert_eq!(!Logic::X, Logic::X);                 // unknown stays unknown
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Logic {
    /// Driven low.
    Zero,
    /// Driven high.
    One,
    /// Unknown (uninitialized or conflicting).
    #[default]
    X,
    /// High impedance (undriven).
    Z,
}

impl Logic {
    /// Converts a boolean into a driven logic value.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for driven values, `None` for `X`/`Z`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// Returns `true` when the value is `0` or `1` (not `X`/`Z`).
    #[must_use]
    pub fn is_driven(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// The character used in waveform and vector displays.
    #[must_use]
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'X',
            Logic::Z => 'Z',
        }
    }

    /// Parses a logic character (`0`, `1`, `x`/`X`, `z`/`Z`).
    #[must_use]
    pub fn from_char(ch: char) -> Option<Self> {
        match ch {
            '0' => Some(Logic::Zero),
            '1' => Some(Logic::One),
            'x' | 'X' => Some(Logic::X),
            'z' | 'Z' => Some(Logic::Z),
            _ => None,
        }
    }

    /// Resolution of two drivers on the same net (Verilog-style `wire`).
    ///
    /// `Z` yields to any driver; conflicting driven values resolve to `X`.
    #[must_use]
    pub fn resolve(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Z, v) | (v, Logic::Z) => v,
            (a, b) if a == b => a,
            _ => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    fn bitxor(self, rhs: Logic) -> Logic {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X | Logic::Z => Logic::X,
        }
    }
}

/// A fixed-width vector of [`Logic`] values, bit 0 = least significant.
///
/// `LogicVec` is the value type carried by multi-bit wires in simulation
/// and testbenches. Conversions to and from integers are provided for
/// both unsigned and two's-complement signed interpretations.
///
/// # Examples
///
/// ```
/// use ipd_hdl::LogicVec;
///
/// let v = LogicVec::from_u64(0b1010, 4);
/// assert_eq!(v.to_string(), "1010");
/// assert_eq!(v.to_u64(), Some(10));
///
/// let s = LogicVec::from_i64(-56, 8);
/// assert_eq!(s.to_i64(), Some(-56));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    bits: Vec<Logic>,
}

impl LogicVec {
    /// An all-`X` vector of the given width.
    #[must_use]
    pub fn unknown(width: usize) -> Self {
        LogicVec {
            bits: vec![Logic::X; width],
        }
    }

    /// An all-zero vector of the given width.
    #[must_use]
    pub fn zeros(width: usize) -> Self {
        LogicVec {
            bits: vec![Logic::Zero; width],
        }
    }

    /// An all-one vector of the given width.
    #[must_use]
    pub fn ones(width: usize) -> Self {
        LogicVec {
            bits: vec![Logic::One; width],
        }
    }

    /// An all-`Z` (undriven) vector of the given width.
    #[must_use]
    pub fn high_z(width: usize) -> Self {
        LogicVec {
            bits: vec![Logic::Z; width],
        }
    }

    /// Builds a vector from bits, index 0 being the LSB.
    #[must_use]
    pub fn from_bits(bits: Vec<Logic>) -> Self {
        LogicVec { bits }
    }

    /// The low `width` bits of `value`, LSB first.
    ///
    /// Bits above 63 are zero.
    #[must_use]
    pub fn from_u64(value: u64, width: usize) -> Self {
        let bits = (0..width)
            .map(|i| {
                if i < 64 {
                    Logic::from_bool((value >> i) & 1 == 1)
                } else {
                    Logic::Zero
                }
            })
            .collect();
        LogicVec { bits }
    }

    /// Two's-complement encoding of `value` in `width` bits.
    ///
    /// Values that do not fit are truncated, matching hardware behaviour.
    #[must_use]
    pub fn from_i64(value: i64, width: usize) -> Self {
        Self::from_u64(value as u64, width)
    }

    /// Parses a binary string, MSB first. `_` separators are ignored.
    ///
    /// Returns `None` on characters outside `01xXzZ_`.
    #[must_use]
    pub fn parse_binary(text: &str) -> Option<Self> {
        let mut bits = Vec::new();
        for ch in text.chars().rev() {
            if ch == '_' {
                continue;
            }
            bits.push(Logic::from_char(ch)?);
        }
        Some(LogicVec { bits })
    }

    /// Number of bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when the vector has no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[must_use]
    pub fn bit(&self, index: usize) -> Logic {
        self.bits[index]
    }

    /// The bit at `index`, or `None` when out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Logic> {
        self.bits.get(index).copied()
    }

    /// Sets the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: usize, value: Logic) {
        self.bits[index] = value;
    }

    /// Iterates over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        self.bits.iter().copied()
    }

    /// Returns the bits as a slice, index 0 = LSB.
    #[must_use]
    pub fn as_bits(&self) -> &[Logic] {
        &self.bits
    }

    /// `true` when every bit is driven (no `X`/`Z`).
    #[must_use]
    pub fn is_fully_driven(&self) -> bool {
        self.bits.iter().all(|b| b.is_driven())
    }

    /// Unsigned integer value, or `None` if any bit is `X`/`Z` or the
    /// width exceeds 64 bits with a set high bit.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        let mut out = 0u64;
        for (i, bit) in self.bits.iter().enumerate() {
            match bit.to_bool()? {
                true if i >= 64 => return None,
                true => out |= 1 << i,
                false => {}
            }
        }
        Some(out)
    }

    /// Two's-complement signed value, or `None` if any bit is `X`/`Z`.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        if self.bits.is_empty() || self.bits.len() > 64 {
            return None;
        }
        let raw = self.to_u64()?;
        let w = self.bits.len();
        if w == 64 {
            return Some(raw as i64);
        }
        let sign = (raw >> (w - 1)) & 1;
        if sign == 1 {
            Some((raw as i64) - (1i64 << w))
        } else {
            Some(raw as i64)
        }
    }

    /// Zero- or sign-extends (or truncates) to `width` bits.
    #[must_use]
    pub fn resized(&self, width: usize, signed: bool) -> Self {
        let fill = if signed {
            self.bits.last().copied().unwrap_or(Logic::Zero)
        } else {
            Logic::Zero
        };
        let mut bits = self.bits.clone();
        bits.resize(width, fill);
        LogicVec { bits }
    }

    /// Concatenates `high` above `self` (`self` keeps the low bits).
    #[must_use]
    pub fn concat(&self, high: &LogicVec) -> Self {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&high.bits);
        LogicVec { bits }
    }

    /// The inclusive bit slice `[lo, hi]` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    #[must_use]
    pub fn slice(&self, hi: usize, lo: usize) -> Self {
        assert!(hi >= lo && hi < self.bits.len(), "slice out of range");
        LogicVec {
            bits: self.bits[lo..=hi].to_vec(),
        }
    }
}

impl fmt::Display for LogicVec {
    /// MSB-first binary rendering, e.g. `1010` for the value ten.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.bits.iter().rev() {
            write!(f, "{}", bit.to_char())?;
        }
        Ok(())
    }
}

impl From<Logic> for LogicVec {
    fn from(bit: Logic) -> Self {
        LogicVec { bits: vec![bit] }
    }
}

impl FromIterator<Logic> for LogicVec {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> Self {
        LogicVec {
            bits: iter.into_iter().collect(),
        }
    }
}

/// `count` values of `width` bits each, stored as bit-planes: the
/// columnar form of a `Vec<LogicVec>` whose values share one width.
///
/// For each bit there is a value plane and an unknown plane of `u64`
/// words, value `k` in bit `k % 64` of word `k / 64`, using the
/// `(value, unknown)` code of the lane-parallel simulators: `0` is
/// `(0,0)`, `1` is `(1,0)`, `X` is `(0,1)` and `Z` is `(1,1)`. Bits past
/// `count` in a plane's last word are always zero, so equal columns
/// have equal planes.
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Logic, LogicColumn, LogicVec};
///
/// let values = vec![LogicVec::from_u64(5, 3), LogicVec::parse_binary("1XZ").unwrap()];
/// let column = LogicColumn::from_values(&values).unwrap();
/// assert_eq!((column.width(), column.len()), (3, 2));
/// // Bit 0 holds 1 (value 0) and Z (value 1).
/// assert_eq!(column.value_plane(0), &[0b11]);
/// assert_eq!(column.unknown_plane(0), &[0b10]);
/// assert_eq!(column.get(1).bit(1), Logic::X);
/// assert_eq!(column.to_values(), values);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicColumn {
    width: usize,
    count: usize,
    /// Bit `b`'s value plane, then its unknown plane, `words()` words
    /// each, for `b` in `0..width`.
    planes: Vec<u64>,
}

impl LogicColumn {
    /// `count` all-`X` values of `width` bits.
    #[must_use]
    pub fn unknown(width: usize, count: usize) -> Self {
        let words = count.div_ceil(64);
        let mut planes = vec![0; 2 * width * words];
        for bit in 0..width {
            for w in 0..words {
                planes[(2 * bit + 1) * words + w] = word_mask(count, w);
            }
        }
        LogicColumn {
            width,
            count,
            planes,
        }
    }

    /// Packs values that share one width. An empty slice gives an empty
    /// column of width 0.
    ///
    /// Returns `None` when the values' widths differ.
    #[must_use]
    pub fn from_values(values: &[LogicVec]) -> Option<Self> {
        let width = values.first().map_or(0, LogicVec::width);
        if values.iter().any(|v| v.width() != width) {
            return None;
        }
        let mut column = LogicColumn {
            width,
            count: values.len(),
            planes: vec![0; 2 * width * values.len().div_ceil(64)],
        };
        for (k, value) in values.iter().enumerate() {
            column.put(k, value);
        }
        Some(column)
    }

    /// A column over raw planes in the layout [`LogicColumn::planes`]
    /// returns.
    ///
    /// Returns `None` unless `planes` holds exactly `2 × width ×
    /// ⌈count/64⌉` words with no bit set past `count`.
    #[must_use]
    pub fn from_planes(width: usize, count: usize, planes: Vec<u64>) -> Option<Self> {
        let words = count.div_ceil(64);
        if planes.len() != 2 * width * words {
            return None;
        }
        if words > 0 {
            let tail = !word_mask(count, words - 1);
            if planes
                .chunks(words)
                .any(|plane| plane[words - 1] & tail != 0)
            {
                return None;
            }
        }
        Some(LogicColumn {
            width,
            count,
            planes,
        })
    }

    /// Bits per value.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Words per plane: `⌈len/64⌉`.
    #[must_use]
    pub fn words(&self) -> usize {
        self.count.div_ceil(64)
    }

    /// Every plane word: for each bit, its value plane then its unknown
    /// plane.
    #[must_use]
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// The value plane of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()`.
    #[must_use]
    pub fn value_plane(&self, bit: usize) -> &[u64] {
        let words = self.words();
        &self.planes[2 * bit * words..(2 * bit + 1) * words]
    }

    /// The unknown plane of bit `bit` (set for `X` and `Z`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()`.
    #[must_use]
    pub fn unknown_plane(&self, bit: usize) -> &[u64] {
        let words = self.words();
        &self.planes[(2 * bit + 1) * words..(2 * bit + 2) * words]
    }

    /// Overwrites word `word` of bit `bit`'s value and unknown planes,
    /// dropping any bit past the column's length.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()` or `word >= self.words()`.
    pub fn set_word(&mut self, bit: usize, word: usize, value: u64, unknown: u64) {
        let words = self.words();
        let mask = word_mask(self.count, word);
        self.planes[2 * bit * words + word] = value & mask;
        self.planes[(2 * bit + 1) * words + word] = unknown & mask;
    }

    /// Value `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> LogicVec {
        assert!(index < self.count, "value {index} of {}", self.count);
        let words = self.words();
        let (word, shift) = (index / 64, index % 64);
        self.planes
            .chunks_exact(2 * words)
            .map(|planes| decode(planes[word] >> shift, planes[words + word] >> shift))
            .collect()
    }

    /// Replaces value `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or `value` is not
    /// `self.width()` bits wide.
    pub fn set(&mut self, index: usize, value: &LogicVec) {
        assert!(index < self.count, "value {index} of {}", self.count);
        assert_eq!(value.width(), self.width, "value width");
        let (word, bit_mask) = (index / 64, 1u64 << (index % 64));
        let words = self.words();
        for bit in 0..self.width {
            self.planes[2 * bit * words + word] &= !bit_mask;
            self.planes[(2 * bit + 1) * words + word] &= !bit_mask;
        }
        self.put(index, value);
    }

    /// Every value, in order.
    #[must_use]
    pub fn to_values(&self) -> Vec<LogicVec> {
        let words = self.words();
        let mut values = Vec::with_capacity(self.count);
        // Word `word` of each bit's value and unknown plane, read from
        // the planes, so a column of no values allocates nothing
        // whatever its width.
        let mut codes = Vec::new();
        for word in 0..words {
            codes.clear();
            codes.extend(
                self.planes
                    .chunks_exact(2 * words)
                    .map(|planes| (planes[word], planes[words + word])),
            );
            for shift in 0..(self.count - 64 * word).min(64) {
                values.push(
                    codes
                        .iter()
                        .map(|&(v, u)| decode(v >> shift, u >> shift))
                        .collect(),
                );
            }
        }
        values
    }

    /// ORs value `index` into planes whose bits for it are clear.
    fn put(&mut self, index: usize, value: &LogicVec) {
        let (word, shift) = (index / 64, index % 64);
        let words = self.words();
        for (bit, logic) in value.iter().enumerate() {
            let (v, u) = match logic {
                Logic::Zero => (0, 0),
                Logic::One => (1, 0),
                Logic::X => (0, 1),
                Logic::Z => (1, 1),
            };
            self.planes[2 * bit * words + word] |= v << shift;
            self.planes[(2 * bit + 1) * words + word] |= u << shift;
        }
    }
}

/// The logic value whose `(value, unknown)` code is bit 0 of `v` and
/// `u`.
fn decode(v: u64, u: u64) -> Logic {
    [Logic::Zero, Logic::One, Logic::X, Logic::Z][((v & 1) | (u & 1) << 1) as usize]
}

/// The bits of plane word `word` that hold one of `count` values.
fn word_mask(count: usize, word: usize) -> u64 {
    match count.saturating_sub(word * 64) {
        0 => 0,
        n if n >= 64 => !0,
        n => (1 << n) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_truth_table() {
        use Logic::*;
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(One & One, One);
        assert_eq!(One & X, X);
        assert_eq!(Zero & X, Zero);
        assert_eq!(X & X, X);
        assert_eq!(Z & One, X);
        assert_eq!(Z & Zero, Zero);
    }

    #[test]
    fn or_truth_table() {
        use Logic::*;
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(One | Zero, One);
        assert_eq!(One | X, One);
        assert_eq!(Zero | X, X);
        assert_eq!(Z | Zero, X);
    }

    #[test]
    fn xor_truth_table() {
        use Logic::*;
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ One, Zero);
        assert_eq!(One ^ X, X);
        assert_eq!(Z ^ Zero, X);
    }

    #[test]
    fn not_truth_table() {
        use Logic::*;
        assert_eq!(!Zero, One);
        assert_eq!(!One, Zero);
        assert_eq!(!X, X);
        assert_eq!(!Z, X);
    }

    #[test]
    fn resolution() {
        use Logic::*;
        assert_eq!(Z.resolve(One), One);
        assert_eq!(Zero.resolve(Z), Zero);
        assert_eq!(One.resolve(Zero), X);
        assert_eq!(One.resolve(One), One);
        assert_eq!(Z.resolve(Z), Z);
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 2, 10, 255, 0xDEAD_BEEF] {
            let lv = LogicVec::from_u64(v, 32);
            assert_eq!(lv.to_u64(), Some(v & 0xFFFF_FFFF));
        }
    }

    #[test]
    fn i64_round_trip() {
        for v in [-128i64, -56, -1, 0, 1, 56, 127] {
            let lv = LogicVec::from_i64(v, 8);
            assert_eq!(lv.to_i64(), Some(v), "value {v}");
        }
    }

    #[test]
    fn i64_truncates_like_hardware() {
        let lv = LogicVec::from_i64(200, 8); // 200 wraps to -56 in 8 bits
        assert_eq!(lv.to_i64(), Some(-56));
    }

    #[test]
    fn x_bits_poison_conversion() {
        let mut lv = LogicVec::from_u64(5, 4);
        lv.set_bit(2, Logic::X);
        assert_eq!(lv.to_u64(), None);
        assert_eq!(lv.to_i64(), None);
        assert!(!lv.is_fully_driven());
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(LogicVec::from_u64(0b0110, 4).to_string(), "0110");
        assert_eq!(LogicVec::unknown(3).to_string(), "XXX");
    }

    #[test]
    fn parse_binary_round_trip() {
        let lv = LogicVec::parse_binary("10_1X").expect("parse");
        assert_eq!(lv.width(), 4);
        assert_eq!(lv.to_string(), "101X");
        assert!(LogicVec::parse_binary("10f").is_none());
    }

    #[test]
    fn resize_sign_extension() {
        let lv = LogicVec::from_i64(-3, 4);
        assert_eq!(lv.resized(8, true).to_i64(), Some(-3));
        assert_eq!(lv.resized(8, false).to_u64(), Some(0b1101));
        assert_eq!(lv.resized(2, true).width(), 2);
    }

    fn four_state_values(count: usize, width: usize) -> Vec<LogicVec> {
        use Logic::*;
        (0..count)
            .map(|k| {
                (0..width)
                    .map(|b| [Zero, One, X, Z][(k * 7 + b * 3 + k / 5) % 4])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn column_round_trips_across_word_edges() {
        for count in [0, 1, 63, 64, 65, 130] {
            let values = four_state_values(count, 5);
            let column = LogicColumn::from_values(&values).expect("one width");
            assert_eq!(column.len(), count);
            assert_eq!(column.words(), count.div_ceil(64));
            assert_eq!(column.to_values(), values, "count {count}");
            let rebuilt = LogicColumn::from_planes(column.width(), count, column.planes().to_vec());
            assert_eq!(rebuilt.as_ref(), Some(&column));
        }
    }

    #[test]
    fn column_planes_are_canonical() {
        let mut column = LogicColumn::unknown(2, 65);
        assert_eq!(column.unknown_plane(1), &[!0, 1]);
        assert_eq!(column.value_plane(1), &[0, 0]);
        // Writes past the length are dropped.
        column.set_word(0, 1, !0, !0);
        assert_eq!(
            (column.value_plane(0)[1], column.unknown_plane(0)[1]),
            (1, 1)
        );
        assert_eq!(column.get(64).to_string(), "XZ");
        // A set padding bit makes raw planes non-canonical.
        let mut planes = column.planes().to_vec();
        assert!(LogicColumn::from_planes(2, 65, planes.clone()).is_some());
        planes[1] |= 1 << 1;
        assert!(LogicColumn::from_planes(2, 65, planes).is_none());
        assert!(LogicColumn::from_planes(2, 65, vec![0; 7]).is_none());
    }

    #[test]
    fn column_set_replaces_a_value() {
        let mut column = LogicColumn::unknown(3, 70);
        column.set(66, &LogicVec::parse_binary("Z10").unwrap());
        column.set(66, &LogicVec::parse_binary("01X").unwrap());
        assert_eq!(column.get(66).to_string(), "01X");
        assert_eq!(column.get(65).to_string(), "XXX");
        assert!(LogicColumn::from_values(&[LogicVec::zeros(2), LogicVec::zeros(3)]).is_none());
        assert_eq!(LogicColumn::from_values(&[]), Some(LogicColumn::default()));
    }

    #[test]
    fn concat_and_slice() {
        let lo = LogicVec::from_u64(0b01, 2);
        let hi = LogicVec::from_u64(0b11, 2);
        let cat = lo.concat(&hi);
        assert_eq!(cat.to_u64(), Some(0b1101));
        assert_eq!(cat.slice(3, 2).to_u64(), Some(0b11));
        assert_eq!(cat.slice(1, 0).to_u64(), Some(0b01));
    }
}
