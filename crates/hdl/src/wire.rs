//! Wires, bit slices and signals (slice concatenations).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{CellId, WireId};

/// A named bundle of bits owned by one hierarchy scope.
///
/// Wires are created inside a cell (via [`CellCtx::wire`]) and may be
/// bound — whole or sliced — to the ports of child instances in that
/// same scope, mirroring JHDL's `new Wire(this, width)` idiom.
///
/// [`CellCtx::wire`]: crate::CellCtx::wire
#[derive(Debug, Clone)]
pub struct Wire {
    pub(crate) name: String,
    pub(crate) width: u32,
    pub(crate) scope: CellId,
}

impl Wire {
    /// The wire's name, unique within its scope.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The cell that owns this wire.
    #[must_use]
    pub fn scope(&self) -> CellId {
        self.scope
    }
}

/// An inclusive bit-range of a wire: bits `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slice {
    /// The sliced wire.
    pub wire: WireId,
    /// Most significant bit (inclusive).
    pub hi: u32,
    /// Least significant bit (inclusive).
    pub lo: u32,
}

impl Slice {
    /// Width of this slice in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.hi - self.lo + 1
    }
}

/// A signal: the concatenation of one or more wire slices.
///
/// Signals are what gets bound to instance ports. The first segment
/// holds the least significant bits. A bare [`WireId`] converts into a
/// full-width signal, so simple connections stay simple:
///
/// ```
/// use ipd_hdl::{Circuit, Signal};
///
/// let mut circuit = Circuit::new("top");
/// let mut root = circuit.root_ctx();
/// let bus = root.wire("bus", 8);
/// let sig: Signal = bus.into();        // whole wire
/// let nibble = Signal::slice_of(bus, 3, 0); // low nibble
/// assert_eq!(nibble.segments().len(), 1);
/// let _ = sig;
/// ```
///
/// A single slice, the common case, is held inline; only a
/// concatenation allocates. Equality and hashing go by the segment
/// list, whichever way it is held.
#[derive(Clone)]
pub struct Signal {
    repr: Segments,
}

#[derive(Clone)]
enum Segments {
    One(Slice),
    Many(Vec<Slice>),
}

impl Signal {
    /// A signal covering the given slice.
    #[must_use]
    pub fn slice_of(wire: WireId, hi: u32, lo: u32) -> Self {
        Signal::from(Slice { wire, hi, lo })
    }

    /// A single-bit signal selecting `bit` of `wire`.
    #[must_use]
    pub fn bit_of(wire: WireId, bit: u32) -> Self {
        Signal::slice_of(wire, bit, bit)
    }

    /// A signal of the given segments, LSB first.
    pub(crate) fn from_segments(segments: Vec<Slice>) -> Self {
        match segments.as_slice() {
            [one] => Signal::from(*one),
            _ => Signal {
                repr: Segments::Many(segments),
            },
        }
    }

    /// Concatenates signals; the first element supplies the low bits.
    #[must_use]
    pub fn concat<I: IntoIterator<Item = Signal>>(parts: I) -> Self {
        let mut parts = parts.into_iter();
        let Some(first) = parts.next() else {
            return Signal {
                repr: Segments::Many(Vec::new()),
            };
        };
        parts.fold(first, Signal::then)
    }

    /// Appends `high` above `self` and returns the combined signal.
    #[must_use]
    pub fn then(mut self, high: Signal) -> Self {
        match &mut self.repr {
            Segments::Many(segments) => segments.extend_from_slice(high.segments()),
            Segments::One(low) => {
                let mut segments = Vec::with_capacity(1 + high.segments().len());
                segments.push(*low);
                segments.extend_from_slice(high.segments());
                self.repr = Segments::Many(segments);
            }
        }
        self
    }

    /// Total width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.segments().iter().map(Slice::width).sum()
    }

    /// The underlying slice segments, LSB-first.
    #[must_use]
    pub fn segments(&self) -> &[Slice] {
        match &self.repr {
            Segments::One(slice) => std::slice::from_ref(slice),
            Segments::Many(segments) => segments,
        }
    }

    /// Iterates over the individual bits LSB-first as `(wire, bit)` pairs.
    pub fn bits(&self) -> impl Iterator<Item = (WireId, u32)> + '_ {
        self.segments()
            .iter()
            .flat_map(|s| (s.lo..=s.hi).map(move |b| (s.wire, b)))
    }
}

impl PartialEq for Signal {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for Signal {}

impl Hash for Signal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segments().hash(state);
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("segments", &self.segments())
            .finish()
    }
}

impl From<WireId> for Signal {
    /// A full-width signal requires knowing the wire's width, which the
    /// [`Circuit`](crate::Circuit) resolves lazily: the sentinel
    /// `hi = u32::MAX` means "whole wire" and is expanded at bind time.
    fn from(wire: WireId) -> Self {
        Signal::slice_of(wire, u32::MAX, 0)
    }
}

impl From<Slice> for Signal {
    fn from(slice: Slice) -> Self {
        Signal {
            repr: Segments::One(slice),
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in self.segments().iter().rev() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if seg.hi == u32::MAX {
                write!(f, "w{}", seg.wire.index())?;
            } else if seg.hi == seg.lo {
                write!(f, "w{}[{}]", seg.wire.index(), seg.lo)?;
            } else {
                write!(f, "w{}[{}:{}]", seg.wire.index(), seg.hi, seg.lo)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WireId {
        WireId::from_index(i as usize)
    }

    #[test]
    fn slice_width() {
        let s = Slice {
            wire: w(0),
            hi: 7,
            lo: 4,
        };
        assert_eq!(s.width(), 4);
    }

    #[test]
    fn concat_keeps_lsb_first() {
        let lo = Signal::slice_of(w(0), 3, 0);
        let hi = Signal::slice_of(w(1), 1, 0);
        let cat = Signal::concat([lo.clone(), hi]);
        assert_eq!(cat.width(), 6);
        assert_eq!(cat.segments()[0], lo.segments()[0]);
    }

    #[test]
    fn bits_enumerates_lsb_first() {
        let sig = Signal::slice_of(w(2), 2, 1);
        let bits: Vec<_> = sig.bits().collect();
        assert_eq!(bits, vec![(w(2), 1), (w(2), 2)]);
    }

    #[test]
    fn equality_and_hash_go_by_segments() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |sig: &Signal| {
            let mut h = DefaultHasher::new();
            sig.hash(&mut h);
            h.finish()
        };
        let inline = Signal::slice_of(w(3), 5, 2);
        // One part concatenated onto nothing is held in a vector.
        let held = Signal::concat(Vec::<Signal>::new()).then(inline.clone());
        assert_eq!(held, inline);
        assert_eq!(hash(&held), hash(&inline));
        assert_eq!(format!("{held:?}"), format!("{inline:?}"));
        assert_ne!(inline, Signal::slice_of(w(3), 5, 1));
    }

    #[test]
    fn then_appends_high_bits() {
        let sig = Signal::bit_of(w(0), 0).then(Signal::bit_of(w(1), 0));
        assert_eq!(sig.width(), 2);
        assert_eq!(sig.segments()[1].wire, w(1));
    }
}
