//! The archive container — this reproduction's "Jar file".

use std::fmt;

use crate::crc::crc32;
use crate::error::PackError;
use crate::lzss::{compress, decompress};

const MAGIC: &[u8; 4] = b"IPDA";
const VERSION: u8 = 1;

/// One named entry of an [`Archive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    name: String,
    data: Vec<u8>,
}

impl Entry {
    /// Entry name (a path-like string).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Uncompressed contents.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

/// A compressed, checksummed container of named entries — the analog
/// of the Jar archives the paper partitions JHDL into (its Table 1).
///
/// # Examples
///
/// ```
/// use ipd_pack::Archive;
///
/// # fn main() -> Result<(), ipd_pack::PackError> {
/// let mut archive = Archive::new("applet");
/// archive.add("generator/kcm.class", b"...bytecode...".to_vec())?;
/// let bytes = archive.to_bytes();
/// let back = Archive::from_bytes(&bytes)?;
/// assert_eq!(back.entry("generator/kcm.class")?.data(), b"...bytecode...");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    name: String,
    entries: Vec<Entry>,
}

impl Archive {
    /// An empty archive with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Archive {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// The archive's name (e.g. `"JHDLBase"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an entry.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::DuplicateEntry`] if the name is taken.
    pub fn add(&mut self, name: impl Into<String>, data: Vec<u8>) -> Result<(), PackError> {
        let name = name.into();
        if self.entries.iter().any(|e| e.name == name) {
            return Err(PackError::DuplicateEntry { entry: name });
        }
        self.entries.push(Entry { name, data });
        Ok(())
    }

    /// Looks up an entry by name.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::MissingEntry`] when absent.
    pub fn entry(&self, name: &str) -> Result<&Entry, PackError> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| PackError::MissingEntry {
                entry: name.to_owned(),
            })
    }

    /// All entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the archive has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total uncompressed payload size.
    #[must_use]
    pub fn raw_size(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Serializes the archive, compressing every entry: magic,
    /// version, name and entry count, then per entry its name, raw
    /// length, packed length, CRC-32 and LZSS payload. The length of
    /// the result is the download size; a caller that measures or
    /// serves a bundle repeatedly reads [`crate::Bundle::wire_bytes`],
    /// which runs this once.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        write_str(&mut out, &self.name);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            write_str(&mut out, &entry.name);
            let packed = compress(&entry.data);
            out.extend_from_slice(&(entry.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&(packed.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&entry.data).to_le_bytes());
            out.extend_from_slice(&packed);
        }
        out
    }

    /// Deserializes an archive, decompressing and CRC-checking every
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::CorruptStream`] for malformed containers
    /// and [`PackError::ChecksumMismatch`] for entries whose contents
    /// do not match their stored CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PackError> {
        let mut reader = Reader { bytes, pos: 0 };
        let magic = reader.take(4)?;
        if magic != MAGIC {
            return Err(PackError::CorruptStream {
                reason: "bad magic".to_owned(),
            });
        }
        let version = reader.take(1)?[0];
        if version != VERSION {
            return Err(PackError::CorruptStream {
                reason: format!("unsupported version {version}"),
            });
        }
        let name = reader.read_str()?;
        let count = reader.read_u32()? as usize;
        // Every entry needs at least a name length, three u32 header
        // fields and its payload; a count no remaining input could
        // satisfy is hostile — reject it before reserving anything.
        let min_entry_bytes = 2 + 4 + 4 + 4;
        if count > (bytes.len() - reader.pos) / min_entry_bytes {
            return Err(PackError::CorruptStream {
                reason: format!("entry count {count} exceeds remaining input"),
            });
        }
        let mut archive = Archive::new(name);
        archive.entries.reserve_exact(count);
        for _ in 0..count {
            let entry_name = reader.read_str()?;
            let raw_len = reader.read_u32()? as usize;
            let packed_len = reader.read_u32()? as usize;
            let crc = reader.read_u32()?;
            let packed = reader.take(packed_len)?;
            let data = decompress(packed)?;
            if data.len() != raw_len {
                return Err(PackError::CorruptStream {
                    reason: format!(
                        "entry {entry_name}: length {} != header {raw_len}",
                        data.len()
                    ),
                });
            }
            if crc32(&data) != crc {
                return Err(PackError::ChecksumMismatch { entry: entry_name });
            }
            archive.add(entry_name, data)?;
        }
        Ok(archive)
    }
}

impl fmt::Display for Archive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} entries, {} bytes raw",
            self.name,
            self.len(),
            self.raw_size()
        )?;
        for e in &self.entries {
            writeln!(f, "  {:<40} {:>8} bytes", e.name, e.data.len())?;
        }
        Ok(())
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        if self.pos + n > self.bytes.len() {
            return Err(PackError::CorruptStream {
                reason: "truncated container".to_owned(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn read_u32(&mut self) -> Result<u32, PackError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn read_str(&mut self) -> Result<String, PackError> {
        let len = {
            let b = self.take(2)?;
            u16::from_le_bytes([b[0], b[1]]) as usize
        };
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PackError::CorruptStream {
            reason: "entry name is not UTF-8".to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_multi_entry() {
        let mut a = Archive::new("Virtex");
        a.add("lib/lut4.class", vec![1, 2, 3, 4]).unwrap();
        a.add("lib/fdce.class", b"flip flop model".to_vec())
            .unwrap();
        a.add("empty", Vec::new()).unwrap();
        let bytes = a.to_bytes();
        let back = Archive::from_bytes(&bytes).expect("parse");
        assert_eq!(back, a);
        assert_eq!(back.name(), "Virtex");
        assert_eq!(back.raw_size(), 4 + 15);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut a = Archive::new("x");
        a.add("one", vec![]).unwrap();
        assert!(matches!(
            a.add("one", vec![]),
            Err(PackError::DuplicateEntry { .. })
        ));
    }

    #[test]
    fn missing_entry_error() {
        let a = Archive::new("x");
        assert!(matches!(
            a.entry("nope"),
            Err(PackError::MissingEntry { .. })
        ));
    }

    #[test]
    fn corruption_detected_by_crc() {
        let mut a = Archive::new("x");
        // Long repetitive entry so bit flips land in compressed data.
        a.add("code", b"abcdefgh".repeat(64).to_vec()).unwrap();
        let mut bytes = a.to_bytes();
        // Flip a bit near the end (inside the compressed payload).
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x10;
        let err = Archive::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                PackError::ChecksumMismatch { .. } | PackError::CorruptStream { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Archive::from_bytes(b"NOPE....."),
            Err(PackError::CorruptStream { .. })
        ));
    }

    #[test]
    fn packed_smaller_than_raw_for_text() {
        let mut a = Archive::new("x");
        a.add("src", b"let x = 1; ".repeat(500).to_vec()).unwrap();
        assert!(a.to_bytes().len() < a.raw_size());
    }
}
