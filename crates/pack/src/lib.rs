//! # ipd-pack — archives, compression and applet bundles
//!
//! The paper delivers IP executables over the web and cares about
//! download size: JHDL's binaries are partitioned into small Jar
//! archives so an applet fetches only what it uses (their Table 1).
//! This crate is that packaging layer:
//!
//! - [`crc32`] — entry integrity checking.
//! - [`compress`] / [`decompress`] — an auditable LZSS dictionary
//!   coder standing in for Jar/DEFLATE.
//! - [`Archive`] — the named-entry container ("Jar file").
//! - [`Bundle`] / [`BundleSet`] — the partitioned code bundles; the
//!   contents are this workspace's real source modules, embedded at
//!   compile time, so the sizes track real code. The built-in bundles
//!   are one catalog per process: each bundle memoizes its serialized
//!   container ([`Bundle::wire_bytes`]), so it is compressed at most
//!   once per process, and every built-in set and subset shares the
//!   catalog's bundles behind `Arc`.
//!
//! # Example
//!
//! ```
//! use ipd_pack::BundleSet;
//!
//! let set = BundleSet::jhdl_applet_set();
//! // The Table 1 shape: base bundle largest, applet bundle smallest.
//! let sizes: Vec<usize> = set.bundles().iter().map(|b| b.packed_size()).collect();
//! assert!(sizes[0] > sizes[3]);
//! println!("{set}"); // renders the Table 1 layout
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod archive;
mod bundle;
mod crc;
mod error;
mod lzss;

pub use archive::{Archive, Entry};
pub use bundle::{Bundle, BundleSet};
pub use crc::crc32;
pub use error::PackError;
pub use lzss::{compress, decompress};
