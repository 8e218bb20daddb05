//! Technology-library errors.

use std::fmt;

/// Errors raised while interpreting primitives against the Virtex-like
/// technology library.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TechError {
    /// The primitive's library is not supported by this technology.
    UnknownLibrary {
        /// The offending library name.
        library: String,
    },
    /// The primitive name is not in the library.
    UnknownPrimitive {
        /// The offending primitive name.
        name: String,
    },
    /// A primitive that requires an `INIT` value lacks one.
    MissingInit {
        /// The primitive name.
        name: String,
    },
    /// An `INIT` value is out of range for the primitive.
    InvalidInit {
        /// The primitive name.
        name: String,
        /// The supplied value.
        init: u64,
    },
    /// An instance lacks a port of its primitive's library interface,
    /// or carries it at another width.
    PortMismatch {
        /// The primitive name.
        name: String,
        /// The library port.
        port: String,
        /// The port's library width in bits.
        width: u32,
    },
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::UnknownLibrary { library } => {
                write!(f, "unsupported technology library {library}")
            }
            TechError::UnknownPrimitive { name } => {
                write!(f, "unknown primitive {name}")
            }
            TechError::MissingInit { name } => {
                write!(f, "primitive {name} requires an INIT value")
            }
            TechError::InvalidInit { name, init } => {
                write!(f, "INIT value {init:#x} out of range for primitive {name}")
            }
            TechError::PortMismatch { name, port, width } => {
                write!(f, "primitive {name} needs port {port} of width {width}")
            }
        }
    }
}

impl std::error::Error for TechError {}
