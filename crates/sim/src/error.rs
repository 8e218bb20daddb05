//! Simulation errors.

use std::fmt;

/// Errors raised while compiling or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The circuit failed to flatten or contained stale references.
    Hdl(ipd_hdl::HdlError),
    /// A primitive could not be interpreted by the technology library.
    Tech(ipd_techlib::TechError),
    /// A net has more than one driver.
    MultipleDrivers {
        /// Hierarchical net name.
        net: String,
    },
    /// Combinational cycle found during levelization.
    CombinationalLoop {
        /// A net on the cycle.
        net: String,
    },
    /// Relaxation mode failed to reach a fixpoint (oscillation).
    Oscillation {
        /// A net still changing at the iteration limit.
        net: String,
    },
    /// A sequential primitive's clock is not the designated clock net.
    UnsupportedClock {
        /// The instance path of the offending primitive.
        instance: String,
    },
    /// A named port does not exist at the top level.
    UnknownPort {
        /// The requested port name.
        port: String,
    },
    /// A named net does not exist in the flattened design.
    UnknownNet {
        /// The requested net name.
        net: String,
    },
    /// A value's width differs from the port's width.
    WidthMismatch {
        /// The port being driven or read.
        port: String,
        /// The port's width.
        expected: u32,
        /// The supplied value's width.
        found: u32,
    },
    /// Attempted to drive a non-input port.
    NotAnInput {
        /// The port name.
        port: String,
    },
    /// The design contains `inout` ports, which the simulator does not
    /// model.
    InoutUnsupported {
        /// The port name.
        port: String,
    },
    /// `run_until` exhausted its cycle budget without the condition
    /// becoming true.
    Timeout {
        /// The port being watched.
        port: String,
        /// Cycles simulated before giving up.
        cycles: u64,
    },
    /// A compiled simulator was asked for an unconfigured lane.
    LaneOutOfRange {
        /// The requested lane.
        lane: usize,
        /// Lanes configured on the compiled simulator.
        lanes: usize,
    },
    /// A compiled simulator was configured with an unsupported lane
    /// count (at least 1, at most its 256-lane plane width).
    InvalidLanes {
        /// The requested lane count.
        lanes: usize,
    },
    /// A sweep's input column holds a different number of values than
    /// the sweep runs.
    ColumnLength {
        /// The port the column drives.
        port: String,
        /// Vectors in the sweep.
        expected: usize,
        /// Values in the column.
        found: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hdl(e) => write!(f, "circuit error: {e}"),
            SimError::Tech(e) => write!(f, "technology error: {e}"),
            SimError::MultipleDrivers { net } => {
                write!(f, "net {net} has multiple drivers")
            }
            SimError::CombinationalLoop { net } => {
                write!(f, "combinational loop through net {net}")
            }
            SimError::Oscillation { net } => {
                write!(f, "simulation did not settle; net {net} oscillates")
            }
            SimError::UnsupportedClock { instance } => write!(
                f,
                "sequential primitive {instance} is not driven by the designated clock"
            ),
            SimError::UnknownPort { port } => write!(f, "no top-level port named {port}"),
            SimError::UnknownNet { net } => write!(f, "no net named {net}"),
            SimError::WidthMismatch {
                port,
                expected,
                found,
            } => write!(
                f,
                "width mismatch on {port}: expected {expected} bits, found {found}"
            ),
            SimError::NotAnInput { port } => {
                write!(f, "port {port} is not a primary input")
            }
            SimError::InoutUnsupported { port } => {
                write!(f, "inout port {port} is not supported by the simulator")
            }
            SimError::Timeout { port, cycles } => {
                write!(f, "condition on {port} not met within {cycles} cycles")
            }
            SimError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range: batch has {lanes} lanes")
            }
            SimError::InvalidLanes { lanes } => {
                write!(
                    f,
                    "invalid lane count {lanes}: must be between 1 and the engine's plane width"
                )
            }
            SimError::ColumnLength {
                port,
                expected,
                found,
            } => write!(
                f,
                "column for {port} holds {found} values, the sweep runs {expected}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Hdl(e) => Some(e),
            SimError::Tech(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ipd_hdl::HdlError> for SimError {
    fn from(e: ipd_hdl::HdlError) -> Self {
        SimError::Hdl(e)
    }
}

impl From<ipd_techlib::TechError> for SimError {
    fn from(e: ipd_techlib::TechError) -> Self {
        SimError::Tech(e)
    }
}
