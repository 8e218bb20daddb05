//! Wire-layer errors and the typed error-frame codes.

use std::fmt;
use std::io;

/// Machine-readable error categories carried by
/// [`Envelope::Error`](crate::Envelope::Error) frames. A peer can act
/// on the code (retry on [`ErrorCode::Busy`], re-authenticate on
/// [`ErrorCode::Unauthorized`]) without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Malformed envelope or payload bytes.
    Protocol,
    /// Missing or rejected authentication token.
    Unauthorized,
    /// The request named an endpoint the service does not serve.
    UnknownEndpoint,
    /// The server is at its session cap; try again later.
    Busy,
    /// A frame exceeded the negotiated size cap.
    TooLarge,
    /// The server is shutting down.
    Shutdown,
    /// The application handler failed; the message carries its error.
    App,
    /// The request was load-shed: the server is above its shed
    /// threshold and the request (or session open) declared low
    /// priority. Unlike [`ErrorCode::Busy`], the connection survives —
    /// retry later or re-open at normal priority.
    Shed,
}

impl ErrorCode {
    /// Short stable name (used in reports and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::UnknownEndpoint => "unknown-endpoint",
            ErrorCode::Busy => "busy",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::App => "app",
            ErrorCode::Shed => "shed",
        }
    }

    pub(crate) fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Unauthorized => 2,
            ErrorCode::UnknownEndpoint => 3,
            ErrorCode::Busy => 4,
            ErrorCode::TooLarge => 5,
            ErrorCode::Shutdown => 6,
            ErrorCode::App => 7,
            ErrorCode::Shed => 8,
        }
    }

    pub(crate) fn from_u16(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Unauthorized,
            3 => ErrorCode::UnknownEndpoint,
            4 => ErrorCode::Busy,
            5 => ErrorCode::TooLarge,
            6 => ErrorCode::Shutdown,
            7 => ErrorCode::App,
            8 => ErrorCode::Shed,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors raised by the framed transport.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// Socket or pipe failure.
    Io(io::Error),
    /// Malformed bytes: a bad length prefix, an unknown envelope kind,
    /// trailing garbage, or a payload that fails to decode.
    Protocol {
        /// What was wrong.
        reason: String,
    },
    /// The peer reported a typed error frame.
    Remote {
        /// The machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A read or write missed its deadline.
    Deadline {
        /// What the deadline covered (e.g. `"frame body"`).
        during: &'static str,
    },
}

impl WireError {
    /// A protocol error with a formatted reason.
    #[must_use]
    pub fn protocol(reason: impl Into<String>) -> Self {
        WireError::Protocol {
            reason: reason.into(),
        }
    }

    /// A typed application error (travels as an error frame).
    #[must_use]
    pub fn app(message: impl Into<String>) -> Self {
        WireError::Remote {
            code: ErrorCode::App,
            message: message.into(),
        }
    }

    /// The error-frame code and message this error maps to when a
    /// server handler returns it: [`WireError::Remote`] passes through
    /// verbatim, protocol errors keep their category, everything else
    /// is reported as [`ErrorCode::App`].
    #[must_use]
    pub fn as_frame(&self) -> (ErrorCode, String) {
        match self {
            WireError::Remote { code, message } => (*code, message.clone()),
            WireError::Protocol { reason } => (ErrorCode::Protocol, reason.clone()),
            other => (ErrorCode::App, other.to_string()),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Protocol { reason } => write!(f, "wire protocol error: {reason}"),
            WireError::Remote { code, message } => write!(f, "remote error [{code}]: {message}"),
            WireError::Deadline { during } => write!(f, "deadline exceeded during {during}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in [
            ErrorCode::Protocol,
            ErrorCode::Unauthorized,
            ErrorCode::UnknownEndpoint,
            ErrorCode::Busy,
            ErrorCode::TooLarge,
            ErrorCode::Shutdown,
            ErrorCode::App,
            ErrorCode::Shed,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn frame_mapping_preserves_codes() {
        let e = WireError::Remote {
            code: ErrorCode::Busy,
            message: "full".into(),
        };
        assert_eq!(e.as_frame(), (ErrorCode::Busy, "full".to_owned()));
        let (code, _) = WireError::protocol("bad").as_frame();
        assert_eq!(code, ErrorCode::Protocol);
        let (code, _) = WireError::Deadline { during: "x" }.as_frame();
        assert_eq!(code, ErrorCode::App);
    }
}
