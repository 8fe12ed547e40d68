//! MPI runtime errors.

use std::fmt;

use sdm_pfs::PfsError;

/// Errors from the message-passing and I/O layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination or source rank out of range.
    InvalidRank {
        /// Offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// A peer disconnected (its thread panicked or returned early).
    Disconnected,
    /// Payload length didn't match the expected typed length.
    LengthMismatch {
        /// Expected byte length.
        expected: usize,
        /// Received byte length.
        got: usize,
    },
    /// Underlying file-system error.
    Pfs(PfsError),
    /// Datatype/view construction error.
    InvalidDatatype(String),
    /// A peer's message breaks the protocol it is part of.
    Protocol(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::Disconnected => write!(f, "peer disconnected"),
            MpiError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "message length mismatch: expected {expected} bytes, got {got}"
                )
            }
            MpiError::Pfs(e) => write!(f, "file system: {e}"),
            MpiError::InvalidDatatype(s) => write!(f, "invalid datatype: {s}"),
            MpiError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for MpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiError::Pfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PfsError> for MpiError {
    fn from(e: PfsError) -> Self {
        MpiError::Pfs(e)
    }
}

/// Convenience alias.
pub type MpiResult<T> = Result<T, MpiError>;
