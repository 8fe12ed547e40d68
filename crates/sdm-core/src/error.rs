//! SDM error type.

use std::fmt;

use sdm_metadb::DbError;
use sdm_mpi::MpiError;
use sdm_pfs::PfsError;

/// Errors surfaced by the SDM API.
#[derive(Debug)]
pub enum SdmError {
    /// Message-passing / MPI-IO failure.
    Mpi(MpiError),
    /// File-system failure.
    Pfs(PfsError),
    /// Metadata-database failure.
    Db(DbError),
    /// Unknown dataset name within a group.
    NoSuchDataset(String),
    /// [`crate::Sdm::attach`] named a run id with no `run_table` row.
    NoSuchRun(i64),
    /// A typed handle was requested for a dataset of a different type.
    TypeMismatch {
        /// Dataset name.
        dataset: String,
        /// The dataset's declared metadata type.
        declared: crate::types::SdmType,
        /// The element type the caller asked for.
        requested: crate::types::SdmType,
    },
    /// Dataset used before a view was installed.
    NoView(String),
    /// A read asked for a (dataset, timestep) never written.
    NotWritten {
        /// Dataset name.
        dataset: String,
        /// Requested timestep.
        timestep: i64,
    },
    /// History file exists but is unusable (and fallback was disabled).
    BadHistory(String),
    /// API misuse (wrong sizes, wrong order of calls).
    Usage(String),
    /// Rank 0's side of a collective metadata call failed; every other
    /// rank gets this, carrying rank 0's error message.
    Root(String),
}

impl fmt::Display for SdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdmError::Mpi(e) => write!(f, "mpi: {e}"),
            SdmError::Pfs(e) => write!(f, "pfs: {e}"),
            SdmError::Db(e) => write!(f, "metadb: {e}"),
            SdmError::NoSuchDataset(n) => write!(f, "no such dataset: {n}"),
            SdmError::NoSuchRun(id) => write!(f, "no run with id {id} in run_table"),
            SdmError::TypeMismatch {
                dataset,
                declared,
                requested,
            } => write!(
                f,
                "dataset {dataset} is declared {declared:?} but a {requested:?} handle was requested"
            ),
            SdmError::NoView(n) => write!(f, "no data view installed for dataset: {n}"),
            SdmError::NotWritten { dataset, timestep } => {
                write!(f, "dataset {dataset} has no data at timestep {timestep}")
            }
            SdmError::BadHistory(m) => write!(f, "bad history file: {m}"),
            SdmError::Usage(m) => write!(f, "API misuse: {m}"),
            SdmError::Root(m) => write!(f, "on rank 0: {m}"),
        }
    }
}

impl std::error::Error for SdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdmError::Mpi(e) => Some(e),
            SdmError::Pfs(e) => Some(e),
            SdmError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MpiError> for SdmError {
    fn from(e: MpiError) -> Self {
        SdmError::Mpi(e)
    }
}

impl From<PfsError> for SdmError {
    fn from(e: PfsError) -> Self {
        SdmError::Pfs(e)
    }
}

impl From<DbError> for SdmError {
    fn from(e: DbError) -> Self {
        SdmError::Db(e)
    }
}

/// Convenience alias.
pub type SdmResult<T> = Result<T, SdmError>;
