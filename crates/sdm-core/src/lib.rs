//! SDM — the Scientific Data Manager for irregular applications.
//!
//! This is the paper's contribution: a high-level API that hides MPI-IO
//! and the metadata database behind dataset-level operations. The
//! structure mirrors the paper's Figures 2-4:
//!
//! * [`sdm::Sdm`] — per-rank handle. `initialize` connects "the
//!   database" and creates the six metadata tables; `finalize` closes
//!   everything out. Data groups are registered through the typed
//!   [`session`] API ([`sdm::Sdm::group`] → [`session::GroupBuilder`]),
//!   views install through resolved handles, and per-timestep writes go
//!   through [`session::TimestepScope`] ([`sdm::Sdm::timestep`]) as one
//!   collective burst with one metadata sync; `read_handle` reads a
//!   step back. Each `SDM_*` call has exactly one implementation.
//! * [`import`] — the import path for data created *outside* SDM
//!   (the `uns3d.msh` mesh file): `make_importlist`, contiguous domain
//!   imports, and irregularly distributed imports through map arrays.
//! * [`partition_api`] — `partition_table` / `partition_index`: the
//!   replicated partitioning vector, the ring-pipelined edge
//!   distribution with ghost edges/nodes, the dynamically doubled
//!   receive buffers (single-pass import), and the local numbering a
//!   [`PartitionedIndex`] carries (global node ids translated once).
//! * [`history`] — `index_registry` and history-file replay: partitioned
//!   index sets written asynchronously in a compact block format,
//!   indexed in the database, and reused by later runs with the same
//!   problem size and process count; rank 0 alone asks the database.
//! * [`org`] — the three file organizations (Level 1 / 2 / 3) and the
//!   `execution_table` offset bookkeeping.
//! * [`schema`] — the six Figure-4 tables as typed relations
//!   (`RunRow`, `ExecutionRow`, …): static descriptors that DDL,
//!   indexes, and every query are generated from.
//! * [`store`] — the [`store::MetadataStore`] trait over those
//!   relations: [`store::SqlStore`] (typed statements compiled once —
//!   the warmed hot path formats zero SQL text) and
//!   [`store::CachedStore`] (per-timestep transaction batching), built
//!   as one stack by [`store::in_memory`], [`store::open_durable`] and
//!   [`store::logged_in_memory`]. Rank 0 alone calls the store, through
//!   one collective helper that charges each round trip once and
//!   broadcasts the answer.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dataset;
pub mod error;
pub mod history;
pub mod import;
pub mod memory;
pub mod org;
pub mod partition_api;
pub mod schema;
pub mod sdm;
pub mod session;
pub mod store;
pub mod types;
pub mod view;

pub use dataset::ImportDesc;
pub use error::{SdmError, SdmResult};
pub use org::OrgLevel;
pub use partition_api::PartitionedIndex;
pub use sdm::{GroupHandle, Sdm, SdmConfig};
pub use session::{DatasetHandle, DatasetSlot, GroupBuilder, GroupRegistration, TimestepScope};
pub use store::{
    CachedStore, HistoryBlock, MetadataStore, RunRecord, SharedStore, SqlStore, StoreStats,
};
pub use types::{SdmElem, SdmType};
