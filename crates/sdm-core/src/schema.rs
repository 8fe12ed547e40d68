//! The six Figure-4 tables as typed [`Relation`]s.
//!
//! Every table of SDM's metadata control plane is described exactly
//! once, as a static descriptor: name, columns, and the secondary
//! indexes its hot lookups need. DDL is *generated* from the
//! descriptors ([`FIGURE4_TABLES`] drives
//! [`crate::store::MetadataStore::ensure_schema`]), inserts encode
//! through [`Relation::into_row`], and queries are built fluently over
//! the column enums — no SQL text anywhere above `sdm-metadb`:
//!
//! ```
//! use sdm_core::schema::{ExecutionCol, ExecutionRow};
//! use sdm_metadb::stmt::{param, Query, TypedColumn};
//!
//! // "Where did every timestep of this run's dataset land?"
//! let stmt = Query::<ExecutionRow>::filter(
//!     ExecutionCol::Runid.eq(param(0)).and(ExecutionCol::Dataset.eq(param(1))),
//! )
//! .select(&[ExecutionCol::Timestep, ExecutionCol::FileOffset])
//! .order_by(ExecutionCol::Timestep)
//! .compile();
//! assert_eq!(stmt.table(), "execution_table");
//! ```

use sdm_metadb::relation;
use sdm_metadb::stmt::{Relation, TableDesc};

relation! {
    /// One `run_table` row: the registration record of a simulation run
    /// (`SDM_initialize` reserves it, [`crate::store::RunRecord`]
    /// completes it).
    pub struct RunRow in "run_table" as RunCol {
        /// Run id (allocated by `MetadataStore::allocate_runid`).
        pub runid: i64 => Runid,
        /// Application name.
        pub application: String => Application,
        /// Spatial dimension.
        pub dimension: i64 => Dimension,
        /// Problem size (nodes/elements; application-defined).
        pub problem_size: i64 => ProblemSize,
        /// Declared timestep count (0 when open-ended).
        pub num_timesteps: i64 => NumTimesteps,
        /// Run date: year.
        pub year: i64 => Year,
        /// Run date: month.
        pub month: i64 => Month,
        /// Run date: day.
        pub day: i64 => Day,
        /// Run time: hour.
        pub hour: i64 => Hour,
        /// Run time: minute.
        pub min: i64 => Min,
    }
    // `run_exists` probes `(runid)`. "Latest run of this application"
    // and `execution_history` read the application's rows off the
    // `(application, runid)` prefix. `allocate_runid`'s `MAX(runid)`
    // scans the table, once per initialize.
    indexes {
        "run_table_runid" on (runid),
        "run_table_app_runid" on (application, runid),
    }
}

relation! {
    /// One `access_pattern_table` row: a dataset's declared attributes
    /// (the `SDM_set_attributes` step).
    pub struct AccessPatternRow in "access_pattern_table" as AccessPatternCol {
        /// Owning run.
        pub runid: i64 => Runid,
        /// Dataset name.
        pub dataset: String => Dataset,
        /// Basic access pattern class.
        pub basic_pattern: String => BasicPattern,
        /// Element type name.
        pub data_type: String => DataType,
        /// Storage order.
        pub storage_order: String => StorageOrder,
        /// Full access pattern.
        pub access_pattern: String => AccessPattern,
        /// Global element count.
        pub global_size: i64 => GlobalSize,
    }
}

relation! {
    /// One `execution_table` row: where a (dataset, timestep) landed —
    /// "the file offset for each data set is stored in the execution
    /// table by process 0".
    pub struct ExecutionRow in "execution_table" as ExecutionCol {
        /// Owning run.
        pub runid: i64 => Runid,
        /// Dataset name.
        pub dataset: String => Dataset,
        /// Timestep index.
        pub timestep: i64 => Timestep,
        /// Byte offset within the file.
        pub file_offset: i64 => FileOffset,
        /// File the burst landed in.
        pub file_name: String => FileName,
    }
    // The hot `(runid, dataset, timestep)` point lookup pins both
    // composite key columns, so it resolves to one exact bucket, and
    // `execution_history` reads each run's rows off its `runid` prefix.
    indexes { "execution_runid_timestep" on (runid, timestep) }
}

relation! {
    /// One `import_table` row: an imported array's metadata
    /// (`SDM_make_importlist`).
    pub struct ImportRow in "import_table" as ImportCol {
        /// Owning run.
        pub runid: i64 => Runid,
        /// Name the array is imported as.
        pub imported_name: String => ImportedName,
        /// Source file.
        pub file_name: String => FileName,
        /// Element type name.
        pub data_type: String => DataType,
        /// Storage order.
        pub storage_order: String => StorageOrder,
        /// Partitioning of the imported data.
        pub partition: String => Partition,
        /// What the file holds (e.g. `INDEX`).
        pub file_content: String => FileContent,
    }
}

relation! {
    /// One `index_table` row: a registered history file
    /// (`SDM_index_registry`), keyed by (problem size, process count).
    pub struct IndexRow in "index_table" as IndexCol {
        /// Problem size the history was partitioned for.
        pub problem_size: i64 => ProblemSize,
        /// Process count the history was partitioned for.
        pub num_procs: i64 => NumProcs,
        /// Spatial dimension.
        pub dimension: i64 => Dimension,
        /// The history file.
        pub registered_file_name: String => RegisteredFileName,
    }
    // Registry lookups and deletes key on (problem_size, num_procs): the
    // composite index answers the exact pair with one probe.
    indexes { "index_table_psize_procs" on (problem_size, num_procs) }
}

relation! {
    /// One `index_history_table` row: one rank's block of a history
    /// file ([`crate::store::HistoryBlock`]).
    pub struct IndexHistoryRow in "index_history_table" as IndexHistoryCol {
        /// Problem size key.
        pub problem_size: i64 => ProblemSize,
        /// Process-count key.
        pub num_procs: i64 => NumProcs,
        /// Rank the block belongs to.
        pub rank: i64 => Rank,
        /// Partitioned edge count.
        pub edge_count: i64 => EdgeCount,
        /// Owned node count.
        pub node_count: i64 => NodeCount,
        /// Ghost node count.
        pub ghost_count: i64 => GhostCount,
        /// Byte offset of the block in the history file.
        pub file_offset: i64 => FileOffset,
        /// Byte length of the block.
        pub byte_len: i64 => ByteLen,
    }
    indexes { "index_history_psize_procs" on (problem_size, num_procs) }
}

/// The six tables of the paper's Figure 4, in creation order. Schema
/// setup iterates this; a future sharded store routes by these
/// descriptors.
pub const FIGURE4_TABLES: [&TableDesc; 6] = [
    &RunRow::TABLE,
    &AccessPatternRow::TABLE,
    &ExecutionRow::TABLE,
    &ImportRow::TABLE,
    &IndexRow::TABLE,
    &IndexHistoryRow::TABLE,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_match_figure4_shapes() {
        assert_eq!(RunRow::TABLE.arity(), 10);
        assert_eq!(AccessPatternRow::TABLE.arity(), 7);
        assert_eq!(ExecutionRow::TABLE.arity(), 5);
        assert_eq!(ImportRow::TABLE.arity(), 7);
        assert_eq!(IndexRow::TABLE.arity(), 4);
        assert_eq!(IndexHistoryRow::TABLE.arity(), 8);
        let names: Vec<&str> = FIGURE4_TABLES.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "run_table",
                "access_pattern_table",
                "execution_table",
                "import_table",
                "index_table",
                "index_history_table"
            ]
        );
    }

    #[test]
    fn rows_round_trip() {
        let row = ExecutionRow {
            runid: 3,
            dataset: "p".into(),
            timestep: 9,
            file_offset: 4096,
            file_name: "f.dat".into(),
        };
        let cells = row.clone().into_row();
        assert_eq!(ExecutionRow::from_row(&cells).unwrap(), row);
    }

    #[test]
    fn hot_lookup_columns_are_indexed() {
        // Leading index columns serve equality and prefix probes.
        assert!(ExecutionRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns[0] == "runid"));
        assert!(RunRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns[0] == "application"));
        assert!(IndexRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns[0] == "problem_size"));
    }

    #[test]
    fn hot_probe_shapes_have_ordered_composites() {
        // (runid, timestep) lookups ride one composite on
        // execution_table.
        assert!(ExecutionRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns == ["runid", "timestep"]));
        // Run-id and latest-run-of-application lookups probe run_table.
        assert!(RunRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns == ["runid"]));
        assert!(RunRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns == ["application", "runid"]));
        assert!(IndexHistoryRow::TABLE
            .indexes
            .iter()
            .any(|ix| ix.columns == ["problem_size", "num_procs"]));
    }
}
