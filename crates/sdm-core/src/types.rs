//! Basic SDM attribute types (the annotation vocabulary of Figure 4).

/// Element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdmType {
    /// C `double` (8 bytes) — the paper's DOUBLE.
    Double,
    /// C `int` (4 bytes) — the paper's INTEGER, used for index arrays.
    Int32,
    /// 8-byte integer.
    Int64,
}

impl SdmType {
    /// Element size in bytes.
    pub fn size(&self) -> u64 {
        match self {
            SdmType::Double | SdmType::Int64 => 8,
            SdmType::Int32 => 4,
        }
    }

    /// Name stored in the metadata tables.
    pub fn sql_name(&self) -> &'static str {
        match self {
            SdmType::Double => "DOUBLE",
            SdmType::Int32 => "INTEGER",
            SdmType::Int64 => "INTEGER8",
        }
    }
}

/// Storage order recorded in the metadata tables: row-major, as
/// everywhere in the paper.
pub(crate) const ROW_MAJOR: &str = "ROW_MAJOR";

/// Access pattern recorded in `access_pattern_table`: irregular
/// (map-array driven), this paper's subject.
pub(crate) const IRREGULAR: &str = "IRREGULAR";

/// A Rust element type with a fixed SDM attribute type.
///
/// This is the compile-time side of the typed session API: a
/// [`crate::DatasetHandle`]`<T>` can only be obtained for a dataset
/// whose declared [`SdmType`] matches `T::SDM_TYPE`, so `write`/`read`
/// through handles need no per-call element-size check — the agreement
/// between buffer type and dataset type is established once, at handle
/// resolution.
pub trait SdmElem: sdm_mpi::pod::Pod + Default {
    /// The metadata-table type this Rust type maps onto.
    const SDM_TYPE: SdmType;
}

impl SdmElem for f64 {
    const SDM_TYPE: SdmType = SdmType::Double;
}

impl SdmElem for i32 {
    const SDM_TYPE: SdmType = SdmType::Int32;
}

impl SdmElem for i64 {
    const SDM_TYPE: SdmType = SdmType::Int64;
}

/// What an imported file region contains (Figure 4's `file_content`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileContent {
    /// Index (indirection) arrays like `edge1`/`edge2`.
    Index,
    /// Physical data arrays like `x`/`y`.
    Data,
}

impl FileContent {
    /// Name stored in the metadata tables.
    pub fn sql_name(&self) -> &'static str {
        match self {
            FileContent::Index => "INDEX",
            FileContent::Data => "DATA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(SdmType::Double.size(), 8);
        assert_eq!(SdmType::Int32.size(), 4);
        assert_eq!(SdmType::Int64.size(), 8);
    }

    #[test]
    fn sql_names_match_figure4() {
        assert_eq!(SdmType::Double.sql_name(), "DOUBLE");
        assert_eq!(SdmType::Int32.sql_name(), "INTEGER");
        assert_eq!(FileContent::Index.sql_name(), "INDEX");
        assert_eq!(FileContent::Data.sql_name(), "DATA");
    }
}
