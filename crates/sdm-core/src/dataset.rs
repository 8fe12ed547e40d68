//! Dataset and import descriptors (what `SDM_make_datalist` /
//! `SDM_make_importlist` describe).

use crate::types::{FileContent, SdmType};

/// Description of one dataset produced through SDM (Figure 2's `result`
/// entries: `p` and `q`), as [`crate::GroupBuilder::dataset`] declares
/// it.
#[derive(Debug, Clone)]
pub(crate) struct DatasetDesc {
    /// Dataset name.
    pub name: String,
    /// Element type.
    pub data_type: SdmType,
    /// Global element count (e.g. total number of nodes).
    pub global_size: u64,
}

/// Description of one array imported from outside SDM (Figure 3's
/// `import` entries: `edge1`, `edge2`, `x`, `y`).
#[derive(Debug, Clone)]
pub struct ImportDesc {
    /// Imported array name.
    pub name: String,
    /// Source file in the PFS namespace (e.g. `"uns3d.msh"`).
    pub file_name: String,
    /// Element type.
    pub data_type: SdmType,
    /// Whether the region holds index arrays or physical data.
    pub file_content: FileContent,
}

impl ImportDesc {
    /// An index (indirection) array of C ints.
    pub fn index(name: impl Into<String>, file: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            file_name: file.into(),
            data_type: SdmType::Int32,
            file_content: FileContent::Index,
        }
    }

    /// A physical data array of doubles.
    pub fn data(name: impl Into<String>, file: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            file_name: file.into(),
            data_type: SdmType::Double,
            file_content: FileContent::Data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_descriptors() {
        let e1 = ImportDesc::index("edge1", "uns3d.msh");
        assert_eq!(e1.data_type, SdmType::Int32);
        assert_eq!(e1.file_content, FileContent::Index);
        let x = ImportDesc::data("x", "uns3d.msh");
        assert_eq!(x.data_type, SdmType::Double);
        assert_eq!(x.file_content, FileContent::Data);
    }
}
