//! The import path: reading data created outside SDM.
//!
//! "We use the term import to distinguish it from a read operation. A
//! read operation reads the data created in SDM, whereas an import
//! operation reads the data created outside of SDM." Imports are driven
//! by explicit file offsets and lengths (the application knows the
//! `uns3d.msh` layout) and go through collective MPI-IO.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use sdm_mpi::io::MpiFile;
use sdm_mpi::pod::{as_bytes_mut, Pod};
use sdm_mpi::Comm;

use crate::dataset::ImportDesc;
use crate::error::{SdmError, SdmResult};
use crate::sdm::{GroupHandle, MetaReply, Sdm};
use crate::types::ROW_MAJOR;
use crate::view::DataView;

impl Sdm {
    /// `SDM_make_importlist`: register the imported arrays' metadata in
    /// the `import_table` "for a later use". Collective.
    pub fn make_importlist(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        imports: Vec<ImportDesc>,
    ) -> SdmResult<()> {
        self.metadata_call(comm, |store| {
            for im in &imports {
                store.record_import(
                    self.runid,
                    &im.name,
                    &im.file_name,
                    im.data_type.sql_name(),
                    ROW_MAJOR,
                    im.file_content.sql_name(),
                )?;
            }
            Ok(MetaReply::trips(1))
        })?;
        self.group_at_mut(h)?.imports = imports;
        Ok(())
    }

    pub(crate) fn import_desc(&self, h: GroupHandle, name: &str) -> SdmResult<ImportDesc> {
        self.group_at(h)?
            .imports
            .iter()
            .find(|i| i.name == name)
            .cloned()
            .ok_or_else(|| SdmError::NoSuchDataset(format!("import {name}")))
    }

    /// This group's handle on the import file `file`, opened
    /// collectively first unless the group holds it open already.
    fn open_import(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        file: &str,
    ) -> SdmResult<&mut MpiFile> {
        let pfs = Arc::clone(&self.pfs);
        Ok(
            match self
                .group_at_mut(h)?
                .open_files
                .entry(format!("import:{file}"))
            {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(MpiFile::open_collective(comm, &pfs, file, false)?),
            },
        )
    }

    /// `SDM_import` (contiguous): "the total domain (file length) is
    /// equally divided among processes, and the data in the domain is
    /// contiguously imported". `file_offset` is in bytes, `total_elems`
    /// in elements; returns this rank's chunk and its starting global
    /// element index. Collective.
    pub fn import_contiguous<T: Pod + Default>(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        name: &str,
        file_offset: u64,
        total_elems: u64,
    ) -> SdmResult<(u64, Vec<T>)> {
        let desc = self.import_desc(h, name)?;
        let esize = std::mem::size_of::<T>() as u64;
        if esize != desc.data_type.size() {
            return Err(SdmError::Usage(format!(
                "import {name}: element size {esize} != declared {}",
                desc.data_type.size()
            )));
        }
        let size = comm.size() as u64;
        let chunk = total_elems.div_ceil(size);
        let lo = (comm.rank() as u64 * chunk).min(total_elems);
        let hi = ((comm.rank() as u64 + 1) * chunk).min(total_elems);
        let f = self.open_import(comm, h, &desc.file_name)?;
        let mut out = vec![T::default(); (hi - lo) as usize];
        let segs = if hi > lo {
            vec![(file_offset + lo * esize, (hi - lo) * esize)]
        } else {
            vec![]
        };
        f.read_all_segments(comm, &segs, as_bytes_mut(&mut out))?;
        comm.counters().incr("sdm.imports");
        Ok((lo, out))
    }

    /// `SDM_import` (irregular): import through a map array — "the
    /// associated data is irregularly distributed by calling a collective
    /// MPI-IO function". `map[i]` is the global element index for the
    /// caller's `i`-th local element; the result is in the caller's local
    /// order. Collective.
    pub fn import_view<T: Pod + Default>(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        name: &str,
        file_offset: u64,
        map: &[u64],
        total_elems: u64,
    ) -> SdmResult<Vec<T>> {
        let desc = self.import_desc(h, name)?;
        let ty = desc.data_type;
        if std::mem::size_of::<T>() as u64 != ty.size() {
            return Err(SdmError::Usage(format!(
                "import {name}: element size {} != declared {}",
                std::mem::size_of::<T>(),
                ty.size()
            )));
        }
        let view = DataView::compile(map, total_elems, ty)?;
        let f = self.open_import(comm, h, &desc.file_name)?;
        f.set_view(comm, file_offset, view.ftype.clone())?;
        let mut file_ordered = vec![T::default(); map.len()];
        f.read_all(comm, 0, &mut file_ordered)?;
        comm.counters().incr("sdm.imports");
        view.to_user_order_owned(file_ordered)
    }

    /// `SDM_release_importlist`: drop import descriptors and close the
    /// import file handles. Collective.
    pub fn release_importlist(&mut self, comm: &mut Comm, h: GroupHandle) -> SdmResult<()> {
        let keys: Vec<String> = self
            .group_at(h)?
            .open_files
            .keys()
            .filter(|k| k.starts_with("import:"))
            .cloned()
            .collect();
        for k in keys {
            if let Some(f) = self.group_at_mut(h)?.open_files.remove(&k) {
                f.close(comm);
            }
        }
        self.group_at_mut(h)?.imports.clear();
        Ok(())
    }
}
