//! The typed session API: dataset handles, the group builder, and RAII
//! timestep scopes.
//!
//! The paper's `SDM_*` surface is stringly typed: every `SDM_write`
//! resolves a dataset name and re-checks the element size. This module
//! is SDM's only way to register and write datasets, built from
//! *resolve-once* constructs:
//!
//! * [`DatasetSlot`] / [`DatasetHandle`] — a dataset's resolved address
//!   (group index + slot). The typed form carries the element type, so
//!   buffer/dataset agreement is a compile-time property and the write
//!   hot path performs no string lookup and no size check.
//! * [`GroupBuilder`] — a fluent builder over [`Sdm::group`]; one
//!   collective registers the whole group and the returned
//!   [`GroupRegistration`] resolves typed handles.
//! * [`TimestepScope`] — an RAII guard from [`Sdm::timestep`] that
//!   stages a step's dataset writes and lands them at scope close as
//!   one collective I/O burst, one `CachedStore` transaction, and
//!   exactly one metadata round trip (the paper's per-dataset cadence
//!   pays one of each per dataset).

use std::borrow::Cow;
use std::marker::PhantomData;

use sdm_mpi::pod::{as_bytes, Pod};
use sdm_mpi::Comm;

use crate::dataset::DatasetDesc;
use crate::error::{SdmError, SdmResult};
use crate::sdm::{GroupHandle, MetaReply, Sdm};
use crate::types::{SdmElem, SdmType};

/// Untyped resolved address of one dataset: the group's index and the
/// dataset's slot within it. Copyable; valid for the lifetime of the
/// `Sdm` that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSlot {
    group: u32,
    slot: u32,
}

impl DatasetSlot {
    pub(crate) fn new(group: usize, slot: usize) -> Self {
        Self {
            group: group as u32,
            slot: slot as u32,
        }
    }

    /// The group this dataset belongs to.
    pub fn group_handle(&self) -> GroupHandle {
        GroupHandle(self.group as usize)
    }

    /// The dataset's slot within its group (registration order).
    pub fn index(&self) -> usize {
        self.slot as usize
    }
}

/// Typed, copyable dataset handle: a [`DatasetSlot`] whose element type
/// was checked against the dataset's declared [`SdmType`] at
/// resolution, so `write`/`read` through it need no per-call checks.
pub struct DatasetHandle<T: SdmElem> {
    slot: DatasetSlot,
    _elem: PhantomData<fn() -> T>,
}

impl<T: SdmElem> DatasetHandle<T> {
    pub(crate) fn new(slot: DatasetSlot) -> Self {
        Self {
            slot,
            _elem: PhantomData,
        }
    }

    /// The untyped address this handle wraps.
    pub fn slot(&self) -> DatasetSlot {
        self.slot
    }
}

impl<T: SdmElem> Clone for DatasetHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: SdmElem> Copy for DatasetHandle<T> {}

impl<T: SdmElem> std::fmt::Debug for DatasetHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetHandle")
            .field("group", &self.slot.group)
            .field("slot", &self.slot.slot)
            .field("type", &T::SDM_TYPE)
            .finish()
    }
}

impl<T: SdmElem> From<DatasetHandle<T>> for DatasetSlot {
    fn from(h: DatasetHandle<T>) -> Self {
        h.slot
    }
}

/// Fluent builder for a data group, from [`Sdm::group`].
///
/// Datasets are added with [`GroupBuilder::dataset`] (element type as a
/// type parameter). [`GroupBuilder::build`] registers the group's
/// attributes in one collective; [`GroupBuilder::attach`] re-registers a
/// group a previous run already recorded (no metadata rows written).
pub struct GroupBuilder<'a> {
    sdm: &'a mut Sdm,
    comm: &'a mut Comm,
    datasets: Vec<DatasetDesc>,
}

impl<'a> GroupBuilder<'a> {
    pub(crate) fn new(sdm: &'a mut Sdm, comm: &'a mut Comm) -> Self {
        Self {
            sdm,
            comm,
            datasets: Vec::new(),
        }
    }

    /// Add a dataset of element type `T` with `global_size` elements
    /// (recorded as row-major with irregular access, the paper's case).
    pub fn dataset<T: SdmElem>(mut self, name: impl Into<String>, global_size: u64) -> Self {
        self.datasets.push(DatasetDesc {
            name: name.into(),
            data_type: T::SDM_TYPE,
            global_size,
        });
        self
    }

    fn validate(&self) -> SdmResult<()> {
        for (i, d) in self.datasets.iter().enumerate() {
            // Every byte offset of a region must fit the
            // `execution_table`'s `i64` offset column.
            if d.global_size
                .checked_mul(d.data_type.size())
                .is_none_or(|bytes| bytes > i64::MAX as u64)
            {
                return Err(SdmError::Usage(format!(
                    "dataset {:?}: {} elements of {} bytes overflow a file offset",
                    d.name,
                    d.global_size,
                    d.data_type.size()
                )));
            }
            if self.datasets[..i].iter().any(|e| e.name == d.name) {
                return Err(SdmError::Usage(format!(
                    "duplicate dataset name {:?} in group",
                    d.name
                )));
            }
        }
        Ok(())
    }

    fn slots_of(datasets: &[DatasetDesc]) -> Vec<(String, SdmType)> {
        datasets
            .iter()
            .map(|d| (d.name.clone(), d.data_type))
            .collect()
    }

    /// Register the group: rank 0 stores the run row (first group only)
    /// and one `access_pattern_table` row per dataset, in one metadata
    /// sync. Collective.
    pub fn build(self) -> SdmResult<GroupRegistration> {
        self.validate()?;
        let GroupBuilder {
            sdm,
            comm,
            datasets,
        } = self;
        let slots = Self::slots_of(&datasets);
        let group = sdm.register_group(comm, datasets)?;
        Ok(GroupRegistration { group, slots })
    }

    /// Re-register a group whose metadata a previous run already
    /// recorded — no new rows are written. Groups must be re-attached
    /// in the original creation order for Level 3 file names to
    /// resolve. Collective.
    pub fn attach(self) -> SdmResult<GroupRegistration> {
        self.validate()?;
        let GroupBuilder {
            sdm,
            comm,
            datasets,
        } = self;
        let slots = Self::slots_of(&datasets);
        let group = sdm.reattach_group(comm, datasets)?;
        Ok(GroupRegistration { group, slots })
    }
}

/// The result of registering a data group: the group handle plus the
/// name/type table needed to resolve typed handles without touching the
/// `Sdm` again.
pub struct GroupRegistration {
    group: GroupHandle,
    slots: Vec<(String, SdmType)>,
}

impl GroupRegistration {
    /// The registered group's handle (Level 2/3 file names embed its
    /// index; the import path takes it).
    pub fn group(&self) -> GroupHandle {
        self.group
    }

    /// Number of datasets in the group.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the group has no datasets (never true for a built group).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Dataset names in slot order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| n.as_str())
    }

    /// Resolve a dataset name to its untyped slot.
    pub fn slot(&self, name: &str) -> SdmResult<DatasetSlot> {
        self.slots
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| DatasetSlot::new(self.group.0, i))
            .ok_or_else(|| SdmError::NoSuchDataset(name.to_string()))
    }

    /// Resolve a dataset name to a typed handle, checking `T` against
    /// the declared element type once.
    pub fn handle<T: SdmElem>(&self, name: &str) -> SdmResult<DatasetHandle<T>> {
        let s = self.slot(name)?;
        let declared = self.slots[s.index()].1;
        if declared != T::SDM_TYPE {
            return Err(SdmError::TypeMismatch {
                dataset: name.to_string(),
                declared,
                requested: T::SDM_TYPE,
            });
        }
        Ok(DatasetHandle::new(s))
    }
}

/// One staged dataset write inside a [`TimestepScope`], as raw bytes in
/// file order: the caller's buffer itself when the dataset's view is the
/// identity, else a permuted copy of it.
struct Staged<'a> {
    slot: DatasetSlot,
    bytes: Cow<'a, [u8]>,
}

/// RAII scope for one timestep's writes, from [`Sdm::timestep`].
///
/// [`TimestepScope::write`] stages data (checking it against the
/// dataset's view immediately, so errors surface at the call site); the
/// staged writes are issued when the scope closes — explicitly through
/// [`TimestepScope::commit`] (which reports errors) or implicitly on
/// drop (best-effort). A staged buffer stays borrowed until then, as an
/// MPI nonblocking write's buffer does until it completes. Closing
/// performs, in order:
///
/// 1. one collective I/O burst: every staged region is appended and
///    its two-phase collective write *begun* back-to-back, so the
///    servers work on one region's last windows while the next region's
///    first one is exchanged and staged;
/// 2. one drain: every file written is waited for
///    (`MpiFile::sync`), so that **no metadata row exists before the
///    bytes it names are at the servers**, whether the store buffers
///    rows or not; a Level-1 file is closed as soon as it is drained;
/// 3. one `execution_table` insert per dataset on rank 0, flushed as a
///    **single store transaction**;
/// 4. exactly **one** metadata round trip, charged on rank 0, whose
///    outcome every rank receives, and one barrier — not one of each per
///    dataset.
///
/// If a write fails mid-burst, what was begun is still drained and
/// recorded (those regions did land), the rows are flushed best-effort,
/// and the error is returned: at most the failing dataset is without
/// metadata.
///
/// All ranks of the communicator must stage the same datasets in the
/// same order (the writes are collective).
///
/// If any staging call failed, the scope is **poisoned**: dropping it
/// abandons everything staged so far instead of committing a partial
/// step (when every rank sees the same error, nothing lands anywhere
/// and the world stays collectively consistent).
pub struct TimestepScope<'a> {
    sdm: &'a mut Sdm,
    comm: &'a mut Comm,
    timestep: i64,
    staged: Vec<Staged<'a>>,
    closed: bool,
    poisoned: bool,
}

impl<'a> TimestepScope<'a> {
    pub(crate) fn new(sdm: &'a mut Sdm, comm: &'a mut Comm, timestep: i64) -> Self {
        Self {
            sdm,
            comm,
            timestep,
            staged: Vec::new(),
            closed: false,
            poisoned: false,
        }
    }

    /// The timestep this scope writes.
    pub fn timestep(&self) -> i64 {
        self.timestep
    }

    /// Number of writes staged so far.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Stage a typed write of `buf`, in the caller's local element
    /// order, to be issued at scope close. No name lookup, no
    /// element-size check. An ascending view's data is already in file
    /// order, so `buf` itself is staged; any other view permutes a copy
    /// now.
    ///
    /// `buf` stays borrowed until the scope closes ([`commit`],
    /// [`abandon`] or drop): it cannot change under a write that has not
    /// been issued yet.
    ///
    /// ```compile_fail,E0506
    /// # use sdm_core::{DatasetHandle, Sdm, SdmResult};
    /// # fn step(sdm: &mut Sdm, comm: &mut sdm_mpi::Comm, h: DatasetHandle<f64>) -> SdmResult<()> {
    /// let mut buf = vec![1.0; 4];
    /// let mut step = sdm.timestep(comm, 0);
    /// step.write(h, &buf)?;
    /// buf[0] = 2.0; // error[E0506]: `buf` is still borrowed by `step`
    /// step.commit()
    /// # }
    /// ```
    ///
    /// Changing the buffer once the scope is closed is fine:
    ///
    /// ```no_run
    /// # use sdm_core::{DatasetHandle, Sdm, SdmResult};
    /// # fn step(sdm: &mut Sdm, comm: &mut sdm_mpi::Comm, h: DatasetHandle<f64>) -> SdmResult<()> {
    /// let mut buf = vec![1.0; 4];
    /// let mut step = sdm.timestep(comm, 0);
    /// step.write(h, &buf)?;
    /// step.commit()?;
    /// buf[0] = 2.0;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// [`commit`]: TimestepScope::commit
    /// [`abandon`]: TimestepScope::abandon
    pub fn write<T: SdmElem>(&mut self, h: DatasetHandle<T>, buf: &'a [T]) -> SdmResult<()> {
        self.stage(h.slot(), buf)
    }

    fn stage<T: Pod>(&mut self, slot: DatasetSlot, buf: &'a [T]) -> SdmResult<()> {
        let staged = (|| {
            let view = self.sdm.slot_view(slot)?;
            let bytes = if view.is_identity() {
                view.check_len("buffer", buf.len())?;
                Cow::Borrowed(as_bytes(buf))
            } else {
                Cow::Owned(view.to_file_order_bytes(buf)?)
            };
            Ok(Staged { slot, bytes })
        })();
        match staged {
            Ok(s) => {
                self.staged.push(s);
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Close the scope, issuing the staged writes and reporting any
    /// error. Prefer this over dropping (drop closes best-effort, only
    /// when no staging call failed, and swallows errors). Committing a
    /// **poisoned** scope (one where a staging call failed) is refused:
    /// the partial step is discarded and the caller must retry the
    /// whole timestep with a fresh scope.
    pub fn commit(mut self) -> SdmResult<()> {
        self.closed = true;
        let staged = std::mem::take(&mut self.staged);
        if self.poisoned {
            return Err(SdmError::Usage(format!(
                "timestep scope {} is poisoned by an earlier staging error; \
                 retry the step with a fresh scope",
                self.timestep
            )));
        }
        Self::issue(self.sdm, self.comm, self.timestep, staged)
    }

    /// Close the scope without writing anything, discarding the staged
    /// data (e.g. after a mid-step application error).
    pub fn abandon(mut self) {
        self.closed = true;
        self.staged.clear();
    }

    /// Issue a batch of staged writes: the collective I/O burst, its
    /// drain, and the single-transaction metadata landing in one round
    /// trip.
    fn issue(
        sdm: &mut Sdm,
        comm: &mut Comm,
        timestep: i64,
        staged: Vec<Staged<'_>>,
    ) -> SdmResult<()> {
        if staged.is_empty() {
            return Ok(());
        }
        // ---- One collective I/O burst over all staged regions ----
        // Every write is begun and none waited for: a region's last
        // windows are still at the servers while the next region's
        // first one is exchanged and staged.
        let mut written: Vec<(DatasetSlot, String, u64)> = Vec::with_capacity(staged.len());
        let burst = (|| {
            for w in &staged {
                let (file_name, base) = sdm.alloc_region(w.slot, timestep)?;
                let ftype = sdm.slot_view(w.slot)?.ftype.clone();
                let f = sdm.open_cached(comm, w.slot.group_handle(), &file_name, true)?;
                f.set_view(comm, base, ftype)?;
                f.write_all_begin(comm, 0, &w.bytes)?;
                written.push((w.slot, file_name, base));
                comm.counters().incr("sdm.writes");
            }
            Ok(())
        })();
        // ---- Drain, then the rows: no row names bytes still in flight ----
        // After an error too: what was begun did land, and its rows keep
        // it reachable, so at most the failing dataset is without
        // metadata. A Level-1 file is dedicated to this (dataset, step):
        // it closes as soon as it is drained, and `close` syncs it.
        let close_each = sdm.cfg.org.opens_per_timestep();
        for (slot, file_name, _) in &written {
            let files = &mut sdm.group_at_mut(slot.group_handle())?.open_files;
            if close_each {
                if let Some(f) = files.remove(file_name) {
                    f.close(comm);
                }
            } else if let Some(f) = files.get(file_name) {
                f.sync(comm);
            }
        }
        // ---- The step's rows, one store transaction, one round trip ----
        let landed = sdm.metadata_call(comm, |store| {
            let rows = written.iter().try_for_each(|(slot, file_name, base)| {
                let name = &sdm.slot_desc(*slot)?.name;
                store.record_execution(sdm.runid, name, timestep, *base as i64, file_name)?;
                Ok::<_, SdmError>(())
            });
            // `CachedStore` lands the buffered batch in one
            // transaction; unbuffered stores already wrote row by row.
            // After a failed row too (best effort), so the rows buffered
            // so far cannot leak into a later step's transaction.
            let flushed = store.flush();
            rows?;
            flushed?;
            Ok(MetaReply::trips(1))
        });
        burst.and(landed)?;
        comm.barrier();
        Ok(())
    }
}

impl Drop for TimestepScope<'_> {
    fn drop(&mut self) {
        if !self.closed && !self.poisoned && !std::thread::panicking() {
            let staged = std::mem::take(&mut self.staged);
            let _ = Self::issue(self.sdm, self.comm, self.timestep, staged);
        }
        // A poisoned scope — or one dropped during unwinding — abandons
        // its staged writes: committing a partial step after an error
        // would record a checkpoint the application believes was
        // aborted, and issuing collective I/O mid-panic would leave the
        // other ranks waiting at a rendezvous this rank never matches.
    }
}
