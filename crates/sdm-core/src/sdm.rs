//! The SDM handle: initialize, group registration, views, read,
//! finalize.
//!
//! [`Sdm::group`] returns a [`crate::GroupBuilder`] that registers a
//! data group and resolves typed [`crate::DatasetHandle`]s once;
//! [`Sdm::set_view`] installs a dataset's map array; [`Sdm::timestep`]
//! opens a [`crate::TimestepScope`], the one write path, which lands a
//! step's writes as one collective burst with one metadata round trip;
//! and [`Sdm::read_handle`] is the one read path.
//!
//! Rank 0 alone talks to the database, always through
//! `Sdm::metadata_call`: it runs the store calls, alone charges their
//! round trips at the `meta` server, and broadcasts what it learnt.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use sdm_mpi::io::MpiFile;
use sdm_mpi::pod::{as_bytes, vec_from_bytes, Pod};
use sdm_mpi::Comm;
use sdm_pfs::Pfs;

use crate::dataset::{DatasetDesc, ImportDesc};
use crate::error::{SdmError, SdmResult};
use crate::org::OrgLevel;
use crate::session::{DatasetHandle, DatasetSlot, GroupBuilder, TimestepScope};
use crate::store::{MetadataStore, RunRecord, SharedStore};
use crate::types::{SdmElem, IRREGULAR, ROW_MAJOR};
use crate::view::DataView;

/// Tunables for an SDM instance.
#[derive(Debug, Clone)]
pub struct SdmConfig {
    /// File organization for result datasets.
    pub org: OrgLevel,
    /// Modeled CPU cost of examining one edge during index partitioning
    /// (one pass). The original FUN3D import pays this twice per edge
    /// (count pass + read pass); SDM pays it once.
    pub per_edge_scan_cost: f64,
}

/// Date recorded in `run_table` (year, month, day): the paper's arXiv date.
const RUN_DATE: (i64, i64, i64) = (2001, 2, 20);
/// Time recorded in `run_table` (hour, minute).
const RUN_TIME: (i64, i64) = (12, 0);
/// Spatial dimension recorded in `run_table` and `index_table`.
pub(crate) const DIMENSION: i64 = 3;

impl Default for SdmConfig {
    fn default() -> Self {
        Self {
            org: OrgLevel::Level2,
            per_edge_scan_cost: 100e-9,
        }
    }
}

/// Handle to a data group created by [`Sdm::group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHandle(pub(crate) usize);

/// One data group: datasets sharing attributes and (under Level 3) a file.
pub(crate) struct DataGroup {
    pub(crate) datasets: Vec<DatasetDesc>,
    /// Installed views, indexed by dataset slot (the hot path never
    /// touches a dataset name).
    pub(crate) views: Vec<Option<DataView>>,
    /// Rank-local cache of open files (Level 2/3 keep files open across
    /// timesteps — that is the point of those levels).
    pub(crate) open_files: HashMap<String, MpiFile>,
    /// Append cursor per file (bytes). Updated identically on all ranks.
    pub(crate) append_offsets: HashMap<String, u64>,
    pub(crate) imports: Vec<ImportDesc>,
}

impl DataGroup {
    pub(crate) fn new(datasets: Vec<DatasetDesc>) -> Self {
        let views = datasets.iter().map(|_| None).collect();
        Self {
            datasets,
            views,
            open_files: HashMap::new(),
            append_offsets: HashMap::new(),
            imports: Vec::new(),
        }
    }
}

/// What rank 0 learnt in one [`Sdm::metadata_call`], as every rank
/// receives it.
#[derive(Debug, Default)]
pub(crate) struct MetaReply {
    /// Round trips the call cost at the metadata server; rank 0 alone
    /// charges them.
    pub(crate) trips: u32,
    /// A small integer result.
    pub(crate) words: Vec<i64>,
    /// A file name, where the call found one.
    pub(crate) name: String,
}

impl MetaReply {
    /// `trips` round trips and nothing to report.
    pub(crate) fn trips(trips: u32) -> Self {
        Self {
            trips,
            ..Self::default()
        }
    }

    /// One round trip answered with `words`.
    pub(crate) fn words(words: Vec<i64>) -> Self {
        Self {
            trips: 1,
            words,
            name: String::new(),
        }
    }
}

/// Status byte of a broadcast reply: what follows is a reply, or rank
/// 0's error message.
const REPLY_OK: u8 = 0;
const REPLY_ERR: u8 = 1;

/// `[REPLY_OK][word count u64][words i64 …][name]` or
/// `[REPLY_ERR][message]`, native-endian.
fn encode_reply(reply: &SdmResult<MetaReply>) -> Vec<u8> {
    match reply {
        Ok(r) => {
            let mut out = vec![REPLY_OK];
            out.extend_from_slice(&(r.words.len() as u64).to_ne_bytes());
            out.extend_from_slice(as_bytes(&r.words));
            out.extend_from_slice(r.name.as_bytes());
            out
        }
        Err(e) => [&[REPLY_ERR][..], e.to_string().as_bytes()].concat(),
    }
}

fn decode_reply(bytes: &[u8]) -> SdmResult<MetaReply> {
    let malformed = || SdmError::Usage("malformed metadata reply".into());
    match bytes.split_first() {
        Some((&REPLY_OK, rest)) => {
            let (count, rest) = rest.split_at_checked(8).ok_or_else(malformed)?;
            let count = count.try_into().map_err(|_| malformed())?;
            let (words, name) = usize::try_from(u64::from_ne_bytes(count))
                .ok()
                .and_then(|n| n.checked_mul(8))
                .and_then(|len| rest.split_at_checked(len))
                .ok_or_else(malformed)?;
            Ok(MetaReply {
                trips: 0,
                words: vec_from_bytes(words),
                name: String::from_utf8(name.to_vec()).map_err(|_| malformed())?,
            })
        }
        Some((&REPLY_ERR, message)) => Err(SdmError::Root(
            String::from_utf8_lossy(message).into_owned(),
        )),
        _ => Err(malformed()),
    }
}

/// The per-rank SDM instance (the paper's `handle`).
pub struct Sdm {
    pub(crate) pfs: Arc<Pfs>,
    pub(crate) store: SharedStore,
    pub(crate) app: String,
    pub(crate) runid: i64,
    pub(crate) cfg: SdmConfig,
    pub(crate) groups: Vec<DataGroup>,
    /// Whether this run's `run_table` row is complete yet (the first
    /// group registration fills it in).
    pub(crate) run_recorded: bool,
}

impl Sdm {
    /// `SDM_initialize`: connect to the metadata store, create the six
    /// metadata tables, and agree on a run id. Collective.
    pub fn initialize(
        comm: &mut Comm,
        pfs: &Arc<Pfs>,
        store: &SharedStore,
        application: &str,
    ) -> SdmResult<Self> {
        Self::initialize_with(comm, pfs, store, application, SdmConfig::default())
    }

    /// [`Sdm::initialize`] with explicit configuration.
    pub fn initialize_with(
        comm: &mut Comm,
        pfs: &Arc<Pfs>,
        store: &SharedStore,
        application: &str,
        cfg: SdmConfig,
    ) -> SdmResult<Self> {
        let mut sdm = Self::new(pfs, store, application, cfg);
        let reply = sdm.metadata_call(comm, |store| {
            store.ensure_schema()?;
            Ok(MetaReply::words(vec![store.allocate_runid(application)?]))
        })?;
        sdm.runid = reply.words[0];
        Ok(sdm)
    }

    fn new(pfs: &Arc<Pfs>, store: &SharedStore, application: &str, cfg: SdmConfig) -> Self {
        Self {
            pfs: Arc::clone(pfs),
            store: Arc::clone(store),
            app: application.to_string(),
            runid: 0,
            cfg,
            groups: Vec::new(),
            run_recorded: false,
        }
    }

    /// Attach to an *existing* run's metadata instead of opening a new
    /// run: no new `run_table` row is created and reads resolve against
    /// `runid`'s execution records. This is how post-processing tools
    /// (the visualization support the paper's summary plans) reopen data
    /// a previous run wrote. Rank 0 verifies the run id actually has a
    /// `run_table` row; attaching to a never-recorded id fails with
    /// [`SdmError::NoSuchRun`] on every rank. Collective.
    pub fn attach(
        comm: &mut Comm,
        pfs: &Arc<Pfs>,
        store: &SharedStore,
        application: &str,
        runid: i64,
        cfg: SdmConfig,
    ) -> SdmResult<Self> {
        let mut sdm = Self::new(pfs, store, application, cfg);
        let reply = sdm.metadata_call(comm, |store| {
            store.ensure_schema()?;
            Ok(MetaReply::words(vec![i64::from(store.run_exists(runid)?)]))
        })?;
        if reply.words[0] == 0 {
            return Err(SdmError::NoSuchRun(runid));
        }
        sdm.runid = runid;
        sdm.run_recorded = true; // the original run wrote the row
        Ok(sdm)
    }

    /// This run's id in the metadata tables.
    pub fn runid(&self) -> i64 {
        self.runid
    }

    /// The configuration in force.
    pub fn config(&self) -> &SdmConfig {
        &self.cfg
    }

    /// The application name.
    pub fn application(&self) -> &str {
        &self.app
    }

    /// The file system data goes to.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// The metadata store.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// One collective metadata call, the only way SDM talks to the
    /// database. Rank 0 runs `f` against the store and alone charges the
    /// round trips `f` reports at the `meta` server, then broadcasts a
    /// status byte and the reply; every other rank's clock syncs to the
    /// broadcast's arrival. So `sdm.metadata_syncs` counts round trips,
    /// not rank participations, whatever the process count.
    ///
    /// An error on rank 0 reaches every rank: rank 0 returns it and the
    /// others return [`SdmError::Root`] with its message, so no rank is
    /// left waiting at a collective rank 0 never enters.
    pub(crate) fn metadata_call(
        &self,
        comm: &mut Comm,
        f: impl FnOnce(&dyn MetadataStore) -> SdmResult<MetaReply>,
    ) -> SdmResult<MetaReply> {
        if comm.rank() != 0 {
            return decode_reply(&comm.bcast_bytes(0, &[])?);
        }
        let reply = f(&*self.store);
        if let Ok(r) = &reply {
            for _ in 0..r.trips {
                let t = self.pfs.metadata_roundtrip(comm.now());
                comm.sync_to(t);
            }
            comm.counters()
                .add("sdm.metadata_syncs", u64::from(r.trips));
        }
        comm.bcast_bytes(0, &encode_reply(&reply))?;
        reply
    }

    pub(crate) fn group_at(&self, h: GroupHandle) -> SdmResult<&DataGroup> {
        self.groups
            .get(h.0)
            .ok_or_else(|| SdmError::Usage(format!("bad group handle {}", h.0)))
    }

    pub(crate) fn group_at_mut(&mut self, h: GroupHandle) -> SdmResult<&mut DataGroup> {
        self.groups
            .get_mut(h.0)
            .ok_or_else(|| SdmError::Usage(format!("bad group handle {}", h.0)))
    }

    pub(crate) fn slot_desc(&self, s: DatasetSlot) -> SdmResult<&DatasetDesc> {
        self.group_at(s.group_handle())?
            .datasets
            .get(s.index())
            .ok_or_else(|| SdmError::Usage(format!("bad dataset slot {}", s.index())))
    }

    pub(crate) fn slot_view(&self, s: DatasetSlot) -> SdmResult<&DataView> {
        self.group_at(s.group_handle())?
            .views
            .get(s.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                let name = self
                    .slot_desc(s)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|_| format!("slot {}", s.index()));
                SdmError::NoView(name)
            })
    }

    /// Start building a data group: add datasets fluently, then
    /// [`crate::GroupBuilder::build`] registers them in one collective
    /// and returns resolve-once typed handles.
    ///
    /// ```ignore
    /// let g = sdm
    ///     .group(comm)
    ///     .dataset::<f64>("pressure", n)
    ///     .dataset::<f64>("q", n)
    ///     .build()?;
    /// let hp = g.handle::<f64>("pressure")?;
    /// ```
    pub fn group<'s>(&'s mut self, comm: &'s mut Comm) -> GroupBuilder<'s> {
        GroupBuilder::new(self, comm)
    }

    /// Open an RAII scope for one timestep's writes: every
    /// [`crate::TimestepScope::write`] stages data, and closing the
    /// scope issues the staged writes as one collective I/O burst with
    /// exactly one metadata round-trip + sync and one store transaction
    /// — instead of one of each per dataset.
    pub fn timestep<'s>(&'s mut self, comm: &'s mut Comm, timestep: i64) -> TimestepScope<'s> {
        TimestepScope::new(self, comm, timestep)
    }

    /// Register a data group (for [`crate::GroupBuilder::build`]). Rank 0
    /// stores the run row (first group only) and one
    /// `access_pattern_table` row per dataset. Collective.
    pub(crate) fn register_group(
        &mut self,
        comm: &mut Comm,
        datasets: Vec<DatasetDesc>,
    ) -> SdmResult<GroupHandle> {
        if datasets.is_empty() {
            return Err(SdmError::Usage(
                "a data group needs at least one dataset".into(),
            ));
        }
        self.metadata_call(comm, |store| {
            if !self.run_recorded {
                store.record_run(&RunRecord {
                    runid: self.runid,
                    application: self.app.clone(),
                    dimension: DIMENSION,
                    problem_size: datasets[0].global_size as i64,
                    num_timesteps: 0,
                    date: RUN_DATE,
                    time: RUN_TIME,
                })?;
            }
            for d in &datasets {
                store.record_access_pattern(
                    self.runid,
                    &d.name,
                    d.data_type.sql_name(),
                    ROW_MAJOR,
                    IRREGULAR,
                    d.global_size as i64,
                )?;
            }
            Ok(MetaReply::trips(1))
        })?;
        comm.barrier();
        self.run_recorded = true;
        self.groups.push(DataGroup::new(datasets));
        Ok(GroupHandle(self.groups.len() - 1))
    }

    /// Rebuild a data group for datasets whose metadata a *previous* run
    /// already recorded — no new rows are written (for
    /// [`crate::GroupBuilder::attach`]). Collective; handles are assigned
    /// in call order, so callers must re-register groups in the original
    /// creation order for Level 3 file names to resolve.
    pub(crate) fn reattach_group(
        &mut self,
        comm: &mut Comm,
        datasets: Vec<DatasetDesc>,
    ) -> SdmResult<GroupHandle> {
        if datasets.is_empty() {
            return Err(SdmError::Usage(
                "a data group needs at least one dataset".into(),
            ));
        }
        comm.barrier();
        self.groups.push(DataGroup::new(datasets));
        Ok(GroupHandle(self.groups.len() - 1))
    }

    /// Install the map array for a dataset: `map[i]` is the global
    /// element index of the caller's `i`-th local element. The typed
    /// successor of the paper's `SDM_data_view`.
    pub fn set_view(
        &mut self,
        comm: &mut Comm,
        ds: impl Into<DatasetSlot>,
        map: &[u64],
    ) -> SdmResult<()> {
        let s = ds.into();
        let (global_size, ty) = {
            let d = self.slot_desc(s)?;
            (d.global_size, d.data_type)
        };
        let view = DataView::compile(map, global_size, ty)?;
        // Sorting/compiling the map costs CPU proportional to its size.
        comm.compute(map.len() as f64 * self.cfg.per_edge_scan_cost * 0.2);
        self.group_at_mut(s.group_handle())?.views[s.index()] = Some(view);
        Ok(())
    }

    /// This group's handle on `file_name`, opened collectively first
    /// unless the group holds it open already; `create` for a write,
    /// never for a read.
    pub(crate) fn open_cached(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        file_name: &str,
        create: bool,
    ) -> SdmResult<&mut MpiFile> {
        let pfs = Arc::clone(&self.pfs);
        Ok(
            match self
                .group_at_mut(h)?
                .open_files
                .entry(file_name.to_string())
            {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    e.insert(MpiFile::open_collective(comm, &pfs, file_name, create)?)
                }
            },
        )
    }

    /// Collectively read back a dataset written in this run through a
    /// typed handle. The installed view selects which elements this rank
    /// receives, in its local order.
    ///
    /// `out` is untouched by an error raised before any byte moves: an
    /// unwritten step ([`SdmError::NotWritten`]), an `out` of the wrong
    /// length, a failed open. After an I/O error mid-read, `out` may
    /// hold part of the data, as an MPI read buffer is undefined after
    /// an error.
    pub fn read_handle<T: SdmElem>(
        &mut self,
        comm: &mut Comm,
        h: DatasetHandle<T>,
        timestep: i64,
        out: &mut [T],
    ) -> SdmResult<()> {
        self.read_unchecked(comm, h.slot(), timestep, out)
    }

    /// Allocate the base offset for one (dataset, timestep) region and
    /// return `(file_name, base)`. Level 1 writes at 0 in a dedicated
    /// file; Level 2/3 append one full global-array region. A region
    /// whose end would pass `i64::MAX` (the `execution_table` offset
    /// column's range) is refused, never wrapped.
    pub(crate) fn alloc_region(
        &mut self,
        s: DatasetSlot,
        timestep: i64,
    ) -> SdmResult<(String, u64)> {
        let (file_name, global_bytes) = {
            let d = self.slot_desc(s)?;
            (
                self.cfg
                    .org
                    .file_name(&self.app, s.group_handle().0, &d.name, timestep),
                // Cannot overflow: `GroupBuilder` admits only datasets
                // whose byte size fits `i64`.
                d.global_size * d.data_type.size(),
            )
        };
        let g = self.group_at_mut(s.group_handle())?;
        let cursor = g.append_offsets.entry(file_name.clone()).or_insert(0);
        let base = *cursor;
        *cursor = base
            .checked_add(global_bytes)
            .filter(|&end| end <= i64::MAX as u64)
            .ok_or_else(|| {
                SdmError::Usage(format!(
                    "{file_name}: a {global_bytes}-byte region at offset {base} \
                     overflows the file offset"
                ))
            })?;
        Ok((file_name, base))
    }

    fn read_unchecked<T: Pod + Default>(
        &mut self,
        comm: &mut Comm,
        s: DatasetSlot,
        timestep: i64,
        out: &mut [T],
    ) -> SdmResult<()> {
        let name = self.slot_desc(s)?.name.clone();
        let hit = self.metadata_call(comm, |store| {
            Ok(match store.lookup_execution(self.runid, &name, timestep)? {
                Some((base, file)) => MetaReply {
                    trips: 1,
                    words: vec![base],
                    name: file,
                },
                None => MetaReply::trips(1),
            })
        })?;
        let Some(&base) = hit.words.first() else {
            return Err(SdmError::NotWritten {
                dataset: name,
                timestep,
            });
        };
        let file_name = hit.name;
        // A file the row names but the file system lacks is `NotFound`
        // on every rank, and nothing is created in its place.
        // The length check waits until every rank is past the
        // collective open.
        let ftype = self.slot_view(s).and_then(|view| {
            if view.len() != out.len() {
                return Err(SdmError::Usage(format!(
                    "output buffer has {} elements but the view selects {}",
                    out.len(),
                    view.len()
                )));
            }
            Ok((view.ftype.clone(), view.is_identity()))
        });
        let f = self.open_cached(comm, s.group_handle(), &file_name, false)?;
        let (ftype, identity) = ftype?;
        f.set_view(comm, base as u64, ftype)?;
        // File order is the caller's order under an ascending view, so
        // the read lands in `out` itself.
        if identity {
            f.read_all(comm, 0, out)?;
        } else {
            let mut file_ordered = vec![T::default(); out.len()];
            f.read_all(comm, 0, &mut file_ordered)?;
            self.slot_view(s)?.to_user_order_into(&file_ordered, out)?;
        }
        if self.cfg.org.opens_per_timestep() {
            if let Some(f) = self
                .group_at_mut(s.group_handle())?
                .open_files
                .remove(&file_name)
            {
                f.close(comm);
            }
        }
        comm.counters().incr("sdm.reads");
        Ok(())
    }

    /// `SDM_finalize`: close every cached file, push buffered metadata
    /// down to the database, and synchronize.
    pub fn finalize(mut self, comm: &mut Comm) -> SdmResult<()> {
        for g in &mut self.groups {
            for (_, f) in g.open_files.drain() {
                f.close(comm);
            }
        }
        // No round trip: the steps' commits already paid for their rows.
        self.metadata_call(comm, |store| {
            store.flush()?;
            Ok(MetaReply::trips(0))
        })?;
        comm.barrier();
        Ok(())
    }
}
