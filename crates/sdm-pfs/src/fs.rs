//! The parallel file system: namespace, data path, and timing.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sdm_sim::stats::Counters;
use sdm_sim::{MachineConfig, Seconds};

use crate::error::{PfsError, PfsResult};
use crate::faults::FaultPlan;
use crate::file::{FileData, PfsFile};
use crate::server::IoServer;
use crate::stripe::StripeLayout;

/// The striped parallel file system.
///
/// Shared by every rank thread (wrap in `Arc`). All operations take the
/// caller's current virtual time and return the operation's completion
/// time; callers `sync_to` their clock.
#[derive(Debug)]
pub struct Pfs {
    config: MachineConfig,
    layout: StripeLayout,
    servers: Vec<IoServer>,
    /// Metadata service: opens, closes, deletes serialize here.
    meta: IoServer,
    files: RwLock<HashMap<String, Arc<FileData>>>,
    faults: FaultPlan,
    counters: Counters,
}

impl Pfs {
    /// A fresh file system with the given machine parameters.
    pub fn new(config: MachineConfig) -> Arc<Self> {
        Self::with_faults(config, FaultPlan::none())
    }

    /// A fresh file system with fault injection installed.
    pub fn with_faults(config: MachineConfig, faults: FaultPlan) -> Arc<Self> {
        let layout = StripeLayout::new(config.stripe_size as u64, config.io_servers);
        let servers = (0..config.io_servers).map(|_| IoServer::new()).collect();
        Arc::new(Self {
            config,
            layout,
            servers,
            meta: IoServer::new(),
            files: RwLock::new(HashMap::new()),
            faults,
            counters: Counters::new(),
        })
    }

    /// The machine configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Shared operation counters (bytes/ops, opens, etc.).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Open `name`, creating it if absent. Charges the open cost at the
    /// metadata service (opens of many files serialize, which is the
    /// Level 1 penalty when the open cost is high).
    pub fn open_or_create(&self, name: &str, now: Seconds) -> PfsResult<(PfsFile, Seconds)> {
        if self.faults.open_fails(name) {
            return Err(PfsError::OpenFailed(name.to_string()));
        }
        let data = {
            let mut files = self.files_mut();
            Arc::clone(
                files
                    .entry(name.to_string())
                    .or_insert_with(|| FileData::new(name.to_string())),
            )
        };
        let t = self.meta.submit(now, self.config.io.open_cost);
        self.counters.incr("pfs.opens");
        Ok((PfsFile::new(data), t))
    }

    /// Open an existing file; `NotFound` if absent.
    pub fn open(&self, name: &str, now: Seconds) -> PfsResult<(PfsFile, Seconds)> {
        if self.faults.open_fails(name) {
            return Err(PfsError::OpenFailed(name.to_string()));
        }
        let file = self.lookup(name)?;
        let t = self.meta.submit(now, self.config.io.open_cost);
        self.counters.incr("pfs.opens");
        Ok((file, t))
    }

    /// A handle on the image of `name`, which another process has just
    /// opened and told this one about (a collective open's other ranks).
    /// Not charged and not counted: the metadata service is asked once
    /// per open, by the process that opened it. `NotFound` if absent.
    pub fn lookup(&self, name: &str) -> PfsResult<PfsFile> {
        let data = self
            .files()
            .get(name)
            .cloned()
            .ok_or_else(|| PfsError::NotFound(name.to_string()))?;
        Ok(PfsFile::new(data))
    }

    /// Close a handle. Charges the close cost.
    pub fn close(&self, file: &PfsFile, now: Seconds) -> Seconds {
        file.mark_closed();
        self.counters.incr("pfs.closes");
        self.meta.submit(now, self.config.io.close_cost)
    }

    /// Close a handle from [`Pfs::lookup`] whose file another process
    /// closes at the metadata service: not charged and not counted.
    pub fn release(&self, file: &PfsFile) {
        file.mark_closed();
    }

    /// Charge the cost of installing a file view (`MPI_File_set_view`).
    /// Client-side work; no metadata contention.
    pub fn view_cost(&self, now: Seconds) -> Seconds {
        self.counters.incr("pfs.views");
        now + self.config.io.view_cost
    }

    /// Charge one metadata-database round trip (SDM stores offsets and
    /// history records in the DB; the *content* lives in `sdm-metadb`,
    /// only the time is charged here).
    pub fn metadata_roundtrip(&self, now: Seconds) -> Seconds {
        self.counters.incr("pfs.metadata_ops");
        self.meta.submit(now, self.config.io.metadata_cost)
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files().contains_key(name)
    }

    /// Visible length of `name` (respects fault-plan truncation), or
    /// `NotFound`.
    pub fn file_len(&self, name: &str) -> PfsResult<u64> {
        let files = self.files();
        let data = files
            .get(name)
            .ok_or_else(|| PfsError::NotFound(name.to_string()))?;
        let real = data.image.len();
        Ok(self.faults.visible_len(name, real))
    }

    /// Remove `name` from the namespace. Existing handles keep their image.
    pub fn delete(&self, name: &str, now: Seconds) -> PfsResult<Seconds> {
        let removed = self.files_mut().remove(name);
        if removed.is_none() {
            return Err(PfsError::NotFound(name.to_string()));
        }
        self.counters.incr("pfs.deletes");
        Ok(self.meta.submit(now, self.config.io.close_cost))
    }

    /// All file names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files().keys().cloned().collect();
        names.sort();
        names
    }

    fn data_path_completion(&self, offset: u64, len: usize, arrival: Seconds) -> Seconds {
        if len == 0 {
            return arrival;
        }
        let per_server = self.layout.bytes_per_server(offset, len as u64);
        let mut done = arrival;
        for (s, &bytes) in per_server.iter().enumerate() {
            if bytes > 0 {
                let service = self.config.io.service_time(bytes as usize);
                done = done.max(self.servers[s].submit(arrival, service));
            }
        }
        done
    }

    /// Write `data` at `offset`, extending the file as needed. Returns the
    /// completion time.
    pub fn write_at(
        &self,
        file: &PfsFile,
        offset: u64,
        data: &[u8],
        now: Seconds,
    ) -> PfsResult<Seconds> {
        if file.is_closed() {
            return Err(PfsError::Closed(file.name().to_string()));
        }
        file.data.image.write(offset, data);
        self.counters.add("pfs.write_bytes", data.len() as u64);
        self.counters.incr("pfs.write_ops");
        let arrival = now + self.config.io.client_copy(data.len());
        Ok(self.data_path_completion(offset, data.len(), arrival))
    }

    /// Asynchronous write: the data is durable immediately, the servers
    /// are occupied in the background, but the *caller* is only charged
    /// the client-side copy. SDM uses this for history files ("the
    /// partitioned edges are asynchronously written to a history file").
    /// Returns `(caller_time, background_completion_time)`.
    pub fn write_at_async(
        &self,
        file: &PfsFile,
        offset: u64,
        data: &[u8],
        now: Seconds,
    ) -> PfsResult<(Seconds, Seconds)> {
        let done = self.write_at(file, offset, data, now)?;
        let caller = now + self.config.io.client_copy(data.len());
        Ok((caller, done))
    }

    /// Read up to `buf.len()` bytes at `offset`. Returns the byte count
    /// (short at the visible end of file) and the completion time.
    pub fn read_at(
        &self,
        file: &PfsFile,
        offset: u64,
        buf: &mut [u8],
        now: Seconds,
    ) -> PfsResult<(usize, Seconds)> {
        if file.is_closed() {
            return Err(PfsError::Closed(file.name().to_string()));
        }
        let image = &file.data.image;
        let visible = self.faults.visible_len(file.name(), image.len());
        let n = visible.saturating_sub(offset).min(buf.len() as u64) as usize;
        image.read(offset, &mut buf[..n]);
        if n > 0 && self.faults.corrupts(file.name(), offset) {
            buf[0] = !buf[0];
        }
        self.counters.add("pfs.read_bytes", n as u64);
        self.counters.incr("pfs.read_ops");
        let done = self.data_path_completion(offset, n, now);
        Ok((n, done + self.config.io.client_copy(n)))
    }

    /// Read exactly `buf.len()` bytes or fail with `ShortRead`.
    pub fn read_exact_at(
        &self,
        file: &PfsFile,
        offset: u64,
        buf: &mut [u8],
        now: Seconds,
    ) -> PfsResult<Seconds> {
        let (n, t) = self.read_at(file, offset, buf, now)?;
        if n != buf.len() {
            return Err(PfsError::ShortRead {
                name: file.name().to_string(),
                wanted: buf.len(),
                got: n,
            });
        }
        Ok(t)
    }

    /// When the data servers will have finished everything submitted to
    /// them so far: nothing is in flight at or after this time.
    pub fn drained_at(&self) -> Seconds {
        (self.servers.iter().map(IoServer::busy_until)).fold(0.0, Seconds::max)
    }

    /// Reset all server queues to idle and zero the counters, keeping the
    /// namespace. Used between benchmark repetitions.
    pub fn reset_timing(&self) {
        for s in &self.servers {
            s.reset();
        }
        self.meta.reset();
        self.counters.reset();
    }

    /// Drop every file. The namespace becomes empty.
    pub fn clear(&self) {
        self.files_mut().clear();
    }

    /// The namespace, read-locked (a poisoned lock's map is used as it is).
    fn files(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<FileData>>> {
        self.files.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The namespace, write-locked.
    fn files_mut(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<FileData>>> {
        self.files.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Arc<Pfs> {
        Pfs::new(MachineConfig::test_tiny())
    }

    #[test]
    fn write_then_read_round_trips() {
        let fs = fs();
        let (f, t) = fs.open_or_create("a.dat", 0.0).unwrap();
        let t = fs.write_at(&f, 0, b"hello world", t).unwrap();
        let mut buf = [0u8; 11];
        let (n, _) = fs.read_at(&f, 0, &mut buf, t).unwrap();
        assert_eq!(n, 11);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn sparse_write_reads_zeros_in_hole() {
        let fs = fs();
        let (f, t) = fs.open_or_create("s.dat", 0.0).unwrap();
        fs.write_at(&f, 100, b"x", t).unwrap();
        let mut buf = [1u8; 4];
        let (n, _) = fs.read_at(&f, 50, &mut buf, 0.0).unwrap();
        assert_eq!(n, 4);
        assert_eq!(buf, [0, 0, 0, 0]);
        assert_eq!(f.len(), 101);
    }

    #[test]
    fn far_write_leaves_a_hole_that_costs_nothing() {
        let fs = fs();
        let (f, t) = fs.open_or_create("far.dat", 0.0).unwrap();
        fs.write_at(&f, 1 << 40, b"x", t).unwrap();
        assert_eq!(fs.file_len("far.dat").unwrap(), (1 << 40) + 1);
        let mut buf = [1u8; 8];
        let (n, _) = fs.read_at(&f, (1 << 40) - 7, &mut buf, 0.0).unwrap();
        assert_eq!((n, buf), (8, [0, 0, 0, 0, 0, 0, 0, b'x']));
        let (n, _) = fs.read_at(&f, 12345, &mut buf, 0.0).unwrap();
        assert_eq!((n, buf), (8, [0; 8]));
    }

    #[test]
    fn write_straddling_eof_overwrites_then_appends() {
        let fs = fs();
        let (f, t) = fs.open_or_create("x.dat", 0.0).unwrap();
        fs.write_at(&f, 0, b"abcdef", t).unwrap();
        fs.write_at(&f, 4, b"WXYZ", t).unwrap();
        let mut buf = [0u8; 8];
        fs.read_exact_at(&f, 0, &mut buf, 0.0).unwrap();
        assert_eq!(&buf, b"abcdWXYZ");
    }

    #[test]
    fn read_past_eof_is_short() {
        let fs = fs();
        let (f, t) = fs.open_or_create("e.dat", 0.0).unwrap();
        fs.write_at(&f, 0, b"abc", t).unwrap();
        let mut buf = [0u8; 10];
        let (n, _) = fs.read_at(&f, 0, &mut buf, 0.0).unwrap();
        assert_eq!(n, 3);
        let err = fs.read_exact_at(&f, 0, &mut buf, 0.0).unwrap_err();
        assert!(matches!(
            err,
            PfsError::ShortRead {
                wanted: 10,
                got: 3,
                ..
            }
        ));
    }

    #[test]
    fn open_missing_fails_but_create_succeeds() {
        let fs = fs();
        assert!(matches!(fs.open("nope", 0.0), Err(PfsError::NotFound(_))));
        fs.open_or_create("nope", 0.0).unwrap();
        assert!(fs.open("nope", 0.0).is_ok());
        assert!(fs.exists("nope"));
    }

    #[test]
    fn lookup_shares_the_image_and_costs_nothing() {
        let fs = Pfs::new(MachineConfig::origin2000());
        assert!(matches!(fs.lookup("l.dat"), Err(PfsError::NotFound(_))));
        let (f, t) = fs.open_or_create("l.dat", 0.0).unwrap();
        let g = fs.lookup("l.dat").unwrap();
        fs.write_at(&f, 0, b"abc", t).unwrap();
        assert_eq!(g.len(), 3);
        fs.release(&g);
        assert!(g.is_closed() && !f.is_closed());
        assert_eq!(fs.counters().get("pfs.opens"), 1);
        assert_eq!(fs.counters().get("pfs.closes"), 0);
        // The metadata service saw one open: the next queues behind it only.
        let (_, t2) = fs.open_or_create("m.dat", 0.0).unwrap();
        assert!((t2 - 2.0 * fs.config().io.open_cost).abs() < 1e-9);
    }

    #[test]
    fn closed_handle_rejected() {
        let fs = fs();
        let (f, t) = fs.open_or_create("c.dat", 0.0).unwrap();
        fs.close(&f, t);
        assert!(matches!(
            fs.write_at(&f, 0, b"x", 0.0),
            Err(PfsError::Closed(_))
        ));
        let mut b = [0u8; 1];
        assert!(matches!(
            fs.read_at(&f, 0, &mut b, 0.0),
            Err(PfsError::Closed(_))
        ));
    }

    #[test]
    fn delete_removes_from_namespace() {
        let fs = fs();
        fs.open_or_create("d.dat", 0.0).unwrap();
        fs.delete("d.dat", 0.0).unwrap();
        assert!(!fs.exists("d.dat"));
        assert!(matches!(
            fs.delete("d.dat", 0.0),
            Err(PfsError::NotFound(_))
        ));
    }

    #[test]
    fn list_is_sorted() {
        let fs = fs();
        for n in ["b", "a", "c"] {
            fs.open_or_create(n, 0.0).unwrap();
        }
        assert_eq!(fs.list(), vec!["a", "b", "c"]);
    }

    #[test]
    fn timing_advances_with_size() {
        let fs = Pfs::new(MachineConfig::origin2000());
        let (f, t) = fs.open_or_create("t.dat", 0.0).unwrap();
        let small = fs.write_at(&f, 0, &vec![0u8; 1024], t).unwrap() - t;
        fs.reset_timing();
        let big = fs.write_at(&f, 0, &vec![0u8; 16 << 20], t).unwrap() - t;
        assert!(
            big > small * 10.0,
            "16MB ({big}s) should cost much more than 1KB ({small}s)"
        );
    }

    #[test]
    fn striping_spreads_load_across_servers() {
        let cfg = MachineConfig::origin2000();
        let fs = Pfs::new(cfg.clone());
        let (f, _) = fs.open_or_create("w.dat", 0.0).unwrap();
        // One large write should finish in roughly bytes/aggregate_bw, not
        // bytes/single_server_bw (plus latency overheads).
        let bytes = 64 << 20;
        let done = fs.write_at(&f, 0, &vec![0u8; bytes], 0.0).unwrap();
        let single_server = bytes as f64 * cfg.io.server_byte_time;
        assert!(
            done < single_server / 2.0,
            "striped write {done}s should beat half the single-server time {single_server}s"
        );
    }

    #[test]
    fn contention_slows_concurrent_writers() {
        let cfg = MachineConfig::origin2000();
        let fs = Pfs::new(cfg);
        let (f, _) = fs.open_or_create("x.dat", 0.0).unwrap();
        let chunk = 8 << 20;
        // Two writers to disjoint halves at t=0: second completion should
        // exceed a single writer's because the stripe sets overlap.
        let t1 = fs.write_at(&f, 0, &vec![0u8; chunk], 0.0).unwrap();
        let t2 = fs
            .write_at(&f, chunk as u64, &vec![1u8; chunk], 0.0)
            .unwrap();
        assert!(
            t2 > t1 * 1.5,
            "queued write t2={t2} should be well after t1={t1}"
        );
    }

    #[test]
    fn open_failure_injection() {
        let fs = Pfs::with_faults(
            MachineConfig::test_tiny(),
            FaultPlan::none().fail_open("h.dat"),
        );
        assert!(matches!(
            fs.open_or_create("h.dat", 0.0),
            Err(PfsError::OpenFailed(_))
        ));
        assert!(fs.open_or_create("ok.dat", 0.0).is_ok());
    }

    #[test]
    fn truncation_injection_shortens_reads() {
        let fs = Pfs::with_faults(
            MachineConfig::test_tiny(),
            FaultPlan::none().truncate("t.dat", 2),
        );
        let (f, t) = fs.open_or_create("t.dat", 0.0).unwrap();
        fs.write_at(&f, 0, b"abcdef", t).unwrap();
        let mut buf = [0u8; 6];
        let (n, _) = fs.read_at(&f, 0, &mut buf, 0.0).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fs.file_len("t.dat").unwrap(), 2);
    }

    #[test]
    fn corruption_injection_flips_first_byte() {
        let fs = Pfs::with_faults(
            MachineConfig::test_tiny(),
            FaultPlan::none().corrupt_first_byte("c.dat"),
        );
        let (f, t) = fs.open_or_create("c.dat", 0.0).unwrap();
        fs.write_at(&f, 0, b"abc", t).unwrap();
        let mut buf = [0u8; 3];
        fs.read_exact_at(&f, 0, &mut buf, 0.0).unwrap();
        assert_eq!(buf[0], !b'a');
        assert_eq!(&buf[1..], b"bc");
    }

    #[test]
    fn async_write_returns_early_to_caller() {
        let fs = Pfs::new(MachineConfig::origin2000());
        let (f, _) = fs.open_or_create("h.dat", 0.0).unwrap();
        let (caller, done) = fs.write_at_async(&f, 0, &vec![0u8; 32 << 20], 0.0).unwrap();
        assert!(
            caller < done,
            "caller time {caller} should precede background completion {done}"
        );
        // Data is still durable.
        let mut b = [9u8; 1];
        let (n, _) = fs.read_at(&f, 0, &mut b, 0.0).unwrap();
        assert_eq!((n, b[0]), (1, 0));
    }

    #[test]
    fn drained_at_is_the_last_background_completion() {
        let fs = Pfs::new(MachineConfig::origin2000());
        assert_eq!(fs.drained_at(), 0.0);
        let (f, _) = fs.open_or_create("d.dat", 0.0).unwrap();
        let (_, small) = fs.write_at_async(&f, 0, &[0u8; 1024], 0.0).unwrap();
        let (_, big) = fs
            .write_at_async(&f, 65536, &vec![0u8; 1 << 20], 0.0)
            .unwrap();
        assert!(small < big);
        assert_eq!(fs.drained_at(), big);
    }

    #[test]
    fn counters_track_traffic() {
        let fs = fs();
        let (f, t) = fs.open_or_create("k.dat", 0.0).unwrap();
        fs.write_at(&f, 0, b"12345", t).unwrap();
        let mut b = [0u8; 5];
        fs.read_at(&f, 0, &mut b, 0.0).unwrap();
        assert_eq!(fs.counters().get("pfs.write_bytes"), 5);
        assert_eq!(fs.counters().get("pfs.read_bytes"), 5);
        assert_eq!(fs.counters().get("pfs.opens"), 1);
    }

    #[test]
    fn serialized_opens_queue_at_metadata_service() {
        let cfg = MachineConfig::origin2000();
        let open_cost = cfg.io.open_cost;
        let fs = Pfs::new(cfg);
        let (_, t1) = fs.open_or_create("f1", 0.0).unwrap();
        let (_, t2) = fs.open_or_create("f2", 0.0).unwrap();
        assert!((t1 - open_cost).abs() < 1e-9);
        assert!(
            (t2 - 2.0 * open_cost).abs() < 1e-9,
            "second open must queue: {t2}"
        );
    }
}
