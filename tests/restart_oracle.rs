//! Integration: restart on another process count. A run writes on P
//! ranks; a later job attaches to it on Q ≠ P ranks with a fresh
//! partition and reads every step back. The global arrays it reassembles
//! must be bit-identical to the ones written, at every file organization
//! and for P, Q ∈ {1, 2, 3, 4}, and a step never written is `NotWritten`
//! on every rank. Each side's map is ascending (its data moves in place)
//! or not (it is permuted), in both pairings. A step whose file has gone
//! is `NotFound` on every rank, and the read does not create the file; a
//! read refused before any byte moves leaves the caller's buffer as it
//! was.

use std::sync::Arc;

use sdm::core::{CachedStore, OrgLevel, Sdm, SdmConfig, SdmError};
use sdm::metadb::Database;
use sdm::mpi::{MpiError, World};
use sdm::pfs::{Pfs, PfsError};
use sdm::sim::MachineConfig;

/// No process count divides it: every partition is uneven.
const GLOBAL: u64 = 29;
const STEPS: i64 = 3;
const APP: &str = "restart";

fn pressure(g: u64, t: i64) -> f64 {
    ((g * 7 + 3) as f64).sqrt() * (t as f64 + 1.5) - g as f64
}

fn cell(g: u64, t: i64) -> i32 {
    (g as i32 * 31) ^ (t as i32 * 1_000_003)
}

fn config(org: OrgLevel) -> SdmConfig {
    SdmConfig {
        org,
        ..SdmConfig::default()
    }
}

/// A rank's map of the global array: which elements it holds, in its
/// local order.
type MapFn = fn(usize, usize) -> Vec<u64>;

/// A contiguous block per rank, listed backwards so the map is not in
/// file order.
fn block_map(rank: usize, size: usize) -> Vec<u64> {
    let chunk = GLOBAL.div_ceil(size as u64);
    let lo = (rank as u64 * chunk).min(GLOBAL);
    let hi = (lo + chunk).min(GLOBAL);
    (lo..hi).rev().collect()
}

/// Cyclic, ascending: the map is in file order.
fn cyclic_map(rank: usize, size: usize) -> Vec<u64> {
    (rank as u64..GLOBAL).step_by(size).collect()
}

/// Write `STEPS` steps of both datasets on `p` ranks, each holding the
/// elements `map` gives it; return the run id.
fn write_run(org: OrgLevel, p: usize, map: MapFn, pfs: &Arc<Pfs>, db: &Arc<Database>) -> i64 {
    let store = CachedStore::shared(db);
    World::run(p, MachineConfig::test_tiny(), |c| {
        let mut sdm = Sdm::initialize_with(c, pfs, &store, APP, config(org)).unwrap();
        let g = sdm
            .group(c)
            .dataset::<f64>("pressure", GLOBAL)
            .dataset::<i32>("cell", GLOBAL)
            .build()
            .unwrap();
        let (hp, hc) = (
            g.handle::<f64>("pressure").unwrap(),
            g.handle::<i32>("cell").unwrap(),
        );
        let map = map(c.rank(), c.size());
        sdm.set_view(c, hp, &map).unwrap();
        sdm.set_view(c, hc, &map).unwrap();
        for t in 0..STEPS {
            let ps: Vec<f64> = map.iter().map(|&g| pressure(g, t)).collect();
            let cs: Vec<i32> = map.iter().map(|&g| cell(g, t)).collect();
            let mut step = sdm.timestep(c, t);
            step.write(hp, &ps).unwrap();
            step.write(hc, &cs).unwrap();
            step.commit().unwrap();
        }
        let runid = sdm.runid();
        sdm.finalize(c).unwrap();
        runid
    })[0]
}

/// What one reader rank got: its map, per step its pressure and cell
/// values in map order, and whether the unwritten step was `NotWritten`.
type Readback = (Vec<u64>, Vec<Vec<f64>>, Vec<Vec<i32>>, bool);

/// Attach to `runid` on `q` ranks partitioned by `map` and read every
/// step back, then one step past the last.
fn read_back(
    org: OrgLevel,
    q: usize,
    map: MapFn,
    runid: i64,
    pfs: &Arc<Pfs>,
    db: &Arc<Database>,
) -> Vec<Readback> {
    let store = CachedStore::shared(db);
    World::run(q, MachineConfig::test_tiny(), |c| {
        let mut sdm = Sdm::attach(c, pfs, &store, APP, runid, config(org)).unwrap();
        let g = sdm
            .group(c)
            .dataset::<f64>("pressure", GLOBAL)
            .dataset::<i32>("cell", GLOBAL)
            .attach()
            .unwrap();
        let (hp, hc) = (
            g.handle::<f64>("pressure").unwrap(),
            g.handle::<i32>("cell").unwrap(),
        );
        let map = map(c.rank(), c.size());
        sdm.set_view(c, hp, &map).unwrap();
        sdm.set_view(c, hc, &map).unwrap();
        let (mut ps, mut cs) = (Vec::new(), Vec::new());
        for t in 0..STEPS {
            let mut p = vec![0.0f64; map.len()];
            let mut n = vec![0i32; map.len()];
            sdm.read_handle(c, hp, t, &mut p).unwrap();
            sdm.read_handle(c, hc, t, &mut n).unwrap();
            ps.push(p);
            cs.push(n);
        }
        let mut past = vec![0.0f64; map.len()];
        let unwritten = matches!(
            sdm.read_handle(c, hp, STEPS, &mut past),
            Err(SdmError::NotWritten {
                timestep: STEPS,
                ..
            })
        );
        sdm.finalize(c).unwrap();
        (map, ps, cs, unwritten)
    })
}

/// Write on every P and read back on every Q ≠ P, in 1..=4, at every
/// file organization: the writer partitioned by `writer`, the reader by
/// `reader`. The arrays the readers reassemble are bit-identical to the
/// ones written, and the step past the last is `NotWritten` everywhere.
fn restart_round_trips(writer: MapFn, reader: MapFn) {
    for org in OrgLevel::all() {
        for p in 1..=4 {
            let pfs = Pfs::new(MachineConfig::test_tiny());
            let db = Arc::new(Database::new());
            let runid = write_run(org, p, writer, &pfs, &db);
            for q in (1..=4).filter(|&q| q != p) {
                let ranks = read_back(org, q, reader, runid, &pfs, &db);
                let case = format!("{org:?}, written on {p}, read on {q}");
                let mut got_p = vec![vec![None; GLOBAL as usize]; STEPS as usize];
                let mut got_c = vec![vec![None; GLOBAL as usize]; STEPS as usize];
                for (rank, (map, ps, cs, unwritten)) in ranks.iter().enumerate() {
                    assert!(unwritten, "{case}: rank {rank} read an unwritten step");
                    for t in 0..STEPS as usize {
                        for (i, &g) in map.iter().enumerate() {
                            got_p[t][g as usize] = Some(ps[t][i].to_bits());
                            got_c[t][g as usize] = Some(cs[t][i]);
                        }
                    }
                }
                for t in 0..STEPS {
                    let want_p: Vec<_> = (0..GLOBAL)
                        .map(|g| Some(pressure(g, t).to_bits()))
                        .collect();
                    let want_c: Vec<_> = (0..GLOBAL).map(|g| Some(cell(g, t))).collect();
                    assert_eq!(got_p[t as usize], want_p, "{case}: pressure, step {t}");
                    assert_eq!(got_c[t as usize], want_c, "{case}: cell, step {t}");
                }
            }
        }
    }
}

/// The writer's map is permuted, the reader's ascending.
#[test]
fn restart_on_another_process_count_reads_back_bit_identical_arrays() {
    restart_round_trips(block_map, cyclic_map);
}

/// The writer's map is ascending (its buffers are staged as they are),
/// the reader's permuted (its read goes through a file-order buffer).
#[test]
fn restart_with_a_permuted_reader_map_reads_back_bit_identical_arrays() {
    restart_round_trips(cyclic_map, block_map);
}

/// A read of a step whose file was deleted fails on every rank with the
/// file system's `NotFound`, and leaves no file at that path: the read
/// opens without creating.
#[test]
fn a_read_of_a_deleted_file_fails_every_rank_and_creates_nothing() {
    for org in OrgLevel::all() {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let db = Arc::new(Database::new());
        let runid = write_run(org, 2, block_map, &pfs, &db);
        let file = org.file_name(APP, 0, "pressure", 0);
        pfs.delete(&file, 0.0).unwrap();
        let store = CachedStore::shared(&db);
        let got = World::run(2, MachineConfig::test_tiny(), |c| {
            let mut sdm = Sdm::attach(c, &pfs, &store, APP, runid, config(org)).unwrap();
            let g = sdm
                .group(c)
                .dataset::<f64>("pressure", GLOBAL)
                .dataset::<i32>("cell", GLOBAL)
                .attach()
                .unwrap();
            let hp = g.handle::<f64>("pressure").unwrap();
            let map = cyclic_map(c.rank(), c.size());
            sdm.set_view(c, hp, &map).unwrap();
            let mut p = vec![0.0f64; map.len()];
            sdm.read_handle(c, hp, 0, &mut p)
        });
        for (rank, r) in got.iter().enumerate() {
            assert!(
                matches!(r, Err(SdmError::Mpi(MpiError::Pfs(PfsError::NotFound(n)))) if *n == file),
                "{org:?}: rank {rank} read a deleted file: {r:?}"
            );
        }
        assert!(!pfs.exists(&file), "{org:?}: the read created {file}");
    }
}

/// A read refused before any byte moves leaves `out` as it was: a step
/// never written (`NotWritten`) and an `out` one element too long
/// (`Usage`), under an ascending view and a permuted one, at every file
/// organization.
#[test]
fn a_refused_read_leaves_the_buffer_untouched() {
    const SENTINEL: f64 = -1234.5;
    for org in OrgLevel::all() {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let db = Arc::new(Database::new());
        let runid = write_run(org, 2, block_map, &pfs, &db);
        let store = CachedStore::shared(&db);
        for map in [cyclic_map as MapFn, block_map] {
            let got = World::run(3, MachineConfig::test_tiny(), |c| {
                let mut sdm = Sdm::attach(c, &pfs, &store, APP, runid, config(org)).unwrap();
                let g = sdm
                    .group(c)
                    .dataset::<f64>("pressure", GLOBAL)
                    .dataset::<i32>("cell", GLOBAL)
                    .attach()
                    .unwrap();
                let hp = g.handle::<f64>("pressure").unwrap();
                let map = map(c.rank(), c.size());
                sdm.set_view(c, hp, &map).unwrap();
                let mut out = vec![SENTINEL; map.len() + 1];
                let unwritten = sdm.read_handle(c, hp, STEPS, &mut out[..map.len()]);
                let too_long = sdm.read_handle(c, hp, 0, &mut out);
                sdm.finalize(c).unwrap();
                (unwritten, too_long, out)
            });
            for (rank, (unwritten, too_long, out)) in got.iter().enumerate() {
                assert!(
                    matches!(
                        unwritten,
                        Err(SdmError::NotWritten {
                            timestep: STEPS,
                            ..
                        })
                    ),
                    "{org:?}: rank {rank}: {unwritten:?}"
                );
                assert!(
                    matches!(too_long, Err(SdmError::Usage(_))),
                    "{org:?}: rank {rank}: {too_long:?}"
                );
                assert!(
                    out.iter().all(|x| x.to_bits() == SENTINEL.to_bits()),
                    "{org:?}: rank {rank}: a refused read wrote {out:?}"
                );
            }
        }
    }
}
