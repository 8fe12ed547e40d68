//! Concurrent writers and a reader on one file image.
//!
//! Four threads write one file at the same time, each to its own
//! unaligned ranges: the ranges never overlap, but they cross the
//! image's 64 KiB extent boundaries and several writers share an
//! extent, so one grows an extent another has partly filled. A fifth
//! thread reads throughout. Every byte at position `p` is either still
//! zero or `pattern(p)`, so the reader can check whatever it sees
//! without knowing how far the writers got. Afterwards the file must
//! match a flat `Vec<u8>` byte for byte, and its length must be the
//! largest end written.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use sdm_pfs::{Pfs, PfsFile};
use sdm_sim::rng::SplitMix64;
use sdm_sim::MachineConfig;

const EXTENT: u64 = 64 * 1024;
const WRITERS: usize = 4;

/// The byte every writer stores at `pos`: never zero, so a reader can
/// tell a written byte from a hole.
fn pattern(pos: u64) -> u8 {
    (pos % 251) as u8 + 1
}

/// Cut `[0, total)` into unaligned ranges and deal them out to the
/// writers; about one range in eight is left a hole. Each writer's
/// list is shuffled, so extents fill out of order.
fn plan(rng: &mut SplitMix64, total: u64) -> Vec<Vec<(u64, u64)>> {
    let mut lists = vec![Vec::new(); WRITERS];
    let mut lo = 0;
    while lo < total {
        let len = match rng.next_below(4) {
            0 => 1 + rng.next_below(64),
            1 => 1 + rng.next_below(4096),
            2 => EXTENT - 100 + rng.next_below(200),
            _ => 1 + rng.next_below(3 * EXTENT),
        };
        let hi = (lo + len).min(total);
        if rng.next_below(8) != 0 {
            lists[rng.next_below(WRITERS as u64) as usize].push((lo, hi));
        }
        lo = hi;
    }
    for list in &mut lists {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }
    lists
}

/// Read the whole visible file and check every byte is a hole or the
/// pattern; returns the length seen.
fn check_snapshot(fs: &Pfs, f: &PfsFile) -> u64 {
    let len = f.len();
    let mut buf = vec![0u8; len as usize];
    let (n, _) = fs.read_at(f, 0, &mut buf, 0.0).unwrap();
    assert!(n as u64 >= len, "read {n} bytes of a {len}-byte file");
    for (p, &b) in buf.iter().enumerate() {
        assert!(
            b == 0 || b == pattern(p as u64),
            "byte {p} is {b}, neither a hole nor the pattern"
        );
    }
    len
}

#[test]
fn disjoint_writers_and_a_reader_match_a_flat_file() {
    let mut rng = SplitMix64::new(20010220);
    for round in 0..6 {
        let total = 9 * EXTENT + rng.next_below(EXTENT);
        let lists = plan(&mut rng, total);
        let fs = Pfs::new(MachineConfig::test_tiny());
        let (f, _) = fs.open_or_create("shared.dat", 0.0).unwrap();
        let done = AtomicBool::new(false);
        // All five threads start together, so the writes overlap.
        let start = Barrier::new(WRITERS + 1);
        let snapshots = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let mut last = 0;
                let mut snapshots = 0;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let len = check_snapshot(&fs, &f);
                    assert!(len >= last, "length shrank from {last} to {len}");
                    last = len;
                    snapshots += 1;
                    if finished {
                        return snapshots;
                    }
                }
            });
            let writers: Vec<_> = lists
                .iter()
                .map(|list| {
                    let (fs, f, start) = (&fs, &f, &start);
                    s.spawn(move || {
                        start.wait();
                        for &(lo, hi) in list {
                            let bytes: Vec<u8> = (lo..hi).map(pattern).collect();
                            fs.write_at(f, lo, &bytes, 0.0).unwrap();
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(snapshots >= 1, "round {round}: the reader never ran");

        let mut flat = vec![0u8; total as usize];
        let mut end = 0;
        for &(lo, hi) in lists.iter().flatten() {
            for p in lo..hi {
                flat[p as usize] = pattern(p);
            }
            end = end.max(hi);
        }
        flat.truncate(end as usize);
        assert_eq!(f.len(), end, "round {round}: length is not the largest end");
        let mut image = vec![0u8; end as usize];
        fs.read_exact_at(&f, 0, &mut image, 0.0).unwrap();
        assert!(
            image == flat,
            "round {round}: image differs from the flat file"
        );
    }
}
