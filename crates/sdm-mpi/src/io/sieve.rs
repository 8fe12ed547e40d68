//! Data sieving for independent noncontiguous I/O.
//!
//! ROMIO's trick for noncontiguous *independent* access: instead of one
//! small request per segment, read the whole covering extent in one large
//! request and pick out the useful bytes (for writes: read-modify-write).
//! Profitable when the useful-byte density is high enough and the extent
//! fits the sieve buffer; otherwise fall back to per-segment requests.

use std::sync::Arc;

use sdm_pfs::{Pfs, PfsFile, PfsResult};
use sdm_sim::Seconds;

use crate::io::hints::Hints;

/// Group consecutive segments so each group's covering extent fits the
/// sieve buffer. Returns index ranges into `segs`.
fn group_by_extent(segs: &[(u64, u64)], max_extent: u64) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < segs.len() {
        let lo = segs[start].0;
        let mut end = start + 1;
        while end < segs.len() && segs[end].0 + segs[end].1 - lo <= max_extent {
            end += 1;
        }
        groups.push(start..end);
        start = end;
    }
    groups
}

/// Useful-byte density of a segment group.
fn density(segs: &[(u64, u64)]) -> f64 {
    let useful: u64 = segs.iter().map(|&(_, l)| l).sum();
    let span = segs.last().map_or(0, |&(o, l)| o + l) - segs.first().map_or(0, |&(o, _)| o);
    if span == 0 {
        1.0
    } else {
        useful as f64 / span as f64
    }
}

/// The covering extent `[lo, hi)` of a group worth sieving: more than one
/// segment, dense enough for the hints; `None` sends the group through
/// one access per segment.
fn sieve_extent(group: &[(u64, u64)], hints: &Hints) -> Option<(u64, u64)> {
    match group {
        [first, .., last] if density(group) >= hints.sieve_min_density => {
            Some((first.0, last.0 + last.1))
        }
        _ => None,
    }
}

/// Noncontiguous read of `segs` (absolute file segments, in order) into
/// the contiguous `buf` (which must be exactly as long as the summed
/// segment lengths). Returns the completion time.
pub fn sieved_read(
    pfs: &Arc<Pfs>,
    file: &PfsFile,
    segs: &[(u64, u64)],
    buf: &mut [u8],
    hints: &Hints,
    now: Seconds,
) -> PfsResult<Seconds> {
    debug_assert_eq!(
        segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
        buf.len()
    );
    let mut t = now;
    let mut cursor = 0usize;
    for range in group_by_extent(segs, hints.sieve_buffer_size as u64) {
        let group = &segs[range];
        let useful: usize = group.iter().map(|&(_, l)| l as usize).sum();
        if let Some((lo, hi)) = sieve_extent(group, hints) {
            // Sieve: one large read of the covering extent.
            let mut staging = vec![0u8; (hi - lo) as usize];
            t = pfs.read_exact_at(file, lo, &mut staging, t)?;
            for &(off, len) in group {
                let s = (off - lo) as usize;
                buf[cursor..cursor + len as usize].copy_from_slice(&staging[s..s + len as usize]);
                cursor += len as usize;
            }
            t += pfs.config().io.client_copy(useful);
            pfs.counters().incr("mpi.sieve_reads");
        } else {
            // Direct per-segment reads.
            for &(off, len) in group {
                t = pfs.read_exact_at(file, off, &mut buf[cursor..cursor + len as usize], t)?;
                cursor += len as usize;
            }
        }
    }
    Ok(t)
}

/// Noncontiguous write of the contiguous `data` to `segs` (absolute file
/// segments, in order). Uses read-modify-write over covering extents when
/// dense. Returns the completion time.
///
/// Note: like ROMIO without file locking, concurrent sieved writes to
/// overlapping extents are not atomic; SDM only issues non-overlapping
/// independent writes.
pub fn sieved_write(
    pfs: &Arc<Pfs>,
    file: &PfsFile,
    segs: &[(u64, u64)],
    data: &[u8],
    hints: &Hints,
    now: Seconds,
) -> PfsResult<Seconds> {
    debug_assert_eq!(
        segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
        data.len()
    );
    let mut t = now;
    let mut cursor = 0usize;
    for range in group_by_extent(segs, hints.sieve_buffer_size as u64) {
        let group = &segs[range];
        if let Some((lo, hi)) = sieve_extent(group, hints) {
            let mut staging = vec![0u8; (hi - lo) as usize];
            // Read-modify-write: fetch existing bytes for the holes (the
            // file may be shorter than the extent; short reads are fine —
            // the tail is zeros, matching write-extension semantics).
            let (_n, rt) = pfs.read_at(file, lo, &mut staging, t)?;
            t = rt;
            for &(off, len) in group {
                let s = (off - lo) as usize;
                staging[s..s + len as usize].copy_from_slice(&data[cursor..cursor + len as usize]);
                cursor += len as usize;
            }
            t = pfs.write_at(file, lo, &staging, t)?;
            pfs.counters().incr("mpi.sieve_writes");
        } else {
            for &(off, len) in group {
                t = pfs.write_at(file, off, &data[cursor..cursor + len as usize], t)?;
                cursor += len as usize;
            }
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_sim::MachineConfig;

    fn setup() -> (Arc<Pfs>, PfsFile) {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let (f, _) = pfs.open_or_create("sieve.dat", 0.0).unwrap();
        (pfs, f)
    }

    #[test]
    fn group_by_extent_respects_limit() {
        let segs = vec![(0u64, 10u64), (20, 10), (100, 10), (120, 10)];
        let groups = group_by_extent(&segs, 64);
        assert_eq!(groups, vec![0..2, 2..4]);
        let one = group_by_extent(&segs, 1000);
        assert_eq!(one, vec![0..4]);
    }

    #[test]
    fn density_of_dense_and_sparse() {
        assert!((density(&[(0, 10), (10, 10)]) - 1.0).abs() < 1e-12);
        assert!(density(&[(0, 1), (99, 1)]) < 0.03);
    }

    #[test]
    fn sieved_write_then_read_round_trip() {
        let (pfs, f) = setup();
        // Preexisting content to verify RMW preserves holes.
        pfs.write_at(&f, 0, &[9u8; 64], 0.0).unwrap();
        let segs = vec![(4u64, 4u64), (16, 8), (40, 4)];
        let data: Vec<u8> = (1..=16).collect();
        sieved_write(&pfs, &f, &segs, &data, &Hints::default(), 0.0).unwrap();
        let mut back = vec![0u8; 16];
        sieved_read(&pfs, &f, &segs, &mut back, &Hints::default(), 0.0).unwrap();
        assert_eq!(back, data);
        // Holes untouched.
        let mut hole = [0u8; 4];
        pfs.read_exact_at(&f, 8, &mut hole, 0.0).unwrap();
        assert_eq!(hole, [9; 4]);
    }

    #[test]
    fn sparse_segments_take_direct_path() {
        let (pfs, f) = setup();
        pfs.write_at(&f, 0, &vec![0u8; 100_000], 0.0).unwrap();
        let hints = Hints {
            sieve_min_density: 0.5,
            ..Default::default()
        };
        // Two 1-byte segments 50KB apart: density ~0, must go direct.
        let segs = vec![(0u64, 1u64), (50_000, 1)];
        sieved_write(&pfs, &f, &segs, &[7, 8], &hints, 0.0).unwrap();
        assert_eq!(pfs.counters().get("mpi.sieve_writes"), 0);
        let mut b = [0u8; 1];
        pfs.read_exact_at(&f, 50_000, &mut b, 0.0).unwrap();
        assert_eq!(b[0], 8);
    }

    #[test]
    fn dense_segments_use_sieve() {
        let (pfs, f) = setup();
        let segs: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 10, 8)).collect();
        let data = vec![1u8; 800];
        sieved_write(&pfs, &f, &segs, &data, &Hints::default(), 0.0).unwrap();
        assert!(pfs.counters().get("mpi.sieve_writes") >= 1);
        let mut back = vec![0u8; 800];
        sieved_read(&pfs, &f, &segs, &mut back, &Hints::default(), 0.0).unwrap();
        assert_eq!(back, data);
        assert!(pfs.counters().get("mpi.sieve_reads") >= 1);
    }

    #[test]
    fn sieve_beats_per_segment_in_virtual_time() {
        let cfg = MachineConfig::origin2000();
        let per_req = cfg.io.request_latency;
        let pfs = Pfs::new(cfg);
        let (f, _) = pfs.open_or_create("t.dat", 0.0).unwrap();
        pfs.write_at(&f, 0, &vec![0u8; 1 << 20], 0.0).unwrap();
        pfs.reset_timing();
        let segs: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 1000, 800)).collect();
        let mut buf = vec![0u8; 800_000];
        let sieved = sieved_read(&pfs, &f, &segs, &mut buf, &Hints::default(), 0.0).unwrap();
        pfs.reset_timing();
        let direct = sieved_read(
            &pfs,
            &f,
            &segs,
            &mut buf,
            &Hints {
                sieve_min_density: 2.0,
                ..Default::default()
            }, // force direct
            0.0,
        )
        .unwrap();
        assert!(
            sieved < direct / 5.0,
            "sieving ({sieved}s) should dodge ~1000 request latencies ({direct}s, {per_req}s each)"
        );
    }

    #[test]
    fn empty_request_is_noop() {
        let (pfs, f) = setup();
        let t = sieved_read(&pfs, &f, &[], &mut [], &Hints::default(), 5.0).unwrap();
        assert_eq!(t, 5.0);
    }
}
