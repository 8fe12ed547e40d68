//! Two-phase collective I/O (ROMIO's generalized collective
//! read/write), the optimization the paper's results rest on, run as a
//! round-based, double-buffered pipeline.
//!
//! **Plan.** The ranks agree on the global byte range with one fused
//! reduction and split it into contiguous *file domains*, one per
//! aggregator. Each aggregator walks its domain in *rounds* of one PFS
//! stripe cycle (`stripe_size × io_servers`, so every request loads every
//! server equally), capped at `cb_buffer_size / 2`. The number of rounds
//! follows from the range, the aggregator count and the round size, so
//! every rank knows it without asking. One pass over a rank's segments
//! yields, per aggregator, the clipped `(offset, length, position in the
//! caller's buffer)` pieces; they are exchanged **once**, as descriptors,
//! and both sides walk them window by window from then on, so the later
//! messages carry payload only.
//!
//! **Write.** Round *r*: the ranks exchange the payload of every
//! aggregator's window *r* (round 0 also carries the descriptors); the
//! aggregator lays the pieces into one half of its staging buffer — its
//! own straight from the caller's buffer, the others' from the wire, in
//! rank order so that the higher rank wins where writers overlap — and
//! hands the half to the servers with a nonblocking write. While the
//! servers work on it, round *r + 1* is exchanged and staged in the other
//! half. **At most two writes are in flight:** before a half is reused,
//! the aggregator waits for the write issued from it two rounds earlier;
//! all of them are drained before the closing barrier. A window the
//! pieces do not cover completely is read first (read-modify-write);
//! coverage is the *union* of the pieces, so overlapping writers cannot
//! hide a hole.
//!
//! **Read.** The mirror image with read-ahead: the aggregator issues the
//! read of window *r + 1* into the free half before it waits for window
//! *r*, extracts each requester's bytes and replies; requesters scatter
//! each round's reply straight into their buffer.
//!
//! **Cost.** Nothing is un-charged: every PFS transfer pays the client
//! copy and each server's service time (with its per-request latency, so
//! more, smaller requests cost more of it), a rank's own contribution
//! pays the client copy, remote bytes pay injection and wire time. Only
//! the *overlap* is new — client-side work of round *r + 1* proceeds
//! while the FIFO server queues work on round *r* — so a collective that
//! fits in one round costs what the serial schedule cost.

use sdm_sim::Seconds;

use crate::comm::Comm;
use crate::error::{MpiError, MpiResult};
use crate::io::MpiFile;
use crate::pod::{as_bytes, as_bytes_mut, Pod};

/// Stripe cycles an aggregator moves per round, fixed by measurement
/// (`bench_e2e`, 2 ranks, `origin2000`): one cycle gave `rt_write`
/// the highest simulated bandwidth; with two and four the per-request
/// latency saved is worth less than the overlap lost to fewer, longer
/// rounds (CHANGES.md, PR 13).
const ROUND_CYCLES: u64 = 1;

/// One piece of a rank's request, clipped to one aggregator's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    /// Absolute file offset.
    off: u64,
    len: u64,
    /// Where the piece starts in the requesting rank's buffer. Zero in
    /// descriptors received from another rank: its bytes travel in
    /// piece order, so the aggregator takes them as they come.
    pos: u64,
}

/// How one collective divides the global byte range `[gmin, gmin + total)`
/// into per-aggregator domains and per-round windows.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    gmin: u64,
    total: u64,
    naggs: usize,
    /// Bytes per file domain (the last domains may be shorter or empty).
    share: u64,
    /// Bytes an aggregator moves per round.
    round: u64,
    /// Rounds the longest domain takes; every rank runs this many.
    nrounds: u64,
}

impl Schedule {
    fn new(gmin: u64, gmax: u64, naggs: usize, round: u64) -> Self {
        let total = gmax - gmin;
        let share = total.div_ceil(naggs as u64).max(1);
        Self {
            gmin,
            total,
            naggs,
            share,
            round,
            nrounds: share.div_ceil(round),
        }
    }

    /// File domain of aggregator `d`.
    fn domain(&self, d: usize) -> (u64, u64) {
        let lo = (d as u64 * self.share).min(self.total);
        let hi = ((d as u64 + 1) * self.share).min(self.total);
        (self.gmin + lo, self.gmin + hi)
    }

    /// The part of aggregator `d`'s domain it moves in round `r`
    /// (empty once the domain is exhausted).
    fn window(&self, d: usize, r: u64) -> (u64, u64) {
        let (dlo, dhi) = self.domain(d);
        (
            (dlo + r * self.round).min(dhi),
            (dlo + (r + 1) * self.round).min(dhi),
        )
    }

    /// The one planning pass: split a rank's segments (ascending and
    /// disjoint, as a file view yields them) by aggregator domain.
    fn plan(&self, segs: &[(u64, u64)]) -> Vec<Vec<Piece>> {
        debug_assert!(
            segs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "collective I/O needs ascending, disjoint segments"
        );
        let mut per_agg: Vec<Vec<Piece>> = vec![Vec::new(); self.naggs];
        let mut pos = 0u64;
        for &(off, len) in segs {
            let end = off + len;
            let mut cur = off;
            while cur < end {
                let d = ((cur - self.gmin) / self.share) as usize;
                let upto = end.min(self.domain(d).1);
                per_agg[d].push(Piece {
                    off: cur,
                    len: upto - cur,
                    pos: pos + (cur - off),
                });
                cur = upto;
            }
            pos += len;
        }
        per_agg
    }
}

/// Visit the parts of `pieces[*cur..]` that lie in the window
/// `[wlo, whi)`, in order, as `(file offset, length, buffer position)`.
/// Windows are walked in ascending order; `*cur` is left at the first
/// piece that reaches past `whi` (it continues in the next window).
fn walk_window(
    pieces: &[Piece],
    cur: &mut usize,
    wlo: u64,
    whi: u64,
    mut visit: impl FnMut(u64, usize, usize),
) {
    while let Some(p) = pieces.get(*cur).filter(|p| p.off < whi) {
        let lo = p.off.max(wlo);
        let hi = (p.off + p.len).min(whi);
        visit(lo, (hi - lo) as usize, (p.pos + (lo - p.off)) as usize);
        if p.off + p.len > whi {
            break;
        }
        *cur += 1;
    }
}

/// Bytes `pieces[cur..]` have in the window `[wlo, whi)`.
fn window_bytes(pieces: &[Piece], mut cur: usize, wlo: u64, whi: u64) -> usize {
    let mut n = 0;
    walk_window(pieces, &mut cur, wlo, whi, |_, len, _| n += len);
    n
}

/// Encoded length of the descriptors of `n` pieces.
fn header_len(n: usize) -> usize {
    8 + n * 16
}

/// Append the descriptors of `pieces`: a count, then `(offset, length)`
/// pairs.
fn push_header(msg: &mut Vec<u8>, pieces: &[Piece]) {
    msg.extend_from_slice(&(pieces.len() as u64).to_ne_bytes());
    for p in pieces {
        msg.extend_from_slice(&p.off.to_ne_bytes());
        msg.extend_from_slice(&p.len.to_ne_bytes());
    }
}

/// Decode the descriptors at the front of `bytes` and return them with
/// their encoded length. An empty message holds none.
fn decode_header(bytes: &[u8]) -> MpiResult<(Vec<Piece>, usize)> {
    if bytes.is_empty() {
        return Ok((Vec::new(), 0));
    }
    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
    let short = |expected: usize| MpiError::LengthMismatch {
        expected,
        got: bytes.len(),
    };
    let count = bytes.get(..8).map(word).ok_or_else(|| short(8))? as usize;
    let body = count
        .checked_mul(16)
        .and_then(|n| bytes.get(8..8 + n))
        .ok_or_else(|| short(header_len(count)))?;
    let pieces = body
        .chunks_exact(16)
        .map(|c| Piece {
            off: word(&c[..8]),
            len: word(&c[8..]),
            pos: 0,
        })
        .collect();
    Ok((pieces, header_len(count)))
}

/// An aggregator's side of one collective: who wants which bytes of its
/// domain, and the two staging halves they move through.
struct Aggregator {
    rank: usize,
    /// Descriptors by source rank, each ascending. This rank's own are
    /// its plan for itself and never travel.
    pieces: Vec<Vec<Piece>>,
    /// Walk cursor into each source's descriptors.
    cur: Vec<usize>,
    /// Union of all descriptors: disjoint, non-adjacent `[lo, hi)`
    /// intervals, ascending.
    cover: Vec<(u64, u64)>,
    cover_cur: usize,
    /// Sized once per collective for the even and the odd rounds; together
    /// at most `cb_buffer_size`.
    staging: [Vec<u8>; 2],
}

impl Aggregator {
    fn new(size: usize, rank: usize, own: Vec<Piece>) -> Self {
        let mut pieces = vec![Vec::new(); size];
        pieces[rank] = own;
        Self {
            rank,
            pieces,
            cur: vec![0; size],
            cover: Vec::new(),
            cover_cur: 0,
            staging: [Vec::new(), Vec::new()],
        }
    }

    /// Take in the descriptors at the front of every other rank's
    /// message, then size the staging halves. Returns the descriptors'
    /// encoded length per source (what precedes any payload).
    fn learn(&mut self, received: &[Vec<u8>], sched: &Schedule) -> MpiResult<Vec<usize>> {
        let mut header = vec![0; received.len()];
        for (src, msg) in received.iter().enumerate() {
            if src != self.rank {
                (self.pieces[src], header[src]) = decode_header(msg)?;
            }
        }
        self.cover = (self.pieces.iter().flatten())
            .map(|p| (p.off, p.off + p.len))
            .collect();
        // Stable sort: the input is one ascending run per source, which
        // it merges instead of sorting from scratch.
        self.cover.sort();
        self.cover.dedup_by(|next, kept| {
            let joins = next.0 <= kept.1;
            if joins {
                kept.1 = kept.1.max(next.1);
            }
            joins
        });
        for (half, buf) in self.staging.iter_mut().enumerate() {
            // Rounds 0 and 1 have the longest windows of their parity.
            let (wlo, whi) = sched.window(self.rank, half as u64);
            *buf = vec![0; (whi - wlo) as usize];
        }
        Ok(header)
    }

    /// The span of the window `[wlo, whi)` the descriptors touch, and
    /// whether they leave holes inside it; `None` if they touch nothing.
    /// Windows are asked for in ascending order.
    fn touched(&mut self, wlo: u64, whi: u64) -> Option<(u64, u64, bool)> {
        while self.cover.get(self.cover_cur).is_some_and(|c| c.1 <= wlo) {
            self.cover_cur += 1;
        }
        let inside = |c: &&(u64, u64)| c.0 < whi;
        let first = self.cover.get(self.cover_cur).filter(inside)?;
        let (lo, mut hi) = (first.0.max(wlo), first.1.min(whi));
        let mut holes = false;
        // The last interval may reach into the next window: stay on it.
        while let Some(next) = self.cover.get(self.cover_cur + 1).filter(inside) {
            self.cover_cur += 1;
            hi = next.1.min(whi);
            holes = true;
        }
        Some((lo, hi, holes))
    }
}

impl MpiFile {
    /// Collective write through the view: every rank of the communicator
    /// must call this ("collective" in the MPI sense). `view_off` is the
    /// rank's starting position in visible bytes; ranks may pass
    /// different offsets and lengths, including empty.
    pub fn write_all<T: Pod>(&self, comm: &mut Comm, view_off: u64, data: &[T]) -> MpiResult<()> {
        let bytes = as_bytes(data);
        let my_segs = self.view().segments(view_off, bytes.len() as u64);
        self.two_phase_write(comm, &my_segs, bytes)
    }

    /// Collective read through the view (counterpart of
    /// [`MpiFile::write_all`]). Fails if any requested byte lies past EOF.
    pub fn read_all<T: Pod>(&self, comm: &mut Comm, view_off: u64, buf: &mut [T]) -> MpiResult<()> {
        let nbytes = std::mem::size_of_val(buf) as u64;
        let my_segs = self.view().segments(view_off, nbytes);
        let bytes = as_bytes_mut(buf);
        self.two_phase_read(comm, &my_segs, bytes)
    }

    /// Collective write of explicit absolute segments, ascending and
    /// disjoint (used by SDM's import path where the segment list is
    /// already computed).
    pub fn write_all_segments(
        &self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        data: &[u8],
    ) -> MpiResult<()> {
        self.two_phase_write(comm, segs, data)
    }

    /// Collective read of explicit absolute segments, ascending and
    /// disjoint.
    pub fn read_all_segments(
        &self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        buf: &mut [u8],
    ) -> MpiResult<()> {
        self.two_phase_read(comm, segs, buf)
    }

    /// Global byte range of all ranks' requests; `None` if all are empty.
    fn global_range(&self, comm: &mut Comm, segs: &[(u64, u64)]) -> Option<(u64, u64)> {
        let lo = segs.first().map_or(u64::MAX, |&(o, _)| o);
        let hi = segs.last().map_or(0, |&(o, l)| o + l);
        // One reduction for both ends: the minimum of `MAX - hi` is the
        // maximum of `hi`.
        let ends = comm.allreduce_min(&[lo, u64::MAX - hi]);
        let (gmin, gmax) = (ends[0], u64::MAX - ends[1]);
        (gmin < gmax).then_some((gmin, gmax))
    }

    /// Agree on the schedule of one collective; `None` if no rank
    /// requests anything.
    fn schedule(&self, comm: &mut Comm, segs: &[(u64, u64)]) -> Option<Schedule> {
        let (gmin, gmax) = self.global_range(comm, segs)?;
        let cfg = self.pfs().config();
        let cycle = (cfg.stripe_size * cfg.io_servers) as u64;
        // Two halves of at most `cb_buffer_size / 2` (and at least a byte,
        // or nothing would move).
        let half = (self.hints().cb_buffer_size as u64 / 2).max(1);
        let naggs = self.hints().aggregators(comm.size());
        Some(Schedule::new(
            gmin,
            gmax,
            naggs,
            (ROUND_CYCLES * cycle).min(half),
        ))
    }

    fn two_phase_write(&self, comm: &mut Comm, segs: &[(u64, u64)], data: &[u8]) -> MpiResult<()> {
        debug_assert_eq!(
            segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
            data.len()
        );
        let Some(sched) = self.schedule(comm, segs) else {
            comm.barrier();
            return Ok(());
        };
        let (rank, size) = (comm.rank(), comm.size());
        let mut plan = sched.plan(segs);
        let mut agg = (rank < sched.naggs)
            .then(|| Aggregator::new(size, rank, std::mem::take(&mut plan[rank])));
        let mut send_cur = vec![0usize; sched.naggs];
        // Descriptor bytes ahead of each source's payload (round 0 only).
        let mut header = vec![0usize; size];
        // When the write last issued from each staging half completes.
        let mut in_flight: [Seconds; 2] = [0.0; 2];

        for r in 0..sched.nrounds {
            let half = (r % 2) as usize;
            if let Some(agg) = &agg {
                // Two in flight at most: the half is free once the write
                // issued from it two rounds ago is done.
                comm.sync_to(in_flight[half]);
                // Own pieces go from the caller's buffer straight into
                // staging; that copy is charged here, ahead of the
                // exchange, where the self block of the exchange paid it.
                let (wlo, whi) = sched.window(rank, r);
                let own = window_bytes(&agg.pieces[rank], agg.cur[rank], wlo, whi);
                let copy = comm.config().io.client_copy(own);
                comm.compute(copy);
            }

            let mut msgs: Vec<Vec<u8>> = vec![Vec::new(); size];
            for (d, pieces) in plan.iter().enumerate() {
                if pieces.is_empty() {
                    continue;
                }
                let (wlo, whi) = sched.window(d, r);
                let payload = window_bytes(pieces, send_cur[d], wlo, whi);
                let msg = &mut msgs[d];
                if r == 0 {
                    msg.reserve_exact(header_len(pieces.len()) + payload);
                    push_header(msg, pieces);
                } else {
                    msg.reserve_exact(payload);
                }
                walk_window(pieces, &mut send_cur[d], wlo, whi, |_, len, pos| {
                    msg.extend_from_slice(&data[pos..pos + len]);
                });
            }
            let received = comm.alltoallv_bytes(msgs)?;

            let Some(agg) = &mut agg else { continue };
            if r == 0 {
                header = agg.learn(&received, &sched)?;
            }
            let (wlo, whi) = sched.window(rank, r);
            if let Some((lo, hi, holes)) = agg.touched(wlo, whi) {
                let span = &mut agg.staging[half][..(hi - lo) as usize];
                if holes {
                    // Read-modify-write; what lies past EOF reads as zeros.
                    let (n, t) = self.pfs().read_at(self.pfs_file(), lo, span, comm.now())?;
                    span[n..].fill(0);
                    comm.sync_to(t);
                    self.pfs().counters().incr("mpi.twophase_rmw");
                }
                // Sources in rank order: where writers overlap, the
                // higher rank wins.
                for (src, msg) in received.iter().enumerate() {
                    let (pieces, cur) = (&agg.pieces[src], &mut agg.cur[src]);
                    let mut at = header[src];
                    walk_window(pieces, cur, wlo, whi, |off, len, pos| {
                        let from = if src == rank {
                            &data[pos..]
                        } else {
                            &msg[at..]
                        };
                        span[(off - lo) as usize..][..len].copy_from_slice(&from[..len]);
                        at += len;
                    });
                }
                let (caller, done) =
                    self.pfs()
                        .write_at_async(self.pfs_file(), lo, span, comm.now())?;
                comm.sync_to(caller);
                in_flight[half] = done;
            }
            header.fill(0);
        }

        if agg.is_some() {
            comm.sync_to(in_flight[0].max(in_flight[1]));
            comm.counters().incr("mpi.write_alls");
        }
        comm.barrier();
        Ok(())
    }

    /// Issue the read of the window `[wlo, whi)` into `staging` at `now`
    /// without waiting for it: returns where the staged bytes start in
    /// the file and when they will have arrived (`None`: nothing of the
    /// window is wanted).
    fn read_ahead(
        &self,
        agg: &mut Aggregator,
        (wlo, whi): (u64, u64),
        half: usize,
        now: Seconds,
    ) -> MpiResult<Option<(u64, Seconds)>> {
        let Some((lo, hi, _)) = agg.touched(wlo, whi) else {
            return Ok(None);
        };
        let span = &mut agg.staging[half][..(hi - lo) as usize];
        let ready = self.pfs().read_exact_at(self.pfs_file(), lo, span, now)?;
        Ok(Some((lo, ready)))
    }

    fn two_phase_read(
        &self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        buf: &mut [u8],
    ) -> MpiResult<()> {
        debug_assert_eq!(
            segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
            buf.len()
        );
        let Some(sched) = self.schedule(comm, segs) else {
            comm.barrier();
            return Ok(());
        };
        let (rank, size) = (comm.rank(), comm.size());
        let mut plan = sched.plan(segs);
        let mut agg = (rank < sched.naggs)
            .then(|| Aggregator::new(size, rank, std::mem::take(&mut plan[rank])));

        // Descriptors travel once, up front.
        let mut msgs: Vec<Vec<u8>> = vec![Vec::new(); size];
        for (d, pieces) in plan.iter().enumerate() {
            if !pieces.is_empty() {
                msgs[d].reserve_exact(header_len(pieces.len()));
                push_header(&mut msgs[d], pieces);
            }
        }
        let received = comm.alltoallv_bytes(msgs)?;

        // What each staging half holds: file offset of its first byte and
        // the time its read completes.
        let mut staged: [Option<(u64, Seconds)>; 2] = [None; 2];
        if let Some(agg) = &mut agg {
            agg.learn(&received, &sched)?;
            staged[0] = self.read_ahead(agg, sched.window(rank, 0), 0, comm.now())?;
        }
        drop(received);

        let mut reply_cur = vec![0usize; sched.naggs];
        for r in 0..sched.nrounds {
            let half = (r % 2) as usize;
            let mut replies: Vec<Vec<u8>> = vec![Vec::new(); size];
            if let Some(agg) = &mut agg {
                // Read-ahead: the next window is on its way to the other
                // half (whose replies went out last round) before this
                // one is waited for.
                if r + 1 < sched.nrounds {
                    let next = sched.window(rank, r + 1);
                    staged[1 - half] = self.read_ahead(agg, next, 1 - half, comm.now())?;
                }
                if let Some((lo, ready)) = staged[half] {
                    comm.sync_to(ready);
                    let (wlo, whi) = sched.window(rank, r);
                    let span = &agg.staging[half];
                    for (src, reply) in replies.iter_mut().enumerate() {
                        let (pieces, cur) = (&agg.pieces[src], &mut agg.cur[src]);
                        if src == rank {
                            // Own bytes go straight from staging into the
                            // caller's buffer, at the client-copy price the
                            // self block of the exchange paid.
                            let mut own = 0;
                            walk_window(pieces, cur, wlo, whi, |off, len, pos| {
                                buf[pos..pos + len]
                                    .copy_from_slice(&span[(off - lo) as usize..][..len]);
                                own += len;
                            });
                            let copy = comm.config().io.client_copy(own);
                            comm.compute(copy);
                        } else {
                            reply.reserve_exact(window_bytes(pieces, *cur, wlo, whi));
                            walk_window(pieces, cur, wlo, whi, |off, len, _| {
                                reply.extend_from_slice(&span[(off - lo) as usize..][..len]);
                            });
                        }
                    }
                }
            }
            let replies = comm.alltoallv_bytes(replies)?;
            for (d, pieces) in plan.iter().enumerate() {
                let (wlo, whi) = sched.window(d, r);
                let mut at = 0;
                walk_window(pieces, &mut reply_cur[d], wlo, whi, |_, len, pos| {
                    buf[pos..pos + len].copy_from_slice(&replies[d][at..at + len]);
                    at += len;
                });
            }
        }

        if agg.is_some() {
            comm.counters().incr("mpi.read_alls");
        }
        comm.barrier();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use crate::datatype::Datatype;
    use sdm_pfs::Pfs;
    use sdm_sim::MachineConfig;
    use std::sync::Arc;

    fn tiny_pfs() -> Arc<Pfs> {
        Pfs::new(MachineConfig::test_tiny())
    }

    /// Each rank writes an interleaved view; reading back the whole file
    /// must reproduce the interleaving.
    #[test]
    fn collective_interleaved_write() {
        let pfs = tiny_pfs();
        let n = 4usize;
        World::run(n, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "inter.bin", true).unwrap();
                // Rank r owns element r of every 4-element f64 record.
                let t = Datatype::resized(
                    (n * 8) as u64,
                    Datatype::indexed_block(1, vec![c.rank() as u64], Datatype::double()),
                );
                f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                let mine: Vec<f64> = (0..8).map(|i| (c.rank() * 100 + i) as f64).collect();
                f.write_all(c, 0, &mine).unwrap();
                f.close(c);
            }
        });
        // Validate the raw file layout.
        let (f, _) = pfs.open("inter.bin", 0.0).unwrap();
        let mut raw = vec![0u8; 4 * 8 * 8];
        pfs.read_exact_at(&f, 0, &mut raw, 0.0).unwrap();
        let vals: Vec<f64> = crate::pod::vec_from_bytes(&raw);
        for rec in 0..8 {
            for r in 0..4 {
                assert_eq!(vals[rec * 4 + r], (r * 100 + rec) as f64, "rec={rec} r={r}");
            }
        }
    }

    #[test]
    fn collective_read_matches_written() {
        let pfs = tiny_pfs();
        let n = 4usize;
        let out = World::run(n, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "rr.bin", true).unwrap();
                if c.rank() == 0 {
                    let all: Vec<u64> = (0..64).collect();
                    f.write_at(c, 0, &all).unwrap();
                }
                c.barrier();
                // Rank r reads elements r, r+4, r+8, ... (strided view).
                let t = Datatype::resized(
                    (n * 8) as u64,
                    Datatype::indexed_block(1, vec![c.rank() as u64], Datatype::int64()),
                );
                f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                let mut mine = vec![0u64; 16];
                f.read_all(c, 0, &mut mine).unwrap();
                f.close(c);
                mine
            }
        });
        for (r, v) in out.iter().enumerate() {
            let want: Vec<u64> = (0..16).map(|i| (i * 4 + r) as u64).collect();
            assert_eq!(v, &want, "rank {r}");
        }
    }

    #[test]
    fn empty_participants_are_fine() {
        let pfs = tiny_pfs();
        World::run(3, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "e.bin", true).unwrap();
                // Only rank 1 writes anything.
                if c.rank() == 1 {
                    f.write_all_segments(c, &[(8, 8)], &7u64.to_ne_bytes())
                        .unwrap();
                } else {
                    f.write_all_segments(c, &[], &[]).unwrap();
                }
                let mut back = [0u64; 1];
                if c.rank() == 2 {
                    f.read_all_segments(c, &[(8, 8)], as_bytes_mut(&mut back))
                        .unwrap();
                    assert_eq!(back[0], 7);
                } else {
                    f.read_all_segments(c, &[], &mut []).unwrap();
                }
                f.close(c);
            }
        });
    }

    #[test]
    fn all_empty_collective_is_noop() {
        let pfs = tiny_pfs();
        World::run(2, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "z.bin", true).unwrap();
                f.write_all_segments(c, &[], &[]).unwrap();
                f.read_all_segments(c, &[], &mut []).unwrap();
                f.close(c);
            }
        });
    }

    #[test]
    fn rmw_preserves_untouched_bytes() {
        let pfs = tiny_pfs();
        World::run(2, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "rmw.bin", true).unwrap();
                if c.rank() == 0 {
                    f.write_at(c, 0, &[0xAAu8; 64]).unwrap();
                }
                c.barrier();
                // Sparse collective write leaving holes.
                if c.rank() == 0 {
                    f.write_all_segments(c, &[(4, 4)], &[1, 2, 3, 4]).unwrap();
                } else {
                    f.write_all_segments(c, &[(40, 4)], &[5, 6, 7, 8]).unwrap();
                }
                c.barrier();
                let mut raw = vec![0u8; 64];
                f.read_at(c, 0, &mut raw).unwrap();
                assert_eq!(&raw[4..8], &[1, 2, 3, 4]);
                assert_eq!(&raw[40..44], &[5, 6, 7, 8]);
                assert_eq!(raw[0], 0xAA);
                assert_eq!(raw[20], 0xAA);
                assert_eq!(raw[63], 0xAA);
                f.close(c);
            }
        });
    }

    #[test]
    fn reduced_aggregator_count_still_correct() {
        let pfs = tiny_pfs();
        World::run(6, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "agg.bin", true).unwrap();
                f.set_hints(crate::io::Hints {
                    cb_nodes: Some(2),
                    ..Default::default()
                });
                let mine = vec![c.rank() as u64; 10];
                f.write_all_segments(c, &[(c.rank() as u64 * 80, 80)], as_bytes(&mine))
                    .unwrap();
                let mut back = vec![0u64; 10];
                f.read_all_segments(
                    c,
                    &[(((c.rank() + 1) % 6) as u64 * 80, 80)],
                    as_bytes_mut(&mut back),
                )
                .unwrap();
                assert_eq!(back, vec![((c.rank() + 1) % 6) as u64; 10]);
                f.close(c);
            }
        });
    }

    #[test]
    fn small_cb_buffer_stages_correctly() {
        let pfs = tiny_pfs();
        World::run(3, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "cb.bin", true).unwrap();
                f.set_hints(crate::io::Hints {
                    cb_buffer_size: 16,
                    ..Default::default()
                });
                let mine: Vec<u8> = (0..50).map(|i| (c.rank() * 50 + i) as u8).collect();
                f.write_all_segments(c, &[(c.rank() as u64 * 50, 50)], &mine)
                    .unwrap();
                let mut all = vec![0u8; 150];
                if c.rank() == 0 {
                    f.read_at(c, 0, &mut all).unwrap();
                    assert_eq!(all, (0..150).map(|i| i as u8).collect::<Vec<_>>());
                }
                f.close(c);
            }
        });
    }

    #[test]
    fn segment_spanning_domain_boundary() {
        let pfs = tiny_pfs();
        World::run(2, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "span.bin", true).unwrap();
                // One rank writes a segment crossing the middle of the
                // global range, which is exactly the domain boundary.
                if c.rank() == 0 {
                    let data: Vec<u8> = (0..100).collect();
                    f.write_all_segments(c, &[(0, 100)], &data).unwrap();
                } else {
                    let data = [200u8; 100];
                    f.write_all_segments(c, &[(100, 100)], &data).unwrap();
                }
                // Read a window crossing the boundary.
                let mut buf = vec![0u8; 60];
                f.read_all_segments(c, &[(70, 60)], &mut buf).unwrap();
                let want: Vec<u8> = (70..100)
                    .map(|i| i as u8)
                    .chain(std::iter::repeat_n(200, 30))
                    .collect();
                assert_eq!(buf, want);
                f.close(c);
            }
        });
    }

    #[test]
    fn overlapping_writes_resolve_by_rank_order() {
        let pfs = tiny_pfs();
        World::run(2, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "ovl.bin", true).unwrap();
                let mine = vec![c.rank() as u8 + 1; 8];
                f.write_all_segments(c, &[(0, 8)], &mine).unwrap();
                let mut raw = [0u8; 8];
                f.read_at(c, 0, &mut raw).unwrap();
                // Higher source rank applied last wins.
                assert_eq!(raw, [2u8; 8]);
                f.close(c);
            }
        });
    }

    #[test]
    fn collective_beats_independent_on_interleaved_pattern() {
        // The paper's core performance claim: collective I/O on an
        // interleaved irregular pattern beats per-rank noncontiguous I/O.
        let cfg = MachineConfig::origin2000();
        let n = 8usize;
        let elems_per_rank = 4096usize;
        let run = |collective: bool| -> f64 {
            let pfs = Pfs::new(MachineConfig::origin2000());
            let times = World::run(n, cfg.clone(), {
                let pfs = Arc::clone(&pfs);
                move |c| {
                    let mut f = MpiFile::open_collective(c, &pfs, "perf.bin", true).unwrap();
                    let t = Datatype::resized(
                        (n * 8) as u64,
                        Datatype::indexed_block(1, vec![c.rank() as u64], Datatype::double()),
                    );
                    f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                    let mine = vec![c.rank() as f64; elems_per_rank];
                    c.barrier();
                    let t0 = c.now();
                    if collective {
                        f.write_all(c, 0, &mine).unwrap();
                    } else {
                        f.write_view(c, 0, &mine).unwrap();
                        c.barrier();
                    }
                    let t1 = c.now();
                    f.close(c);
                    t1 - t0
                }
            });
            times.iter().cloned().fold(0.0, f64::max)
        };
        let coll = run(true);
        let indep = run(false);
        assert!(
            coll < indep,
            "two-phase ({coll}s) should beat independent sieved writes ({indep}s) on interleaved data"
        );
    }

    /// Regression: rank 1's second piece makes the pieces' lengths sum to
    /// the touched span although bytes 8..16 are written by nobody. They
    /// must be read-modify-written, not zeroed.
    #[test]
    fn overlapping_writers_do_not_hide_a_hole() {
        let pfs = tiny_pfs();
        World::run(2, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "hole.bin", true).unwrap();
                f.set_hints(crate::io::Hints {
                    cb_nodes: Some(1),
                    ..Default::default()
                });
                if c.rank() == 0 {
                    f.write_at(c, 0, &[0xAAu8; 24]).unwrap();
                }
                c.barrier();
                if c.rank() == 0 {
                    f.write_all_segments(c, &[(0, 8)], &[1; 8]).unwrap();
                } else {
                    f.write_all_segments(c, &[(0, 8), (16, 8)], &[2; 16])
                        .unwrap();
                }
                let mut raw = [0u8; 24];
                f.read_at(c, 0, &mut raw).unwrap();
                assert_eq!(raw[..8], [2; 8]);
                assert_eq!(raw[8..16], [0xAA; 8], "the hole keeps what the file held");
                assert_eq!(raw[16..], [2; 8]);
                assert_eq!(pfs.counters().get("mpi.twophase_rmw"), 1);
                f.close(c);
            }
        });
    }

    /// Virtual seconds of one collective write and one collective read of
    /// `segs_of(rank)` on `origin2000`, each entered with synchronized
    /// clocks, and of one allreduce among back-to-back ones.
    fn origin2000_times(
        nprocs: usize,
        hints: crate::io::Hints,
        segs_of: impl Fn(usize) -> Vec<(u64, u64)> + Sync,
    ) -> (f64, f64, f64) {
        let pfs = Pfs::new(MachineConfig::origin2000());
        let out = World::run(nprocs, MachineConfig::origin2000(), |c| {
            let mut f = MpiFile::open_collective(c, &pfs, "timed.bin", true).unwrap();
            f.set_hints(hints.clone());
            let segs = segs_of(c.rank());
            let nbytes = segs.iter().map(|&(_, l)| l as usize).sum();
            let data = vec![c.rank() as u8 + 1; nbytes];
            c.barrier();
            c.allreduce_min(&[0u64, 0]);
            let t0 = c.now();
            c.allreduce_min(&[0u64, 0]);
            let reduction = c.now() - t0;
            c.barrier();
            let t0 = c.now();
            f.write_all_segments(c, &segs, &data).unwrap();
            let write = c.now() - t0;
            let mut back = vec![0u8; nbytes];
            let t0 = c.now();
            f.read_all_segments(c, &segs, &mut back).unwrap();
            let read = c.now() - t0;
            assert_eq!(back, data);
            f.close(c);
            (write, read, reduction)
        });
        out[0]
    }

    /// A collective that fits in one round has nothing to overlap: it
    /// costs what the serial engine charged, less the reduction that
    /// `global_range` fused away. The two domains are one stripe unit
    /// each, on different servers, so no queue depends on thread timing.
    #[test]
    fn single_round_costs_what_the_serial_engine_did_less_one_reduction() {
        const K: u64 = 1024;
        // Measured with this scenario on the serial engine (commit 2923382).
        const SERIAL_WRITE: f64 = 5.32288e-3;
        const SERIAL_READ: f64 = 5.32888e-3;
        let (write, read, reduction) = origin2000_times(2, Default::default(), |rank| {
            let base = rank as u64 * 32 * K;
            vec![(base, 32 * K), (base + 64 * K, 32 * K)]
        });
        // The serial engine also copied its own 24 descriptor bytes.
        let tol = 1e-7;
        assert!(
            (write - (SERIAL_WRITE - reduction)).abs() < tol,
            "write {write} s, serial {SERIAL_WRITE} s, one reduction {reduction} s"
        );
        assert!(
            (read - (SERIAL_READ - reduction)).abs() < tol,
            "read {read} s, serial {SERIAL_READ} s, one reduction {reduction} s"
        );
    }

    /// A collective of many rounds overlaps exchange and staging with the
    /// servers' work: it finishes sooner than the serial sum of the three
    /// and, as no server time is un-charged, no sooner than the servers
    /// alone need. One aggregator, so no queue depends on thread timing.
    #[test]
    fn multi_round_overlaps_client_work_with_the_servers() {
        const BLOCK: usize = 4 << 20;
        let cfg = MachineConfig::origin2000();
        let hints = crate::io::Hints {
            cb_nodes: Some(1),
            ..Default::default()
        };
        let (write, read, _) =
            origin2000_times(2, hints, |rank| vec![((rank * BLOCK) as u64, BLOCK as u64)]);
        let per_server = 2 * BLOCK / cfg.io_servers;
        let floor = cfg.io.service_time(per_server);
        // Rank 0's own block is copied while rank 1's is on the wire, then
        // everything is staged, then served.
        let serial = cfg.network.wire_time(BLOCK).max(cfg.io.client_copy(BLOCK))
            + cfg.io.client_copy(2 * BLOCK)
            + floor;
        for (what, t) in [("write", write), ("read", read)] {
            assert!(t >= floor, "{what}: {t} s is below the servers' {floor} s");
            assert!(
                t < serial,
                "{what}: {t} s is not below the serial {serial} s"
            );
        }
    }

    /// The staging halves are all the memory an aggregator moves file
    /// data through, and they stay within `cb_buffer_size` however large
    /// its domain is.
    #[test]
    fn staging_stays_within_cb_buffer_size() {
        let cb_buffer_size = 100_000; // less than a stripe cycle (640 KiB)
        let pfs = Pfs::new(MachineConfig::origin2000());
        World::run(1, MachineConfig::origin2000(), |c| {
            let mut f = MpiFile::open_collective(c, &pfs, "big.bin", true).unwrap();
            f.set_hints(crate::io::Hints {
                cb_buffer_size,
                ..Default::default()
            });
            let domain = 64u64 << 20;
            let sched = f.schedule(c, &[(0, domain)]).unwrap();
            assert!(sched.nrounds > 1000);
            let whole = Piece {
                off: 0,
                len: domain,
                pos: 0,
            };
            let mut agg = Aggregator::new(1, 0, vec![whole]);
            agg.learn(&[Vec::new()], &sched).unwrap();
            let staged: usize = agg.staging.iter().map(Vec::len).sum();
            assert_eq!(staged, cb_buffer_size);
            f.close(c);
        });
    }
}
