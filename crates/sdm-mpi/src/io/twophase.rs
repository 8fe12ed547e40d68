//! Two-phase collective I/O (ROMIO's generalized collective
//! read/write), the optimization the paper's results rest on, run as a
//! round-based, double-buffered pipeline whose last writes outlive the
//! call that issued them.
//!
//! **Plan.** The ranks agree on the global byte range with one fused
//! reduction and split it into contiguous *file domains*, one per
//! aggregator. Each aggregator walks its domain, front to back, in
//! *rounds* whose windows follow one size sequence: one PFS stripe cycle
//! (`stripe_size × io_servers`, so every request loads every server
//! equally), then twice the previous window each round, up to the largest
//! whole number of cycles that fits `cb_buffer_size / 2`; the one window
//! that has to be cut to fit the domain takes its place by size. A write
//! takes the sequence as it grows, a read takes the same sizes in
//! reverse. The servers have nothing to do while the *first* window of a
//! write is exchanged and staged, and while the *last* window of a read
//! is extracted and replied, so those two are the small ones; every other
//! window spreads the servers' per-request latency over a multiple of
//! the bytes while the client-side work on it still hides behind the
//! servers' work on its predecessor (doubling does; tripling stalls). The sequence follows from the
//! range, the aggregator count, the stripe cycle and `cb_buffer_size`, so
//! every rank knows every window and the number of rounds without
//! asking. One pass over a rank's segments yields, per aggregator, the
//! clipped `(offset, length, position in the caller's buffer)` pieces;
//! they are exchanged **once**, as descriptors, and both sides walk them
//! window by window from then on, so the later messages carry payload
//! only.
//!
//! **Write.** Round *r*: the ranks exchange the payload of every
//! aggregator's window *r* (round 0 also carries the descriptors); the
//! aggregator lays the pieces into one of the file's two staging halves —
//! its own straight from the caller's buffer, the others' from the wire,
//! in rank order so that the higher rank wins where writers overlap — and
//! hands the half to the servers with a nonblocking write. While the
//! servers work on it, round *r + 1* is exchanged and staged in the other
//! half. **At most two writes are in flight per file:** before a half is
//! reused, the aggregator waits for the write last issued from it. A
//! window the pieces do not cover completely is read first
//! (read-modify-write); coverage is the *union* of the pieces, so
//! overlapping writers cannot hide a hole.
//!
//! **Write-behind.** The staging halves and the completion times of the
//! writes issued from them belong to the [`MpiFile`], not to one
//! collective. [`MpiFile::write_all_begin`] returns with its last one or
//! two windows still at the servers. Its closing barrier is split the
//! same way: every rank enters it, an aggregator as of the completion of
//! its last write, and learns when it completes — when all aggregators'
//! writes are at the servers — but waits for that only in
//! [`MpiFile::sync`]. The next collective on the handle starts in the
//! half whose write completes first and waits for a half only when it
//! needs it, so the servers keep working while the next dataset's first
//! window is exchanged and staged. [`MpiFile::write_all`] is
//! `write_all_begin` followed by `sync`, which is the instant the old
//! drain-then-barrier ended at. Every read and every independent write
//! on the handle, and `close`, wait for the writes in flight first.
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
//! the *overlap* is new — client-side work proceeds while the FIFO server
//! queues work on what was handed to them — so a collective that fits in
//! one round and is waited for at once costs what the serial schedule
//! cost.

use sdm_sim::Seconds;

use crate::comm::Comm;
use crate::error::{MpiError, MpiResult};
use crate::io::MpiFile;
use crate::pod::{as_bytes, as_bytes_mut, Pod};

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
    /// The smallest full window: one stripe cycle, or `cap` if that is
    /// less.
    first: u64,
    /// The largest window: the whole stripe cycles that fit half of
    /// `cb_buffer_size`, or that half itself if it is under a cycle.
    cap: u64,
    /// Full windows that are smaller than `cap` (`first · 2^k` for
    /// `k < doublings`).
    doublings: u32,
    /// Rounds the longest domain takes; every rank runs this many.
    nrounds: u64,
    /// What `nrounds - 1` full windows leave of `share`: the one window
    /// that is cut to fit.
    rest: u64,
    /// Full windows smaller than `rest`, which come before it.
    rest_at: u64,
    /// Reads take the sizes largest first.
    shrinking: bool,
}

impl Schedule {
    fn new(
        (gmin, gmax): (u64, u64),
        naggs: usize,
        cycle: u64,
        cb_buffer_size: u64,
        shrinking: bool,
    ) -> Self {
        let total = gmax - gmin;
        let share = total.div_ceil(naggs as u64).max(1);
        // Two halves of at most `cb_buffer_size / 2` (and at least a byte,
        // or nothing would move).
        let half = (cb_buffer_size / 2).max(1);
        let cap = if half < cycle {
            half
        } else {
            half - half % cycle
        };
        let first = cycle.min(cap);
        let doublings = cap.div_ceil(first).next_power_of_two().trailing_zeros();
        let mut sched = Self {
            gmin,
            total,
            naggs,
            share,
            first,
            cap,
            doublings,
            nrounds: 0,
            rest: 0,
            rest_at: 0,
            shrinking,
        };
        let doublings = doublings as u64;
        sched.nrounds = (1..=doublings)
            .find(|&k| sched.full(k) >= share)
            .unwrap_or_else(|| doublings + (share - sched.full(doublings)).div_ceil(cap));
        let nfull = sched.nrounds - 1;
        sched.rest = share - sched.full(nfull);
        // Windows of `cap` bytes are not smaller than what is cut from one.
        sched.rest_at = (0..nfull.min(doublings))
            .take_while(|&k| first << k < sched.rest)
            .count() as u64;
        sched
    }

    /// Bytes the first `k` full windows cover: `first · (2^k - 1)` while
    /// they double, `cap` more for every window after that.
    fn full(&self, k: u64) -> u64 {
        let doubling = k.min(self.doublings as u64);
        (self.first * ((1 << doubling) - 1)).saturating_add((k - doubling).saturating_mul(self.cap))
    }

    /// Bytes of a domain the first `k <= nrounds` windows cover, smallest
    /// first: the full windows with the cut one in its place by size.
    fn covered(&self, k: u64) -> u64 {
        if k <= self.rest_at {
            self.full(k)
        } else {
            self.full(k - 1) + self.rest
        }
    }

    /// File domain of aggregator `d`.
    fn domain(&self, d: usize) -> (u64, u64) {
        let lo = (d as u64 * self.share).min(self.total);
        let hi = ((d as u64 + 1) * self.share).min(self.total);
        (self.gmin + lo, self.gmin + hi)
    }

    /// The part of aggregator `d`'s domain it moves in round
    /// `r < nrounds`: ascending in the file for reads too, which take
    /// the window *sizes* in reverse (empty where a short domain ends
    /// before the window starts).
    fn window(&self, d: usize, r: u64) -> (u64, u64) {
        let (dlo, dhi) = self.domain(d);
        let (lo, hi) = if self.shrinking {
            let left = self.nrounds - r;
            (
                self.share - self.covered(left),
                self.share - self.covered(left - 1),
            )
        } else {
            (self.covered(r), self.covered(r + 1))
        };
        ((dlo + lo).min(dhi), (dlo + hi).min(dhi))
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
/// their encoded length. An empty message holds none. The count comes
/// from a peer: one that no message could hold is a `LengthMismatch`,
/// whatever arithmetic it would overflow.
fn decode_header(bytes: &[u8]) -> MpiResult<(Vec<Piece>, usize)> {
    if bytes.is_empty() {
        return Ok((Vec::new(), 0));
    }
    let short = |expected: usize| MpiError::LengthMismatch {
        expected,
        got: bytes.len(),
    };
    let count = bytes
        .first_chunk()
        .map(|w| u64::from_ne_bytes(*w))
        .ok_or_else(|| short(8))?;
    let end = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(16))
        .and_then(|n| n.checked_add(8));
    let body = end
        .and_then(|end| bytes.get(8..end))
        .ok_or_else(|| short(end.unwrap_or(usize::MAX)))?;
    let (words, _) = body.as_chunks::<8>();
    let pieces = words
        .chunks_exact(2)
        .map(|w| Piece {
            off: u64::from_ne_bytes(w[0]),
            len: u64::from_ne_bytes(w[1]),
            pos: 0,
        })
        .collect();
    Ok((pieces, 8 + body.len()))
}

/// The memory an aggregator moves a file's data through, and what the
/// servers still owe it. Kept per file handle: a collective leaves its
/// last writes in flight, and the next one finds here which half is free.
#[derive(Debug, Default)]
pub(super) struct Staging {
    /// Allocated on first use, each grown to the largest window it has
    /// held; a window is at most half of `cb_buffer_size`.
    halves: [Vec<u8>; 2],
    /// When the write last issued from each half completes.
    in_flight: [Seconds; 2],
    /// When the closing barrier of the last collective write completes:
    /// every aggregator's writes are at the servers and every rank can
    /// know it.
    landed: Seconds,
}

impl Staging {
    /// Give the halves back; the next collective sizes them anew.
    pub(super) fn release(&mut self) {
        self.halves = Default::default();
    }

    /// The first `len` bytes of half `h`.
    fn span(&mut self, h: usize, len: usize) -> &mut [u8] {
        let half = &mut self.halves[h];
        if half.len() < len {
            // What it held is in the file: nothing to carry over.
            *half = vec![0; len];
        }
        &mut half[..len]
    }
}

/// An aggregator's side of one collective: who wants which bytes of its
/// domain.
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
        }
    }

    /// Take in the descriptors at the front of every other rank's
    /// message. Returns the descriptors' encoded length per source (what
    /// precedes any payload).
    fn learn(&mut self, received: &[Vec<u8>]) -> MpiResult<Vec<usize>> {
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
    /// different offsets and lengths, including empty. Returns when the
    /// bytes are at the servers: [`MpiFile::write_all_begin`], then
    /// [`MpiFile::sync`].
    pub fn write_all<T: Pod>(
        &mut self,
        comm: &mut Comm,
        view_off: u64,
        data: &[T],
    ) -> MpiResult<()> {
        self.write_all_begin(comm, view_off, data)?;
        self.sync(comm);
        Ok(())
    }

    /// [`MpiFile::write_all`] without the wait at its end: on return the
    /// caller's buffer is free and every rank has passed the closing
    /// barrier, but an aggregator's last windows may still be at the
    /// servers. Whatever uses this handle next finds them: another
    /// collective write queues behind them, [`MpiFile::sync`] waits for
    /// them, and so does every read, every independent write and `close`.
    pub fn write_all_begin<T: Pod>(
        &mut self,
        comm: &mut Comm,
        view_off: u64,
        data: &[T],
    ) -> MpiResult<()> {
        let bytes = as_bytes(data);
        let my_segs = self.view().segments(view_off, bytes.len() as u64);
        self.two_phase_write(comm, &my_segs, bytes)
    }

    /// Wait for the collective writes begun on this handle (what
    /// `MPI_File_sync` is to a split collective): until the closing
    /// barrier of the last one completes, when every aggregator's writes
    /// are at the servers. Local, and free when nothing is in flight.
    pub fn sync(&self, comm: &mut Comm) {
        comm.sync_to(self.staging.landed);
    }

    /// Collective read through the view (counterpart of
    /// [`MpiFile::write_all`]). Fails if any requested byte lies past EOF.
    pub fn read_all<T: Pod>(
        &mut self,
        comm: &mut Comm,
        view_off: u64,
        buf: &mut [T],
    ) -> MpiResult<()> {
        let nbytes = std::mem::size_of_val(buf) as u64;
        let my_segs = self.view().segments(view_off, nbytes);
        let bytes = as_bytes_mut(buf);
        self.two_phase_read(comm, &my_segs, bytes)
    }

    /// Collective write of explicit absolute segments, ascending and
    /// disjoint (used by SDM's import path where the segment list is
    /// already computed).
    pub fn write_all_segments(
        &mut self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        data: &[u8],
    ) -> MpiResult<()> {
        self.write_all_segments_begin(comm, segs, data)?;
        self.sync(comm);
        Ok(())
    }

    /// [`MpiFile::write_all_segments`] without the wait at its end (see
    /// [`MpiFile::write_all_begin`]).
    pub fn write_all_segments_begin(
        &mut self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        data: &[u8],
    ) -> MpiResult<()> {
        self.two_phase_write(comm, segs, data)
    }

    /// Collective read of explicit absolute segments, ascending and
    /// disjoint.
    pub fn read_all_segments(
        &mut self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        buf: &mut [u8],
    ) -> MpiResult<()> {
        self.two_phase_read(comm, segs, buf)
    }

    /// Global byte range of all ranks' requests; `None` if all are empty.
    fn global_range(&self, comm: &mut Comm, segs: &[(u64, u64)]) -> MpiResult<Option<(u64, u64)>> {
        let lo = segs.first().map_or(u64::MAX, |&(o, _)| o);
        let hi = segs.last().map_or(0, |&(o, l)| o + l);
        // One reduction for both ends: the minimum of `MAX - hi` is the
        // maximum of `hi`.
        let ends = comm.allreduce_min(&[lo, u64::MAX - hi])?;
        let (gmin, gmax) = (ends[0], u64::MAX - ends[1]);
        Ok((gmin < gmax).then_some((gmin, gmax)))
    }

    /// Agree on the schedule of one collective, a read's with the window
    /// sizes `shrinking`; `None` if no rank requests anything.
    fn schedule(
        &self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        shrinking: bool,
    ) -> MpiResult<Option<Schedule>> {
        let cfg = self.pfs().config();
        Ok(self.global_range(comm, segs)?.map(|range| {
            Schedule::new(
                range,
                self.hints().aggregators(comm.size()),
                (cfg.stripe_size * cfg.io_servers) as u64,
                self.hints().cb_buffer_size as u64,
                shrinking,
            )
        }))
    }

    /// The collective write up to its closing barrier, which every rank
    /// enters but none waits for: what is still at the servers is left
    /// in `staging`.
    fn two_phase_write(
        &mut self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        data: &[u8],
    ) -> MpiResult<()> {
        debug_assert_eq!(
            segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
            data.len()
        );
        let Some(sched) = self.schedule(comm, segs, false)? else {
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
        // Start in the half that is free first. Taking them in a fixed
        // order would, after a collective with an odd number of rounds,
        // begin with the half whose write was issued last.
        let [a, b] = self.staging.in_flight;
        let start = usize::from(b < a);

        for r in 0..sched.nrounds {
            let half = (start + r as usize) % 2;
            if let Some(agg) = &agg {
                // Two in flight at most: the half is free once the write
                // last issued from it is done.
                comm.sync_to(self.staging.in_flight[half]);
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
                header = agg.learn(&received)?;
            }
            let (wlo, whi) = sched.window(rank, r);
            if let Some((lo, hi, holes)) = agg.touched(wlo, whi) {
                let span = self.staging.span(half, (hi - lo) as usize);
                if holes {
                    // Read-modify-write; what lies past EOF reads as zeros.
                    let (n, t) = self.pfs.read_at(&self.file, lo, span, comm.now())?;
                    span[n..].fill(0);
                    comm.sync_to(t);
                    self.pfs.counters().incr("mpi.twophase_rmw");
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
                let (caller, done) = self.pfs.write_at_async(&self.file, lo, span, comm.now())?;
                comm.sync_to(caller);
                self.staging.in_flight[half] = done;
            }
            header.fill(0);
        }

        if agg.is_some() {
            comm.counters().incr("mpi.write_alls");
        }
        // The closing barrier, split like the collective: an aggregator
        // arrives when its last write completes, every rank learns here
        // when all have arrived, and `sync` waits for that.
        let [a, b] = self.staging.in_flight;
        let landed = comm.barrier_begin(a.max(b));
        self.staging.landed = self.staging.landed.max(landed);
        Ok(())
    }

    /// Issue the read of the window `[wlo, whi)` into staging half `half`
    /// at `now` without waiting for it: returns where the staged bytes
    /// start in the file and when they will have arrived (`None`: nothing
    /// of the window is wanted).
    fn read_ahead(
        &mut self,
        agg: &mut Aggregator,
        (wlo, whi): (u64, u64),
        half: usize,
        now: Seconds,
    ) -> MpiResult<Option<(u64, Seconds)>> {
        let Some((lo, hi, _)) = agg.touched(wlo, whi) else {
            return Ok(None);
        };
        let span = self.staging.span(half, (hi - lo) as usize);
        let ready = self.pfs.read_exact_at(&self.file, lo, span, now)?;
        Ok(Some((lo, ready)))
    }

    fn two_phase_read(
        &mut self,
        comm: &mut Comm,
        segs: &[(u64, u64)],
        buf: &mut [u8],
    ) -> MpiResult<()> {
        debug_assert_eq!(
            segs.iter().map(|&(_, l)| l).sum::<u64>() as usize,
            buf.len()
        );
        // Reads are not deferred and need both halves.
        self.sync(comm);
        let Some(sched) = self.schedule(comm, segs, true)? else {
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
            agg.learn(&received)?;
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
                    let span = &self.staging.halves[half];
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
                let mut f = MpiFile::open_collective(c, &pfs, "e.bin", true).unwrap();
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
                let mut f = MpiFile::open_collective(c, &pfs, "z.bin", true).unwrap();
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
                let mut f = MpiFile::open_collective(c, &pfs, "rmw.bin", true).unwrap();
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
                let mut f = MpiFile::open_collective(c, &pfs, "span.bin", true).unwrap();
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
                let mut f = MpiFile::open_collective(c, &pfs, "ovl.bin", true).unwrap();
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
            c.allreduce_min(&[0u64, 0]).unwrap();
            let t0 = c.now();
            c.allreduce_min(&[0u64, 0]).unwrap();
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

    /// Virtual seconds rank 0 (the one aggregator) takes for two
    /// collective writes of 8 MiB each to one file on `origin2000`, and
    /// for one more `sync` after them.
    fn two_collectives(deferred: bool) -> (f64, f64) {
        const BLOCK: u64 = 4 << 20;
        let pfs = Pfs::new(MachineConfig::origin2000());
        let out = World::run(2, MachineConfig::origin2000(), |c| {
            let mut f = MpiFile::open_collective(c, &pfs, "pair.bin", true).unwrap();
            f.set_hints(crate::io::Hints {
                cb_nodes: Some(1),
                ..Default::default()
            });
            let data = vec![c.rank() as u8 + 1; BLOCK as usize];
            c.barrier();
            let t0 = c.now();
            for base in [0, 2 * BLOCK] {
                let segs = [(base + c.rank() as u64 * BLOCK, BLOCK)];
                if deferred {
                    f.write_all_segments_begin(c, &segs, &data).unwrap();
                } else {
                    f.write_all_segments(c, &segs, &data).unwrap();
                }
            }
            f.sync(c);
            let both = c.now() - t0;
            f.sync(c);
            let again = c.now() - t0 - both;
            f.close(c);
            (both, again)
        });
        out[0]
    }

    /// Two collectives begun back to back and waited for once keep the
    /// servers busy while the second one's first window is staged: less
    /// than two collectives each waited for, no less than the servers
    /// need for the bytes. With nothing in flight `sync` costs nothing.
    #[test]
    fn write_behind_overlaps_the_next_collective_with_the_servers() {
        let cfg = MachineConfig::origin2000();
        let (deferred, again) = two_collectives(true);
        let (waited, _) = two_collectives(false);
        let floor = cfg.io.service_time((16 << 20) / cfg.io_servers);
        assert!(
            deferred >= floor,
            "{deferred} s is below the servers' {floor} s"
        );
        assert!(
            deferred < waited,
            "begin, begin, sync: {deferred} s; write_all twice: {waited} s"
        );
        assert_eq!(again, 0.0, "a second sync waits for nothing");
    }

    /// A read on a handle whose writes are still at the servers waits for
    /// them, also where its own bytes are on a server they do not load.
    #[test]
    fn read_waits_for_the_writes_in_flight() {
        let cfg = MachineConfig::origin2000();
        let unit = cfg.stripe_size as u64;
        let pfs = Pfs::new(cfg.clone());
        World::run(1, cfg.clone(), |c| {
            let mut f = MpiFile::open_collective(c, &pfs, "wait.bin", true).unwrap();
            let data = vec![7u8; 2 * unit as usize];
            f.write_all_segments(c, &[(0, 2 * unit)], &data).unwrap();
            // One stripe unit, on the first server only.
            f.write_all_segments_begin(c, &[(0, unit)], &data[..unit as usize])
                .unwrap();
            let done = f.staging.landed;
            assert!(done > c.now(), "the write is still in flight");
            // One stripe unit on the second server.
            let mut back = vec![0u8; unit as usize];
            f.read_all_segments(c, &[(unit, unit)], &mut back).unwrap();
            let earliest = done + cfg.io.service_time(unit as usize);
            assert!(
                c.now() >= earliest,
                "read done at {} s, the writes at {done} s",
                c.now()
            );
            assert_eq!(back, data[unit as usize..]);
            f.close(c);
        });
    }

    /// The two staging halves are all the memory an aggregator moves file
    /// data through. They belong to the file, and they stay within
    /// `cb_buffer_size` however many collectives of whatever size pass
    /// through them, waited for or not.
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
            let staged = |f: &MpiFile| f.staging.halves.iter().map(Vec::len).sum::<usize>();
            assert_eq!(staged(&f), 0, "allocated on first use");
            let mut at = 0u64;
            for i in 0..10 {
                let len = 30_000u64 << i;
                let data = vec![i as u8; len as usize];
                f.write_all_segments_begin(c, &[(at, len)], &data).unwrap();
                if i % 3 == 2 {
                    f.sync(c);
                }
                assert!(
                    staged(&f) <= cb_buffer_size,
                    "{} B staged after {len} B",
                    staged(&f)
                );
                at += len;
            }
            assert_eq!(staged(&f), cb_buffer_size);
            f.close(c);
        });
    }

    /// A count no message could hold is a length mismatch, not an
    /// overflow in the arithmetic on it.
    #[test]
    fn decode_header_rejects_hostile_counts() {
        for count in [u64::MAX, (usize::MAX / 16) as u64, 3] {
            let mut msg = count.to_ne_bytes().to_vec();
            msg.extend_from_slice(&[0; 32]);
            assert!(
                matches!(
                    decode_header(&msg),
                    Err(MpiError::LengthMismatch { got: 40, .. })
                ),
                "count {count}"
            );
        }
        let (pieces, len) = decode_header(&[&2u64.to_ne_bytes()[..], &[0; 40]].concat()).unwrap();
        assert_eq!((pieces.len(), len), (2, 40));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The window sequence, for any range, aggregator count, stripe
        /// cycle and `cb_buffer_size`.
        #[test]
        fn windows_tile_every_domain_within_half_the_buffer(
            gmin in 0u64..1_000_000,
            naggs in 1usize..8,
            cycle in proptest::prop_oneof![
                proptest::strategy::Just(1u64),
                2u64..100,
                proptest::strategy::Just(4 * 4096),
                proptest::strategy::Just(10 * 65536)
            ],
            cb_exp in 4u32..25,
            cb_jitter in 0u64..1000,
            // The range in thousandths of `cb_buffer_size`: up to some
            // eighty windows per aggregator.
            span in 1u64..40_000,
        ) {
            // 16 B to 16 MiB.
            let cb_buffer_size =
                ((1u64 << cb_exp) + (cb_jitter << cb_exp) / 1000).min(16 << 20);
            let total = span * cb_buffer_size / 1000 + 1;
            let half = (cb_buffer_size / 2).max(1);
            let range = (gmin, gmin + total);
            let write = Schedule::new(range, naggs, cycle, cb_buffer_size, false);
            let read = Schedule::new(range, naggs, cycle, cb_buffer_size, true);
            // Known to every rank without asking: nothing but the range
            // and the file's parameters went in, and reads and writes
            // agree on it.
            proptest::prop_assert_eq!(write.nrounds, read.nrounds);
            let n = write.nrounds;

            let mut sizes = [Vec::new(), Vec::new()];
            for (sched, sizes) in [write, read].iter().zip(&mut sizes) {
                for d in 0..naggs {
                    let (dlo, dhi) = sched.domain(d);
                    let mut at = dlo;
                    for r in 0..n {
                        let (lo, hi) = sched.window(d, r);
                        proptest::prop_assert_eq!(lo, at, "domain {} round {}", d, r);
                        proptest::prop_assert!(hi >= lo && hi - lo <= half);
                        if d == 0 {
                            sizes.push(hi - lo);
                        }
                        at = hi;
                    }
                    proptest::prop_assert_eq!(at, dhi, "domain {} is not covered", d);
                }
            }
            // The first domain is a full share: no round is wasted on it.
            // A write's windows grow, each at most twice the one before,
            // and a read takes the same sizes in reverse.
            proptest::prop_assert!(sizes[0][0] > 0);
            proptest::prop_assert!(sizes[0]
                .windows(2)
                .all(|w| w[0] <= w[1] && w[1] <= 2 * w[0].max(cycle)));
            sizes[1].reverse();
            proptest::prop_assert_eq!(&sizes[0], &sizes[1]);
            // Up to one stripe cycle per aggregator is one round, as it
            // was before the windows grew.
            proptest::prop_assert_eq!(n == 1, write.share <= cycle.min(half));
            // Whole cycles where one fits, but for the window cut to fit.
            if half >= cycle {
                let cut = sizes[0].iter().filter(|&len| len % cycle != 0).count();
                proptest::prop_assert!(cut <= 1, "{} windows are not whole cycles", cut);
            }
        }
    }
}
