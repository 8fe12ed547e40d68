//! File views: tiled noncontiguous windows onto a file.
//!
//! An MPI file view is `(displacement, etype, filetype)`: starting at
//! `displacement`, the flattened filetype tiles the file with period
//! `extent`, and only the filetype's segments are *visible*. A view
//! linearizes the visible bytes; I/O operates in that linear space. This
//! is how SDM makes "write my nodes at their global positions" a single
//! request.

use crate::datatype::Flattened;
use crate::error::{MpiError, MpiResult};

/// An installed file view.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Byte displacement where the view begins.
    pub disp: u64,
    /// Flattened filetype (tiles with period `ftype.extent`).
    pub ftype: Flattened,
    /// Cumulative visible bytes before each segment (same length as
    /// `ftype.segments`), precomputed for binary search.
    cum: Vec<u64>,
}

impl FileView {
    /// A contiguous byte view starting at `disp` (the default view).
    pub fn contiguous(disp: u64) -> Self {
        // A zero-segment contiguous view is special-cased in `segments`.
        Self {
            disp,
            ftype: Flattened {
                segments: vec![],
                extent: 0,
                size: 0,
            },
            cum: vec![],
        }
    }

    /// A view with the given flattened filetype at `disp`.
    pub fn new(disp: u64, ftype: Flattened) -> MpiResult<Self> {
        if ftype.size > 0 && ftype.extent < ftype.segments.last().map_or(0, |&(o, l)| o + l) {
            return Err(MpiError::InvalidDatatype(
                "filetype extent smaller than its last segment end".into(),
            ));
        }
        let mut cum = Vec::with_capacity(ftype.segments.len());
        let mut acc = 0;
        for &(_, len) in &ftype.segments {
            cum.push(acc);
            acc += len;
        }
        Ok(Self { disp, ftype, cum })
    }

    /// Whether this view linearizes to plain contiguous bytes. A
    /// filetype whose segments are gap-free is still *tiled* if its
    /// extent exceeds its size — the hole between tile instances makes
    /// the view noncontiguous — so the extent must equal the size too.
    pub fn is_contiguous(&self) -> bool {
        self.ftype.segments.is_empty()
            || (self.ftype.is_contiguous() && self.ftype.extent == self.ftype.size)
    }

    /// Map the visible range `[view_off, view_off + len)` to absolute file
    /// segments, coalescing adjacent runs.
    pub fn segments(&self, view_off: u64, len: u64) -> Vec<(u64, u64)> {
        if len == 0 {
            return vec![];
        }
        if self.is_contiguous() {
            return vec![(self.disp + view_off, len)];
        }
        let tsize = self.ftype.size;
        debug_assert!(tsize > 0);
        let extent = self.ftype.extent;
        let end = view_off + len;
        let t0 = view_off / tsize;
        let t1 = (end - 1) / tsize;
        let mut out: Vec<(u64, u64)> = Vec::new();
        for tile in t0..=t1 {
            let vis_base = tile * tsize;
            let lo = view_off.max(vis_base) - vis_base; // within-tile visible range
            let hi = end.min(vis_base + tsize) - vis_base;
            let file_base = self.disp + tile * extent;
            // First segment whose visible span ends after `lo`.
            let mut i = self.cum.partition_point(|&c| c <= lo);
            i = i.saturating_sub(1);
            // cum[i] <= lo < cum[i] + seg_len (or lo lands after seg i, advance)
            while i < self.ftype.segments.len() && self.cum[i] < hi {
                let (soff, slen) = self.ftype.segments[i];
                let seg_vis_lo = self.cum[i];
                let seg_vis_hi = seg_vis_lo + slen;
                let take_lo = lo.max(seg_vis_lo);
                let take_hi = hi.min(seg_vis_hi);
                if take_lo < take_hi {
                    let fo = file_base + soff + (take_lo - seg_vis_lo);
                    let flen = take_hi - take_lo;
                    match out.last_mut() {
                        Some((loff, llen)) if *loff + *llen == fo => *llen += flen,
                        _ => out.push((fo, flen)),
                    }
                }
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;

    fn view_every_other_f64(disp: u64, n: usize) -> FileView {
        // Visible: elements 0, 2, 4, ... of an array of 2n f64s per tile.
        let displs: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
        let t = Datatype::resized(
            (2 * n) as u64 * 8,
            Datatype::indexed_block(1, displs, Datatype::double()),
        );
        FileView::new(disp, t.flatten().unwrap()).unwrap()
    }

    #[test]
    fn contiguous_view_passthrough() {
        let v = FileView::contiguous(100);
        assert!(v.is_contiguous());
        assert_eq!(v.segments(10, 20), vec![(110, 20)]);
        assert_eq!(v.segments(0, 0), vec![]);
    }

    #[test]
    fn strided_view_single_tile() {
        let v = view_every_other_f64(0, 4); // visible 4 f64 per 8-f64 tile
                                            // First 16 visible bytes = elements 0 and 2 of the file.
        assert_eq!(v.segments(0, 16), vec![(0, 8), (16, 8)]);
        // Visible bytes 8..24 = elements 2 and 4.
        assert_eq!(v.segments(8, 16), vec![(16, 8), (32, 8)]);
    }

    #[test]
    fn strided_view_crosses_tiles() {
        let v = view_every_other_f64(0, 2); // tile: 2 visible f64 in 4 (32B extent, 16B visible)
                                            // Visible 0..32 spans two tiles: file elements 0,2 then 4,6.
        assert_eq!(v.segments(0, 32), vec![(0, 8), (16, 8), (32, 8), (48, 8)]);
    }

    #[test]
    fn view_with_displacement() {
        let v = view_every_other_f64(1000, 2);
        assert_eq!(v.segments(0, 8), vec![(1000, 8)]);
        assert_eq!(v.segments(16, 8), vec![(1032, 8)]);
    }

    #[test]
    fn partial_segment_access() {
        let v = view_every_other_f64(0, 2);
        // Bytes 4..12 visible: second half of elem 0, first half of elem 2.
        assert_eq!(v.segments(4, 8), vec![(4, 4), (16, 4)]);
    }

    #[test]
    fn adjacent_tiles_coalesce_when_layout_allows() {
        // Filetype = first 8 bytes visible of a 16-byte extent; tiles at
        // 0..8, 16..24 — never coalesce.
        let t = Datatype::resized(16, Datatype::contiguous(8, Datatype::byte()));
        let v = FileView::new(0, t.flatten().unwrap()).unwrap();
        assert_eq!(v.segments(0, 16), vec![(0, 8), (16, 8)]);
        // Filetype covering its whole extent coalesces across tiles.
        let t2 = Datatype::contiguous(16, Datatype::byte());
        let v2 = FileView::new(0, t2.flatten().unwrap()).unwrap();
        assert_eq!(v2.segments(0, 64), vec![(0, 64)]);
    }

    #[test]
    fn bad_extent_rejected() {
        let f = Flattened {
            segments: vec![(0, 16)],
            extent: 8,
            size: 16,
        };
        assert!(FileView::new(0, f).is_err());
    }

    #[test]
    fn total_bytes_conserved() {
        let v = view_every_other_f64(64, 5);
        for (off, len) in [(0u64, 80u64), (8, 72), (40, 33), (3, 9)] {
            let segs = v.segments(off, len);
            assert_eq!(
                segs.iter().map(|&(_, l)| l).sum::<u64>(),
                len,
                "off={off} len={len}"
            );
            // Monotone, non-overlapping.
            for w in segs.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0);
            }
        }
    }
}
