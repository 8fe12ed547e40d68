//! File views: tiled noncontiguous windows onto a file.
//!
//! An MPI file view is `(displacement, etype, filetype)`: starting at
//! `displacement`, the flattened filetype tiles the file with period
//! `extent`, and only the filetype's segments are *visible*. A view
//! linearizes the visible bytes; I/O operates in that linear space. This
//! is how SDM makes "write my nodes at their global positions" a single
//! request.

use crate::datatype::{Filetype, Flattened};
use crate::error::{MpiError, MpiResult};

/// An installed file view.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Byte displacement where the view begins.
    pub disp: u64,
    /// Flattened filetype (tiles with period `ftype.extent`).
    pub ftype: Filetype,
}

impl FileView {
    /// A contiguous byte view starting at `disp` (the default view).
    pub fn contiguous(disp: u64) -> Self {
        // A zero-segment contiguous view is special-cased in `segments`.
        let ftype = Flattened::contiguous(0).into();
        Self { disp, ftype }
    }

    /// A view with the given flattened filetype at `disp`, if the view
    /// can tile it (see `Filetype::fault`).
    pub fn new(disp: u64, ftype: impl Into<Filetype>) -> MpiResult<Self> {
        let ftype = ftype.into();
        if let Some(why) = ftype.fault() {
            return Err(MpiError::InvalidDatatype(format!("filetype {why}")));
        }
        Ok(Self { disp, ftype })
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
    /// segments, ascending, coalescing adjacent runs: one binary search
    /// finds where the range starts, and the filetype's segments follow.
    pub fn segments(&self, view_off: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
        // The file offset of the tile holding the next visible byte (of
        // the byte itself in a contiguous view), the filetype segment
        // holding it, the bytes of that segment before it, and the
        // visible bytes left.
        let (v, mut left) = (self.clone(), len);
        let (mut base, mut seg, mut skip) = (self.disp + view_off, 0, 0);
        if !self.is_contiguous() && len > 0 {
            let (size, cum) = (self.ftype.size, self.ftype.starts());
            let (tile, within) = (view_off / size, view_off % size);
            // The last segment starting at or before `within`: one with
            // bytes, as a later one starts where an empty one does.
            seg = cum.partition_point(|&c| c <= within) - 1;
            (base, skip) = (self.disp + tile * self.ftype.extent, within - cum[seg]);
        }
        std::iter::from_fn(move || {
            let mut run: Option<(u64, u64)> = None;
            while left > 0 {
                let (off, len) = match v.ftype.segments.get(seg) {
                    Some(&(o, l)) if !v.is_contiguous() => (base + o + skip, (l - skip).min(left)),
                    _ => (base, left),
                };
                match &mut run {
                    Some((o, l)) if *o + *l != off => break,
                    Some((_, l)) => *l += len,
                    None => run = Some((off, len)).filter(|_| len > 0),
                }
                (left, seg, skip) = (left - len, seg + 1, 0);
                // The next tile, unless the range ends here (its offset
                // may not be representable).
                if seg == v.ftype.segments.len() && left > 0 {
                    (base, seg) = (base + v.ftype.extent, 0);
                }
            }
            run
        })
    }

    /// The file range `[lo, hi)` that [`FileView::segments`] spans for the
    /// same arguments; `None` if it yields nothing.
    pub fn span(&self, view_off: u64, len: u64) -> Option<(u64, u64)> {
        let first = |v| self.segments(v, 1).next().map_or(0, |(off, _)| off);
        (len > 0).then(|| (first(view_off), first(view_off + len - 1) + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;

    fn segs(v: &FileView, off: u64, len: u64) -> Vec<(u64, u64)> {
        v.segments(off, len).collect()
    }

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
        assert_eq!(segs(&v, 10, 20), vec![(110, 20)]);
        assert_eq!(segs(&v, 0, 0), vec![]);
    }

    #[test]
    fn strided_view_single_tile() {
        let v = view_every_other_f64(0, 4); // visible 4 f64 per 8-f64 tile
                                            // First 16 visible bytes = elements 0 and 2 of the file.
        assert_eq!(segs(&v, 0, 16), vec![(0, 8), (16, 8)]);
        // Visible bytes 8..24 = elements 2 and 4.
        assert_eq!(segs(&v, 8, 16), vec![(16, 8), (32, 8)]);
    }

    #[test]
    fn strided_view_crosses_tiles() {
        let v = view_every_other_f64(0, 2); // tile: 2 visible f64 in 4 (32B extent, 16B visible)
                                            // Visible 0..32 spans two tiles: file elements 0,2 then 4,6.
        assert_eq!(segs(&v, 0, 32), vec![(0, 8), (16, 8), (32, 8), (48, 8)]);
    }

    #[test]
    fn view_with_displacement() {
        let v = view_every_other_f64(1000, 2);
        assert_eq!(segs(&v, 0, 8), vec![(1000, 8)]);
        assert_eq!(segs(&v, 16, 8), vec![(1032, 8)]);
    }

    #[test]
    fn partial_segment_access() {
        let v = view_every_other_f64(0, 2);
        // Bytes 4..12 visible: second half of elem 0, first half of elem 2.
        assert_eq!(segs(&v, 4, 8), vec![(4, 4), (16, 4)]);
    }

    #[test]
    fn adjacent_tiles_coalesce_when_layout_allows() {
        // Filetype = first 8 bytes visible of a 16-byte extent; tiles at
        // 0..8, 16..24 — never coalesce.
        let t = Datatype::resized(16, Datatype::contiguous(8, Datatype::byte()));
        let v = FileView::new(0, t.flatten().unwrap()).unwrap();
        assert_eq!(segs(&v, 0, 16), vec![(0, 8), (16, 8)]);
        // Filetype covering its whole extent coalesces across tiles.
        let t2 = Datatype::contiguous(16, Datatype::byte());
        let v2 = FileView::new(0, t2.flatten().unwrap()).unwrap();
        assert_eq!(segs(&v2, 0, 64), vec![(0, 64)]);
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

    fn rejected(segments: Vec<(u64, u64)>, extent: u64, size: u64) -> bool {
        let f = Flattened {
            segments,
            extent,
            size,
        };
        matches!(FileView::new(0, f), Err(MpiError::InvalidDatatype(_)))
    }

    #[test]
    fn filetype_with_segments_but_no_bytes_rejected() {
        // Accepted, this view divided by zero on its first access.
        assert!(rejected(vec![(0, 0)], 8, 0));
        assert!(rejected(vec![(0, 0), (4, 0)], 8, 0));
        // No segments and no bytes is the empty contiguous view.
        assert!(!rejected(vec![], 0, 0));
    }

    #[test]
    fn filetype_size_must_be_its_segments_sum() {
        assert!(rejected(vec![(0, 8), (16, 8)], 32, 24));
        assert!(rejected(vec![(0, 8), (16, 8)], 32, 8));
        assert!(rejected(vec![], 8, 8));
        assert!(rejected(vec![(u64::MAX, 2)], u64::MAX, 2));
        assert!(!rejected(vec![(0, 8), (16, 8)], 32, 16));
    }

    #[test]
    fn filetype_segments_must_ascend_without_overlap() {
        assert!(rejected(vec![(16, 8), (0, 8)], 32, 16));
        assert!(rejected(vec![(0, 8), (4, 8)], 32, 16));
        // Touching segments and empty ones among them stay legal.
        assert!(!rejected(vec![(0, 8), (8, 8)], 16, 16));
        assert!(!rejected(vec![(0, 8), (8, 0), (8, 0), (12, 4)], 16, 12));
        assert!(rejected(vec![(0, 8), (12, 0), (8, 4)], 16, 12));
    }

    #[test]
    fn total_bytes_conserved() {
        let v = view_every_other_f64(64, 5);
        for (off, len) in [(0u64, 80u64), (8, 72), (40, 33), (3, 9)] {
            let segs = segs(&v, off, len);
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

    proptest::proptest! {
        /// `segments` puts every visible byte where a byte-by-byte walk of
        /// the tiled filetype does, runs coalesced, and `span` is the file
        /// range they cover; zero-length filetype segments yield nothing.
        #[test]
        fn segments_follow_the_bytes(
            disp in 0u64..100,
            steps in proptest::collection::vec((0u64..5, 0u64..6), 1..8),
            pad in 0u64..5,
            view_off in 0u64..200,
            len in 0u64..200,
        ) {
            let mut at = 0;
            let segments: Vec<(u64, u64)> = (steps.iter())
                .map(|&(gap, len)| {
                    at += gap + len;
                    (at - len, len)
                })
                .collect();
            let size: u64 = segments.iter().map(|&(_, l)| l).sum();
            if size == 0 {
                return Ok(());
            }
            let ftype = Flattened { segments, extent: at + pad, size };
            // The file offset of visible byte `b`.
            let file_of = |b: u64| {
                let (tile, mut within) = (b / size, b % size);
                let &(off, _) = (ftype.segments.iter())
                    .find(|&&(_, l)| within < l || {
                        within -= l;
                        false
                    })
                    .unwrap();
                disp + tile * ftype.extent + off + within
            };
            let mut want: Vec<(u64, u64)> = Vec::new();
            for f in (view_off..view_off + len).map(file_of) {
                match want.last_mut() {
                    Some((o, l)) if *o + *l == f => *l += 1,
                    _ => want.push((f, 1)),
                }
            }
            let v = FileView::new(disp, ftype.clone()).unwrap();
            proptest::prop_assert_eq!(segs(&v, view_off, len), want.clone());
            let span = want.first().zip(want.last()).map(|(f, l)| (f.0, l.0 + l.1));
            proptest::prop_assert_eq!(v.span(view_off, len), span);
        }
    }
}
