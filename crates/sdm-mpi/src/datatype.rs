//! MPI derived datatypes and flattening.
//!
//! SDM's central trick (after [Thakur, Gropp, Lusk SC'98]) is describing
//! noncontiguous data — the irregular file regions named by a map array —
//! as derived datatypes, so one collective I/O call moves everything.
//! This module is the datatype algebra: constructors mirroring
//! `MPI_Type_contiguous` / `indexed` / `create_resized`, and
//! [`Datatype::flatten`] which lowers any type to a sorted-by-construction
//! list of `(byte offset, byte length)` segments with adjacent runs
//! coalesced — the representation the I/O layer consumes.

use std::ops::Deref;
use std::sync::Arc;

use crate::error::{MpiError, MpiResult};

/// A derived datatype: a tree of layout combinators over an elementary
/// byte size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// An elementary type of the given byte size (e.g. 8 for f64).
    Elementary(usize),
    /// `count` repetitions laid out back to back.
    Contiguous {
        /// Repetition count.
        count: usize,
        /// Inner type.
        inner: Box<Datatype>,
    },
    /// Blocks at explicit displacements (in inner extents), each with its
    /// own length (like `MPI_Type_indexed`).
    Indexed {
        /// Per-block element counts.
        blocklens: Vec<usize>,
        /// Per-block displacements in inner extents (must be >= 0).
        displs: Vec<u64>,
        /// Inner type.
        inner: Box<Datatype>,
    },
    /// An inner type with its extent overridden (like `MPI_Type_create_resized`
    /// with lb = 0), controlling the tiling period in file views.
    Resized {
        /// The overridden extent in bytes.
        extent: u64,
        /// Inner type.
        inner: Box<Datatype>,
    },
}

impl Datatype {
    /// 8-byte float (C `double`), the paper's dominant element type.
    pub fn double() -> Self {
        Datatype::Elementary(8)
    }

    /// 4-byte integer (C `int`), used for edge/index arrays.
    pub fn int32() -> Self {
        Datatype::Elementary(4)
    }

    /// 8-byte integer.
    pub fn int64() -> Self {
        Datatype::Elementary(8)
    }

    /// Single byte.
    pub fn byte() -> Self {
        Datatype::Elementary(1)
    }

    /// `count` copies of `inner`, contiguous.
    pub fn contiguous(count: usize, inner: Datatype) -> Self {
        Datatype::Contiguous {
            count,
            inner: Box::new(inner),
        }
    }

    /// Indexed blocks with per-block lengths.
    pub fn indexed(blocklens: Vec<usize>, displs: Vec<u64>, inner: Datatype) -> Self {
        Datatype::Indexed {
            blocklens,
            displs,
            inner: Box::new(inner),
        }
    }

    /// Indexed blocks of uniform length `blocklen` (like
    /// `MPI_Type_create_indexed_block`).
    pub fn indexed_block(blocklen: usize, displs: Vec<u64>, inner: Datatype) -> Self {
        Datatype::Indexed {
            blocklens: vec![blocklen; displs.len()],
            displs,
            inner: Box::new(inner),
        }
    }

    /// Override the extent (tiling period).
    pub fn resized(extent: u64, inner: Datatype) -> Self {
        Datatype::Resized {
            extent,
            inner: Box::new(inner),
        }
    }

    /// Total payload bytes one instance of this type describes.
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Elementary(s) => *s as u64,
            Datatype::Contiguous { count, inner } => *count as u64 * inner.size(),
            Datatype::Indexed {
                blocklens, inner, ..
            } => blocklens.iter().map(|&b| b as u64).sum::<u64>() * inner.size(),
            Datatype::Resized { inner, .. } => inner.size(),
        }
    }

    /// Extent in bytes: the span from byte 0 to the end of the last block
    /// (lower bound is always 0 here), used as the tiling period.
    pub fn extent(&self) -> u64 {
        match self {
            Datatype::Elementary(s) => *s as u64,
            Datatype::Contiguous { count, inner } => *count as u64 * inner.extent(),
            Datatype::Indexed {
                blocklens,
                displs,
                inner,
            } => {
                let ie = inner.extent();
                displs
                    .iter()
                    .zip(blocklens)
                    .map(|(&d, &b)| (d + b as u64) * ie)
                    .max()
                    .unwrap_or(0)
            }
            Datatype::Resized { extent, .. } => *extent,
        }
    }

    /// Lower to a flat segment list. Fails if the layout is not monotone
    /// (file views require monotonically nondecreasing offsets) or if
    /// blocks overlap.
    pub fn flatten(&self) -> MpiResult<Flattened> {
        let mut segs: Vec<(u64, u64)> = Vec::new();
        self.emit(0, &mut segs)?;
        // Verify monotonicity & coalesce.
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(segs.len());
        for (off, len) in segs {
            if len == 0 {
                continue;
            }
            match out.last_mut() {
                Some((loff, llen)) if *loff + *llen == off => *llen += len,
                Some((loff, llen)) if off < *loff + *llen => {
                    return Err(MpiError::InvalidDatatype(format!(
                        "non-monotone or overlapping segment at byte {off} (previous block ends at {})",
                        *loff + *llen
                    )));
                }
                _ => out.push((off, len)),
            }
        }
        Ok(Flattened {
            segments: out,
            extent: self.extent(),
            size: self.size(),
        })
    }

    fn emit(&self, base: u64, segs: &mut Vec<(u64, u64)>) -> MpiResult<()> {
        match self {
            Datatype::Elementary(s) => {
                segs.push((base, *s as u64));
                Ok(())
            }
            Datatype::Contiguous { count, inner } => {
                let ie = inner.extent();
                // Fast path: contiguous over elementary is one segment.
                if let Datatype::Elementary(s) = **inner {
                    segs.push((base, *count as u64 * s as u64));
                    return Ok(());
                }
                for i in 0..*count {
                    inner.emit(base + i as u64 * ie, segs)?;
                }
                Ok(())
            }
            Datatype::Indexed {
                blocklens,
                displs,
                inner,
            } => {
                if blocklens.len() != displs.len() {
                    return Err(MpiError::InvalidDatatype(format!(
                        "indexed: {} blocklens vs {} displs",
                        blocklens.len(),
                        displs.len()
                    )));
                }
                let ie = inner.extent();
                for (&d, &b) in displs.iter().zip(blocklens) {
                    let bstart = base + d * ie;
                    if let Datatype::Elementary(s) = **inner {
                        segs.push((bstart, b as u64 * s as u64));
                    } else {
                        for j in 0..b {
                            inner.emit(bstart + j as u64 * ie, segs)?;
                        }
                    }
                }
                Ok(())
            }
            Datatype::Resized { inner, .. } => inner.emit(base, segs),
        }
    }
}

/// A flattened datatype: sorted, coalesced, non-overlapping byte segments
/// plus the tiling extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flattened {
    /// `(byte offset, byte length)` runs in increasing offset order.
    pub segments: Vec<(u64, u64)>,
    /// Tiling period in bytes.
    pub extent: u64,
    /// Total payload bytes (sum of segment lengths).
    pub size: u64,
}

impl Flattened {
    /// A fully contiguous flattened type of `len` bytes.
    pub fn contiguous(len: u64) -> Self {
        Self {
            segments: if len == 0 { vec![] } else { vec![(0, len)] },
            extent: len,
            size: len,
        }
    }

    /// Whether the layout is a single gap-free run starting at 0.
    pub fn is_contiguous(&self) -> bool {
        match self.segments.as_slice() {
            [] => true,
            [(0, len)] => *len == self.size,
            _ => false,
        }
    }

    /// Number of holes (gaps between consecutive segments).
    pub fn hole_count(&self) -> usize {
        let mut holes = 0;
        let mut end = 0;
        for &(off, len) in &self.segments {
            if off > end {
                holes += 1;
            }
            end = off + len;
        }
        holes
    }
}

/// A flattened filetype, the payload bytes before each of its segments,
/// and why a file view could not tile it (if it could not), all worked
/// out in one pass: clones share them, so every file view installed with
/// a dataset's filetype searches the same prefix sums and checks nothing
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filetype(Arc<(Flattened, Vec<u64>, Option<&'static str>)>);

impl Filetype {
    /// The payload bytes before each segment.
    pub(crate) fn starts(&self) -> &[u64] {
        &self.0 .1
    }

    /// Why a file view cannot tile this filetype, if it cannot: its
    /// segments must ascend without overlapping (as MPI requires of a
    /// filetype's displacements; empty ones may sit among them), `size`
    /// must be their total length and not zero if there are any, and
    /// `extent` must reach the last segment's end.
    pub(crate) fn fault(&self) -> Option<&'static str> {
        self.0 .2
    }
}

impl From<Flattened> for Filetype {
    fn from(ftype: Flattened) -> Self {
        let mut starts = Vec::with_capacity(ftype.segments.len());
        let (mut end, mut size, mut fault) = (0u64, 0u64, None);
        for &(o, l) in &ftype.segments {
            starts.push(size);
            if o < end {
                fault.get_or_insert("segments overlap or descend");
            }
            match (o.checked_add(l), size.checked_add(l)) {
                (Some(e), Some(s)) => (end, size) = (e, s),
                _ => {
                    fault.get_or_insert("segments overflow the offset range");
                }
            }
        }
        let fault = fault.or(if size != ftype.size {
            Some("size differs from the sum of its segment lengths")
        } else if size == 0 && !ftype.segments.is_empty() {
            Some("has segments but no bytes")
        } else if ftype.extent < end {
            Some("extent smaller than its last segment end")
        } else {
            None
        });
        Self(Arc::new((ftype, starts, fault)))
    }
}

impl Deref for Filetype {
    type Target = Flattened;

    fn deref(&self) -> &Flattened {
        &self.0 .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementary_sizes() {
        assert_eq!(Datatype::double().size(), 8);
        assert_eq!(Datatype::int32().size(), 4);
        assert_eq!(Datatype::byte().extent(), 1);
    }

    #[test]
    fn contiguous_flattens_to_one_segment() {
        let t = Datatype::contiguous(100, Datatype::double());
        let f = t.flatten().unwrap();
        assert_eq!(f.segments, vec![(0, 800)]);
        assert_eq!(f.size, 800);
        assert_eq!(f.extent, 800);
        assert!(f.is_contiguous());
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(vec![2, 1], vec![1, 5], Datatype::double());
        let f = t.flatten().unwrap();
        assert_eq!(f.segments, vec![(8, 16), (40, 8)]);
        assert_eq!(f.size, 24);
        assert_eq!(f.extent, 48);
    }

    #[test]
    fn indexed_block_adjacent_coalesce() {
        // Global indices {3,4,5, 9} of an f64 array.
        let t = Datatype::indexed_block(1, vec![3, 4, 5, 9], Datatype::double());
        let f = t.flatten().unwrap();
        assert_eq!(f.segments, vec![(24, 24), (72, 8)]);
    }

    #[test]
    fn unsorted_indexed_rejected() {
        let t = Datatype::indexed_block(1, vec![5, 3], Datatype::double());
        assert!(matches!(t.flatten(), Err(MpiError::InvalidDatatype(_))));
    }

    #[test]
    fn overlapping_indexed_rejected() {
        let t = Datatype::indexed(vec![3, 1], vec![0, 1], Datatype::double());
        assert!(t.flatten().is_err());
    }

    #[test]
    fn mismatched_indexed_lengths_rejected() {
        let t = Datatype::indexed(vec![1], vec![0, 8], Datatype::byte());
        assert!(t.flatten().is_err());
    }

    #[test]
    fn nested_contiguous_of_indexed() {
        // 2 x (ints 0 and 2 of three): |X.X|X.X|
        let v = Datatype::indexed_block(1, vec![0, 2], Datatype::int32());
        // The indexed type's extent is (2+1)*4 = 12 bytes, so the second
        // instance starts at byte 12: segments at 0, 8, 12, 20 — and the
        // adjacent pair (8,4)+(12,4) coalesces into (8,8).
        let t = Datatype::contiguous(2, v);
        let f = t.flatten().unwrap();
        assert_eq!(f.segments, vec![(0, 4), (8, 8), (20, 4)]);
        assert_eq!(f.size, 16);
    }

    #[test]
    fn resized_controls_extent_only() {
        let t = Datatype::resized(64, Datatype::contiguous(2, Datatype::double()));
        let f = t.flatten().unwrap();
        assert_eq!(f.segments, vec![(0, 16)]);
        assert_eq!(f.extent, 64);
        assert_eq!(f.size, 16);
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, Datatype::double());
        let f = t.flatten().unwrap();
        assert!(f.segments.is_empty());
        assert_eq!(f.size, 0);
        assert!(f.is_contiguous());
    }

    #[test]
    fn flattened_contiguous_constructor() {
        let f = Flattened::contiguous(100);
        assert!(f.is_contiguous());
        assert_eq!(f.hole_count(), 0);
        assert!(Flattened::contiguous(0).segments.is_empty());
    }

    #[test]
    fn map_array_style_large() {
        // Every other element of a 1000-element f64 array.
        let displs: Vec<u64> = (0..500).map(|i| i * 2).collect();
        let t = Datatype::indexed_block(1, displs, Datatype::double());
        let f = t.flatten().unwrap();
        assert_eq!(f.segments.len(), 500);
        assert_eq!(f.size, 4000);
        assert_eq!(f.extent, (998 + 1) * 8);
    }
}
