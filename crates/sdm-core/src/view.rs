//! Map-array data views.
//!
//! `SDM_data_view` hands SDM a *map array*: for each local element, its
//! global index in the file. A file view must be monotone, so SDM keeps
//! the map's indices in ascending order — sorting them unless the map is
//! ascending already — and remembers the permutation, applying it to the
//! user's buffer on writes (and inverting it on reads). The user's local
//! element order stays intact while the file sees globally ordered data.
//!
//! [`DataView::compile`] lowers the ascending indices straight to byte
//! segments, one per run of consecutive indices: there is no datatype
//! tree to build and flatten. It finds each run's end by galloping, so
//! past one O(n) check that the map ascends, the segments cost
//! O(runs · log run length) probes rather than a visit to every element.
//! A map that is already strictly ascending — what a partition's
//! owned-element list is — skips the sort, and its data needs no
//! permutation: SDM writes and reads the caller's buffer in place.

use sdm_mpi::datatype::{Filetype, Flattened};

use crate::error::{SdmError, SdmResult};
use crate::types::SdmType;

/// A compiled data view for one dataset.
#[derive(Debug, Clone)]
pub struct DataView {
    /// Sorted global indices (element units).
    pub sorted_map: Vec<u64>,
    /// `perm[k]` = position in the *user's local order* of the element
    /// that goes to `sorted_map[k]`'s file slot.
    pub perm: Vec<u32>,
    /// Flattened filetype built from `sorted_map` (element units scaled
    /// by the element size), relative to the dataset's base offset. Every
    /// file view installed for this dataset shares it.
    pub ftype: Filetype,
    /// Element size in bytes.
    pub elem_size: u64,
    /// The map was strictly ascending: `perm` is `0..n`, and every
    /// permutation is a copy.
    identity: bool,
}

impl DataView {
    /// Compile a map array. `global_len` is the dataset's global element
    /// count (for bounds checks); duplicate indices are rejected, and so
    /// is a `global_len` whose byte size overflows a file offset.
    pub fn compile(map: &[u64], global_len: u64, ty: SdmType) -> SdmResult<Self> {
        let esize = ty.size();
        // Every index is below `global_len`, so this also bounds every
        // segment's offset and end.
        let extent = global_len.checked_mul(esize).ok_or_else(|| {
            SdmError::Usage(format!(
                "a {global_len}-element array of {esize}-byte elements overflows the file offset"
            ))
        })?;
        let identity = map.windows(2).all(|w| w[0] < w[1]);
        let (sorted_map, perm) = if identity {
            (map.to_vec(), (0..map.len() as u32).collect())
        } else {
            let mut idx: Vec<u32> = (0..map.len() as u32).collect();
            idx.sort_unstable_by_key(|&k| map[k as usize]);
            let sorted_map: Vec<u64> = idx.iter().map(|&k| map[k as usize]).collect();
            if let Some(w) = sorted_map.windows(2).find(|w| w[0] == w[1]) {
                return Err(SdmError::Usage(format!(
                    "duplicate global index {} in map array",
                    w[0]
                )));
            }
            (sorted_map, idx)
        };
        if let Some(&last) = sorted_map.last() {
            if last >= global_len {
                return Err(SdmError::Usage(format!(
                    "map index {last} out of range for global size {global_len}"
                )));
            }
        }
        let ftype = Flattened {
            segments: run_segments(&sorted_map, esize),
            extent,
            size: sorted_map.len() as u64 * esize,
        }
        .into();
        Ok(Self {
            sorted_map,
            perm,
            ftype,
            elem_size: esize,
            identity,
        })
    }

    /// Local element count.
    pub fn len(&self) -> usize {
        self.sorted_map.len()
    }

    /// Whether the view selects nothing.
    pub fn is_empty(&self) -> bool {
        self.sorted_map.is_empty()
    }

    /// Whether the map was strictly ascending, so that a buffer in the
    /// caller's order is already in file order.
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    pub(crate) fn check_len(&self, what: &str, len: usize) -> SdmResult<()> {
        if len != self.perm.len() {
            return Err(SdmError::Usage(format!(
                "{what} has {len} elements but view selects {}",
                self.perm.len()
            )));
        }
        Ok(())
    }

    /// Reorder a user buffer (local order) into file order.
    pub fn to_file_order<T: Copy>(&self, user: &[T]) -> SdmResult<Vec<T>> {
        self.check_len("buffer", user.len())?;
        if self.identity {
            return Ok(user.to_vec());
        }
        Ok(self.perm.iter().map(|&k| user[k as usize]).collect())
    }

    /// [`DataView::to_file_order`], permuting straight into a byte
    /// buffer: one allocation and one pass, for callers (the timestep
    /// scope, under a permuted view) that stage the result as raw bytes.
    pub fn to_file_order_bytes<T: sdm_mpi::pod::Pod>(&self, user: &[T]) -> SdmResult<Vec<u8>> {
        self.check_len("buffer", user.len())?;
        let src = sdm_mpi::pod::as_bytes(user);
        if self.identity {
            return Ok(src.to_vec());
        }
        let esize = std::mem::size_of::<T>();
        let mut out = vec![0u8; src.len()];
        for (k, &p) in self.perm.iter().enumerate() {
            let s = p as usize * esize;
            out[k * esize..(k + 1) * esize].copy_from_slice(&src[s..s + esize]);
        }
        Ok(out)
    }

    /// Scatter file-ordered data back into the user's local order.
    pub fn to_user_order<T: Copy + Default>(&self, file_ordered: &[T]) -> SdmResult<Vec<T>> {
        let mut out = vec![T::default(); file_ordered.len()];
        self.to_user_order_into(file_ordered, &mut out)?;
        Ok(out)
    }

    /// [`DataView::to_user_order`] into the caller's buffer, which must
    /// be as long as the view; on an error `out` is untouched.
    pub fn to_user_order_into<T: Copy>(&self, file_ordered: &[T], out: &mut [T]) -> SdmResult<()> {
        self.check_len("file buffer", file_ordered.len())?;
        self.check_len("output buffer", out.len())?;
        if self.identity {
            out.copy_from_slice(file_ordered);
        } else {
            for (&x, &p) in file_ordered.iter().zip(&self.perm) {
                out[p as usize] = x;
            }
        }
        Ok(())
    }

    /// [`DataView::to_user_order`] taking the file-ordered buffer by
    /// value: an identity view hands it back as it is.
    pub(crate) fn to_user_order_owned<T: Copy + Default>(
        &self,
        file_ordered: Vec<T>,
    ) -> SdmResult<Vec<T>> {
        if self.identity {
            self.check_len("file buffer", file_ordered.len())?;
            return Ok(file_ordered);
        }
        self.to_user_order(&file_ordered)
    }
}

/// The byte segments of strictly ascending indices: one per run of
/// consecutive indices, found by galloping. In a strictly ascending list
/// `sorted[j] - sorted[i] >= j - i`, with equality exactly while the run
/// from `i` continues, so doubling steps find a probe past the run's end
/// and a binary search between the last two probes finds the end itself:
/// O(log run length) probes per run (Bentley and Yao, "An almost optimal
/// algorithm for unbounded searching", IPL 1976).
fn run_segments(sorted: &[u64], esize: u64) -> Vec<(u64, u64)> {
    let mut segments = Vec::new();
    let mut i = 0;
    while let Some(&first) = sorted.get(i) {
        let in_run = |j: usize| sorted[j] - first == (j - i) as u64;
        // `last` is in the run; `past` is out of it or out of the list.
        let (mut last, mut step) = (i, 1);
        let mut past = loop {
            let probe = last + step;
            if probe >= sorted.len() || !in_run(probe) {
                break probe.min(sorted.len());
            }
            last = probe;
            step *= 2;
        };
        while past - last > 1 {
            let mid = last + (past - last) / 2;
            if in_run(mid) {
                last = mid;
            } else {
                past = mid;
            }
        }
        segments.push((first * esize, (last + 1 - i) as u64 * esize));
        i = last + 1;
    }
    segments
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sdm_mpi::datatype::Datatype;

    use super::*;

    /// The datatype path `compile` replaced, kept as its oracle: sort,
    /// reject duplicates and out-of-range indices, then flatten a
    /// `resized(indexed_block(1, sorted, elem))` filetype.
    fn oracle(map: &[u64], global_len: u64, ty: SdmType) -> SdmResult<DataView> {
        let mut perm: Vec<u32> = (0..map.len() as u32).collect();
        perm.sort_unstable_by_key(|&k| map[k as usize]);
        let sorted_map: Vec<u64> = perm.iter().map(|&k| map[k as usize]).collect();
        if let Some(w) = sorted_map.windows(2).find(|w| w[0] == w[1]) {
            return Err(SdmError::Usage(format!("duplicate {}", w[0])));
        }
        if sorted_map.last().is_some_and(|&last| last >= global_len) {
            return Err(SdmError::Usage("out of range".into()));
        }
        let elem = match ty {
            SdmType::Double => Datatype::double(),
            SdmType::Int32 => Datatype::int32(),
            SdmType::Int64 => Datatype::int64(),
        };
        let ftype = Datatype::resized(
            global_len * ty.size(),
            Datatype::indexed_block(1, sorted_map.clone(), elem),
        )
        .flatten()?
        .into();
        Ok(DataView {
            sorted_map,
            perm,
            ftype,
            elem_size: ty.size(),
            identity: false,
        })
    }

    /// `compile` and the oracle agree on the view or on the error kind,
    /// and both views' permutations are the gather and scatter by `perm`.
    fn check_against_oracle(map: &[u64], global_len: u64, ty: SdmType) -> Result<(), String> {
        let (v, o) = match (
            DataView::compile(map, global_len, ty),
            oracle(map, global_len, ty),
        ) {
            (Ok(v), Ok(o)) => (v, o),
            (Err(SdmError::Usage(_)), Err(SdmError::Usage(_))) => return Ok(()),
            (got, want) => {
                return Err(format!(
                    "map {map:?}: compile gave {got:?}, the oracle {want:?}"
                ))
            }
        };
        prop_assert_eq!(&v.ftype, &o.ftype);
        prop_assert_eq!(&v.sorted_map, &o.sorted_map);
        prop_assert_eq!(&v.perm, &o.perm);
        prop_assert_eq!(v.elem_size, o.elem_size);
        prop_assert_eq!(v.identity, map.windows(2).all(|w| w[0] < w[1]));
        let user: Vec<u64> = map.iter().map(|&g| g * 3 + 1).collect();
        let gathered: Vec<u64> = v.perm.iter().map(|&k| user[k as usize]).collect();
        let mut scattered = vec![0u64; user.len()];
        for (k, &p) in v.perm.iter().enumerate() {
            scattered[p as usize] = user[k];
        }
        for view in [&v, &o] {
            prop_assert_eq!(&view.to_file_order(&user).unwrap(), &gathered);
            prop_assert_eq!(
                view.to_file_order_bytes(&user).unwrap(),
                sdm_mpi::pod::as_bytes(&gathered)
            );
            prop_assert_eq!(&view.to_user_order(&user).unwrap(), &scattered);
            prop_assert_eq!(&view.to_user_order_owned(user.clone()).unwrap(), &scattered);
        }
        Ok(())
    }

    const TYPES: [SdmType; 3] = [SdmType::Double, SdmType::Int32, SdmType::Int64];

    /// The per-element coalescing loop `run_segments` replaced, kept as its
    /// oracle: visit every index, growing the last segment or starting
    /// one.
    fn coalesce_each(sorted: &[u64], esize: u64) -> Vec<(u64, u64)> {
        let mut segments: Vec<(u64, u64)> = Vec::new();
        for &g in sorted {
            let off = g * esize;
            match segments.last_mut() {
                Some((start, len)) if *start + *len == off => *len += esize,
                _ => segments.push((off, esize)),
            }
        }
        segments
    }

    /// Shuffle in place with a 64-bit LCG.
    fn shuffle(map: &mut [u64], mut seed: u64) {
        for i in (1..map.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            map.swap(i, (seed >> 33) as usize % (i + 1));
        }
    }

    /// A run length in 1..=2048: uniform, or one off a power of two.
    fn run_len() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..2049,
            (0u32..12, 0u64..3)
                .prop_map(|(k, d)| ((1u64 << k) + d).saturating_sub(1).clamp(1, 2048)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ascending and shuffled maps of every element type, with runs
        /// that end at the array's last element (`tail == 0`), and maps
        /// with a duplicate or an out-of-range index.
        #[test]
        fn compile_matches_the_datatype_oracle(
            picks in proptest::collection::btree_set(0u64..300, 0..240),
            tail in 0u64..3,
            shuffled in any::<bool>(),
            seed in any::<u64>(),
            fault in 0u8..5,
            ty in 0usize..3,
        ) {
            let mut map: Vec<u64> = picks.into_iter().collect();
            let global_len = map.last().map_or(1, |&g| g + 1) + tail;
            match (fault, map.first()) {
                (1, Some(&g)) => map.push(g),
                (2, _) => map.push(global_len + tail),
                _ => {}
            }
            if shuffled {
                shuffle(&mut map, seed);
            }
            check_against_oracle(&map, global_len, TYPES[ty])?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Maps made of runs of consecutive indices, separated by gaps of
        /// 1..=64, starting at index 0 or not and ending at the array's
        /// last element or not: galloping finds one segment per run, the
        /// segments the per-element loop builds, for every element type
        /// and for the map ascending and shuffled.
        #[test]
        fn galloping_finds_every_run(
            runs in proptest::collection::vec((run_len(), 1u64..65), 1..12),
            from_zero in any::<bool>(),
            to_end in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut map = Vec::new();
            let mut next = 0;
            for (k, &(len, gap)) in runs.iter().enumerate() {
                if k > 0 || !from_zero {
                    next += gap;
                }
                map.extend(next..next + len);
                next += len;
            }
            let global_len = if to_end { next } else { next + runs[0].1 };
            for ty in TYPES {
                let want = coalesce_each(&map, ty.size());
                prop_assert_eq!(want.len(), runs.len());
                for shuffled in [false, true] {
                    let mut user = map.clone();
                    if shuffled {
                        shuffle(&mut user, seed);
                    }
                    let v = DataView::compile(&user, global_len, ty).unwrap();
                    prop_assert_eq!(&v.ftype.segments, &want);
                }
            }
        }
    }

    #[test]
    fn empty_and_one_element_maps_match_the_oracle() {
        for ty in TYPES {
            for (map, global_len) in [(&[][..], 0), (&[][..], 4), (&[0][..], 1), (&[3][..], 4)] {
                check_against_oracle(map, global_len, ty).unwrap();
            }
        }
    }

    #[test]
    fn ascending_map_is_the_identity() {
        let v = DataView::compile(&[2, 3, 7], 8, SdmType::Double).unwrap();
        assert!(v.identity);
        assert_eq!(v.perm, vec![0, 1, 2]);
        assert_eq!(v.ftype.segments, vec![(16, 16), (56, 8)]);
        assert_eq!(
            v.to_file_order(&[1.0, 2.0, 3.0]).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        let mut out = [0.0; 3];
        v.to_user_order_into(&[1.0, 2.0, 3.0], &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert!(
            !DataView::compile(&[3, 2], 8, SdmType::Double)
                .unwrap()
                .identity
        );
    }

    #[test]
    fn byte_size_overflow_rejected() {
        assert!(matches!(
            DataView::compile(&[0, 3], u64::MAX / 4, SdmType::Double),
            Err(SdmError::Usage(_))
        ));
        assert!(matches!(
            DataView::compile(&[], u64::MAX / 2, SdmType::Int32),
            Err(SdmError::Usage(_))
        ));
        // The largest array whose byte size still fits.
        let v = DataView::compile(&[0, 3], u64::MAX / 8, SdmType::Double).unwrap();
        assert_eq!(v.ftype.extent, u64::MAX / 8 * 8);
    }

    #[test]
    fn user_order_into_leaves_out_untouched_on_a_length_error() {
        let v = DataView::compile(&[1, 0], 2, SdmType::Double).unwrap();
        let mut out = [9.0; 2];
        assert!(v.to_user_order_into(&[1.0], &mut out).is_err());
        assert!(v.to_user_order_into(&[1.0, 2.0], &mut out[..1]).is_err());
        assert_eq!(out, [9.0; 2]);
        v.to_user_order_into(&[1.0, 2.0], &mut out).unwrap();
        assert_eq!(out, [2.0, 1.0]);
    }

    #[test]
    fn sorted_map_and_permutation() {
        // User holds globals [5, 1, 3] in that local order.
        let v = DataView::compile(&[5, 1, 3], 10, SdmType::Double).unwrap();
        assert_eq!(v.sorted_map, vec![1, 3, 5]);
        assert_eq!(v.perm, vec![1, 2, 0]);
        let file_order = v.to_file_order(&[50.0, 10.0, 30.0]).unwrap();
        assert_eq!(file_order, vec![10.0, 30.0, 50.0]);
        let back = v.to_user_order(&file_order).unwrap();
        assert_eq!(back, vec![50.0, 10.0, 30.0]);
    }

    #[test]
    fn ftype_segments_scaled_by_elem_size() {
        let v = DataView::compile(&[0, 1, 4], 6, SdmType::Double).unwrap();
        // 0,1 coalesce; 4 separate.
        assert_eq!(v.ftype.segments, vec![(0, 16), (32, 8)]);
        assert_eq!(v.ftype.extent, 48);
        let vi = DataView::compile(&[0, 1, 4], 6, SdmType::Int32).unwrap();
        assert_eq!(vi.ftype.segments, vec![(0, 8), (16, 4)]);
    }

    #[test]
    fn duplicates_rejected() {
        assert!(matches!(
            DataView::compile(&[1, 1], 4, SdmType::Double),
            Err(SdmError::Usage(_))
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(DataView::compile(&[9], 9, SdmType::Double).is_err());
        assert!(DataView::compile(&[8], 9, SdmType::Double).is_ok());
    }

    #[test]
    fn wrong_buffer_length_rejected() {
        let v = DataView::compile(&[0, 2], 4, SdmType::Double).unwrap();
        assert!(v.to_file_order(&[1.0]).is_err());
        assert!(v.to_user_order(&[1.0, 2.0, 3.0]).is_err());
        assert!(v.to_file_order_bytes(&[1.0]).is_err());
    }

    #[test]
    fn byte_permutation_matches_typed_permutation() {
        let v = DataView::compile(&[5, 1, 3], 10, SdmType::Double).unwrap();
        let user = [50.0f64, 10.0, 30.0];
        let typed = v.to_file_order(&user).unwrap();
        let bytes = v.to_file_order_bytes(&user).unwrap();
        assert_eq!(bytes, sdm_mpi::pod::as_bytes(&typed));
        let vi = DataView::compile(&[2, 0], 4, SdmType::Int32).unwrap();
        let ints = [7i32, -9];
        assert_eq!(
            vi.to_file_order_bytes(&ints).unwrap(),
            sdm_mpi::pod::as_bytes(&vi.to_file_order(&ints).unwrap())
        );
    }

    #[test]
    fn empty_view() {
        let v = DataView::compile(&[], 4, SdmType::Double).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(v.to_file_order::<f64>(&[]).unwrap().is_empty());
    }
}
