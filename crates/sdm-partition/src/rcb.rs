//! Recursive coordinate bisection.
//!
//! Geometric partitioner: recursively split the node set at the weighted
//! median along the widest coordinate axis, allocating parts
//! proportionally (handles non-power-of-two part counts).

use std::cmp::Ordering;

use crate::vector::PartitionVector;

/// Partition by recursive coordinate bisection over `coords`.
pub fn partition_rcb(coords: &[[f64; 3]], nparts: usize) -> PartitionVector {
    assert!(nparts > 0);
    let mut vector = vec![0u32; coords.len()];
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    bisect(coords, &mut ids, 0, nparts, &mut vector);
    vector
}

fn bisect(
    coords: &[[f64; 3]],
    ids: &mut [u32],
    first_part: usize,
    nparts: usize,
    out: &mut Vec<u32>,
) {
    if nparts == 1 || ids.len() <= 1 {
        for &i in ids.iter() {
            out[i as usize] = first_part as u32;
        }
        // If several parts were requested but only <=1 node remains, the
        // extra parts stay empty; callers requesting nparts <= n avoid this.
        return;
    }
    // Widest axis.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &i in ids.iter() {
        for a in 0..3 {
            lo[a] = lo[a].min(coords[i as usize][a]);
            hi[a] = hi[a].max(coords[i as usize][a]);
        }
    }
    // An incomparable pair (a NaN coordinate) ties instead of panicking.
    let axis = (0..3)
        .max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .unwrap_or(Ordering::Equal)
        })
        .unwrap_or(0);

    // Split proportionally: left gets floor(nparts/2) parts' worth.
    let left_parts = nparts / 2;
    let split = ids.len() * left_parts / nparts;
    // Order-statistics split by the chosen axis (ties broken by node id
    // for determinism).
    ids.sort_unstable_by(|&a, &b| {
        coords[a as usize][axis]
            .partial_cmp(&coords[b as usize][axis])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    let (left, right) = ids.split_at_mut(split);
    bisect(coords, left, first_part, left_parts, out);
    bisect(
        coords,
        right,
        first_part + left_parts,
        nparts - left_parts,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use crate::vector::validate;
    use sdm_mesh::gen::tet_box;
    use sdm_mesh::CsrGraph;

    #[test]
    fn splits_line_in_half() {
        let coords: Vec<[f64; 3]> = (0..10).map(|i| [i as f64, 0.0, 0.0]).collect();
        let v = partition_rcb(&coords, 2);
        assert_eq!(&v[..5], &[0; 5]);
        assert_eq!(&v[5..], &[1; 5]);
    }

    #[test]
    fn three_parts_proportional() {
        let coords: Vec<[f64; 3]> = (0..9).map(|i| [i as f64, 0.0, 0.0]).collect();
        let v = partition_rcb(&coords, 3);
        validate(&v, 3, true).unwrap();
        assert!(imbalance(&v, 3) <= 1.34, "imbalance {}", imbalance(&v, 3));
    }

    #[test]
    fn rcb_beats_random_cut_on_mesh() {
        let m = tet_box(8, 8, 8, 0.1, 5);
        let g = CsrGraph::from_edges(m.num_nodes(), &m.edges);
        let rcb = partition_rcb(&m.coords, 8);
        let rnd = crate::random::partition_random(m.num_nodes(), 8, 1);
        let cut_rcb = edge_cut(&g, &rcb);
        let cut_rnd = edge_cut(&g, &rnd);
        assert!(
            cut_rcb < cut_rnd / 2,
            "RCB cut {cut_rcb} should be far below random cut {cut_rnd}"
        );
        validate(&rcb, 8, true).unwrap();
        assert!(imbalance(&rcb, 8) <= 1.1);
    }

    #[test]
    fn single_part_is_all_zero() {
        let coords: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, 0.0, 0.0]).collect();
        assert_eq!(partition_rcb(&coords, 1), vec![0; 5]);
    }

    #[test]
    fn deterministic_under_ties() {
        let coords = vec![[1.0, 0.0, 0.0]; 8];
        let a = partition_rcb(&coords, 4);
        let b = partition_rcb(&coords, 4);
        assert_eq!(a, b);
        validate(&a, 4, true).unwrap();
    }
}
