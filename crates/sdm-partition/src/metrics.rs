//! Partition quality metrics.

use sdm_mesh::CsrGraph;

use crate::vector::{part_sizes, PartitionVector};

/// Number of edges whose endpoints lie in different parts. This is what
/// drives SDM's ghost-edge volume and therefore the communication cost of
/// the index distribution.
pub fn edge_cut(graph: &CsrGraph, vector: &PartitionVector) -> usize {
    let mut cut = 0usize;
    for v in 0..graph.num_nodes() {
        for &u in graph.neighbors(v) {
            if (u as usize) > v && vector[v] != vector[u as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// Load imbalance: `max part size / ideal size`. 1.0 is perfect.
pub fn imbalance(vector: &PartitionVector, nparts: usize) -> f64 {
    if vector.is_empty() {
        return 1.0;
    }
    let sizes = part_sizes(vector, nparts);
    let max = sizes.iter().max().copied().unwrap_or(0) as f64;
    let ideal = vector.len() as f64 / nparts as f64;
    max / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> CsrGraph {
        // 0-1
        // | |
        // 2-3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn cut_of_horizontal_split() {
        let g = square();
        // {0,1} vs {2,3}: cuts (0,2) and (1,3).
        assert_eq!(edge_cut(&g, &vec![0, 0, 1, 1]), 2);
    }

    #[test]
    fn cut_of_single_part_is_zero() {
        let g = square();
        assert_eq!(edge_cut(&g, &vec![0; 4]), 0);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        assert_eq!(imbalance(&vec![0, 0, 1, 1], 2), 1.0);
        assert_eq!(imbalance(&vec![0, 0, 0, 1], 2), 1.5);
        assert_eq!(imbalance(&vec![], 4), 1.0);
    }
}
