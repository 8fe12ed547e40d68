//! The multilevel driver.

use sdm_mesh::CsrGraph;

use crate::multilevel::coarsen::contract;
use crate::multilevel::initial::greedy_growing;
use crate::multilevel::matching::heavy_edge_matching;
use crate::multilevel::refine::{refine, RefineParams};
use crate::multilevel::wgraph::WGraph;
use crate::vector::PartitionVector;

/// Multilevel k-way partition of `graph` into `nparts`.
pub fn partition_kway(graph: &CsrGraph, nparts: usize, seed: u64) -> PartitionVector {
    assert!(nparts > 0);
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    if nparts == 1 {
        return vec![0; n];
    }
    if nparts >= n {
        // Degenerate: one node per part (extra parts empty).
        return (0..n as u32).collect();
    }

    // Coarsening phase.
    let coarsest_target = (30 * nparts).max(120);
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (fine graph, cmap fine->coarse)
    let mut g = WGraph::from_csr(graph);
    let mut level_seed = seed;
    while g.n() > coarsest_target {
        let mate = heavy_edge_matching(&g, level_seed);
        let (cg, cmap) = contract(&g, &mate);
        // Matching stalled (e.g. star graphs): stop coarsening.
        if cg.n() as f64 > g.n() as f64 * 0.95 {
            break;
        }
        levels.push((g, cmap));
        g = cg;
        level_seed = level_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }

    // Initial partition on the coarsest graph.
    let mut part = greedy_growing(&g, nparts, seed ^ 0x00C0_FFEE);
    refine(
        &g,
        &mut part,
        nparts,
        RefineParams {
            max_imbalance: 1.03,
            passes: 8,
            ..RefineParams::default()
        },
    );

    // Uncoarsening with refinement.
    while let Some((fine, cmap)) = levels.pop() {
        let mut fine_part = vec![0u32; fine.n()];
        for v in 0..fine.n() {
            fine_part[v] = part[cmap[v] as usize];
        }
        refine(
            &fine,
            &mut fine_part,
            nparts,
            RefineParams {
                max_imbalance: 1.05,
                passes: 4,
                ..RefineParams::default()
            },
        );
        part = fine_part;
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use crate::vector::validate;
    use sdm_mesh::gen::{tet_box, tri_rect};

    #[test]
    fn partitions_mesh_with_quality() {
        let m = tet_box(10, 10, 10, 0.1, 3);
        let g = CsrGraph::from_edges(m.num_nodes(), &m.edges);
        for k in [2, 4, 8] {
            let p = partition_kway(&g, k, 42);
            validate(&p, k, true).unwrap();
            let imb = imbalance(&p, k);
            assert!(imb <= 1.1, "k={k}: imbalance {imb}");
            let cut = edge_cut(&g, &p);
            let rnd = crate::random::partition_random(g.num_nodes(), k, 1);
            let rnd_cut = edge_cut(&g, &rnd);
            assert!(
                cut * 3 < rnd_cut,
                "k={k}: multilevel cut {cut} should be far below random {rnd_cut}"
            );
        }
    }

    #[test]
    fn comparable_to_rcb_on_geometric_mesh() {
        // On a jittered lattice, multilevel should be in RCB's league
        // (usually better) for edge cut.
        let m = tet_box(9, 9, 9, 0.2, 7);
        let g = CsrGraph::from_edges(m.num_nodes(), &m.edges);
        let ml = partition_kway(&g, 8, 5);
        let rcb = crate::rcb::partition_rcb(&m.coords, 8);
        let cut_ml = edge_cut(&g, &ml);
        let cut_rcb = edge_cut(&g, &rcb);
        assert!(
            (cut_ml as f64) < cut_rcb as f64 * 1.5,
            "multilevel {cut_ml} should be within 1.5x of RCB {cut_rcb}"
        );
    }

    #[test]
    fn two_d_mesh() {
        let m = tri_rect(30, 30);
        let g = CsrGraph::from_edges(m.num_nodes(), &m.edges);
        let p = partition_kway(&g, 6, 11);
        validate(&p, 6, true).unwrap();
        assert!(imbalance(&p, 6) <= 1.1);
    }

    #[test]
    fn deterministic() {
        let m = tet_box(6, 6, 6, 0.1, 1);
        let g = CsrGraph::from_edges(m.num_nodes(), &m.edges);
        assert_eq!(partition_kway(&g, 4, 9), partition_kway(&g, 4, 9));
    }

    #[test]
    fn degenerate_cases() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(partition_kway(&g, 1, 0), vec![0; 3]);
        let p = partition_kway(&g, 5, 0);
        assert_eq!(p, vec![0, 1, 2], "nparts >= n: one node per part");
        assert!(partition_kway(&CsrGraph::from_edges(0, &[]), 2, 0).is_empty());
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let g = CsrGraph::from_edges(10, &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = partition_kway(&g, 2, 3);
        validate(&p, 2, true).unwrap();
        assert!(edge_cut(&g, &p) <= 2);
    }
}
