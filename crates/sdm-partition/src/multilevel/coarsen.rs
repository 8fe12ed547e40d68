//! Graph contraction.

use crate::multilevel::wgraph::WGraph;

/// Contract matched pairs into coarse nodes. Returns the coarse graph and
/// the projection map `cmap[fine] = coarse`. Each coarse row lists its
/// neighbours in ascending order, each once, with the summed weight of
/// the fine edges between the two coarse nodes.
pub fn contract(g: &WGraph, mate: &[u32]) -> (WGraph, Vec<u32>) {
    let n = g.n();
    let mut cmap = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if cmap[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        cmap[v] = nc;
        cmap[m] = nc; // m == v for unmatched nodes
        nc += 1;
    }
    let ncn = nc as usize;

    // Coarse rows in id order (a pair's lower fine node handed out its
    // id). `slot[cu]` is cu's index in `row` while one row is gathered.
    let (mut xadj, mut adjncy, mut adjwgt) = (vec![0], Vec::new(), Vec::new());
    let mut vwgt = vec![0u64; ncn];
    let mut slot = vec![u32::MAX; ncn];
    let mut row: Vec<(u32, u64)> = Vec::new();
    for v in 0..n {
        let m = mate[v] as usize;
        if m < v {
            continue; // gathered with the partner's row
        }
        let cv = cmap[v];
        for w in std::iter::once(v).chain((m != v).then_some(m)) {
            vwgt[cv as usize] += g.vwgt[w];
            for e in g.nbr_range(w) {
                let cu = cmap[g.adjncy[e] as usize];
                if cu == cv {
                    continue; // interior (contracted) edge
                }
                if slot[cu as usize] == u32::MAX {
                    slot[cu as usize] = row.len() as u32;
                    row.push((cu, 0));
                }
                row[slot[cu as usize] as usize].1 += g.adjwgt[e];
            }
        }
        row.sort_unstable_by_key(|&(cu, _)| cu);
        for &(cu, w) in &row {
            slot[cu as usize] = u32::MAX;
            adjncy.push(cu);
            adjwgt.push(w);
        }
        row.clear();
        xadj.push(adjncy.len());
    }
    (
        WGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        },
        cmap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_mesh::CsrGraph;

    fn wg(n: usize, edges: &[(u32, u32)]) -> WGraph {
        WGraph::from_csr(&CsrGraph::from_edges(n, edges))
    }

    #[test]
    fn contract_square_pairwise() {
        // Square 0-1-3-2-0, match (0,1) and (2,3).
        let g = wg(4, &[(0, 1), (1, 3), (2, 3), (0, 2)]);
        let mate = vec![1, 0, 3, 2];
        let (cg, cmap) = contract(&g, &mate);
        assert_eq!(cg.n(), 2);
        assert_eq!(cmap[0], cmap[1]);
        assert_eq!(cmap[2], cmap[3]);
        assert_eq!(cg.vwgt, vec![2, 2]);
        // Two fine edges (1,3) and (0,2) between the coarse nodes.
        assert_eq!(cg.adjwgt, vec![2, 2]);
        assert_eq!(cg.cut(&[0, 1]), 2);
    }

    #[test]
    fn unmatched_nodes_survive() {
        let g = wg(3, &[(0, 1), (1, 2)]);
        let mate = vec![1, 0, 2]; // 2 unmatched
        let (cg, cmap) = contract(&g, &mate);
        assert_eq!(cg.n(), 2);
        assert_eq!(cg.vwgt.iter().sum::<u64>(), 3);
        assert_ne!(cmap[2], cmap[0]);
    }

    #[test]
    fn weight_conserved_across_levels() {
        let g = wg(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mate = crate::multilevel::matching::heavy_edge_matching(&g, 3);
        let (cg, _) = contract(&g, &mate);
        assert_eq!(cg.total_weight(), g.total_weight());
    }

    #[test]
    fn triangle_contraction_merges_parallel_edges() {
        // Triangle: match (0,1); coarse graph has one node pair with the
        // two fine edges (0,2) and (1,2) merged into weight 2.
        let g = wg(3, &[(0, 1), (0, 2), (1, 2)]);
        let (cg, _) = contract(&g, &[1, 0, 2]);
        assert_eq!(cg.n(), 2);
        assert_eq!(cg.adjwgt, vec![2, 2]);
    }
}
