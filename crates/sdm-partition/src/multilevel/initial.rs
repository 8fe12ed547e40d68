//! Greedy graph-growing initial partition (GGGP).

use sdm_sim::rng::SplitMix64;

use crate::multilevel::wgraph::WGraph;

/// Partition the (coarsest) graph into `nparts` by growing regions:
/// each of the first `nparts - 1` parts starts from an unassigned seed
/// and absorbs the unassigned neighbour with the strongest connection
/// to the growing region until it reaches its weight target; the last
/// part takes everything still unassigned. Stragglers from regions that
/// ran out of frontier (disconnected enclaves) join their most-connected
/// part *that still has room*, else the lightest part — without the
/// has-room rule a single enclave cascades the whole remainder into an
/// already-full neighbour.
pub fn greedy_growing(g: &WGraph, nparts: usize, seed: u64) -> Vec<u32> {
    let n = g.n();
    let mut part = vec![u32::MAX; n];
    if n == 0 {
        return part;
    }
    let total = g.total_weight();
    let target = total.div_ceil(nparts as u64);
    let mut rng = SplitMix64::new(seed);
    let mut part_weight = vec![0u64; nparts];

    for p in 0..(nparts as u32).saturating_sub(1) {
        // Seed: a random unassigned node (fall back to scan).
        let seed_node = {
            let unassigned: Vec<usize> = (0..n).filter(|&v| part[v] == u32::MAX).collect();
            if unassigned.is_empty() {
                break;
            }
            unassigned[rng.next_below(unassigned.len() as u64) as usize]
        };
        part[seed_node] = p;
        part_weight[p as usize] += g.vwgt[seed_node];
        // Gain of each unassigned node = total edge weight into part p.
        let mut gain = vec![0u64; n];
        let mut frontier: Vec<usize> = Vec::new();
        let push_nbrs = |v: usize, gain: &mut Vec<u64>, frontier: &mut Vec<usize>, part: &[u32]| {
            for e in g.nbr_range(v) {
                let u = g.adjncy[e] as usize;
                if part[u] == u32::MAX {
                    if gain[u] == 0 {
                        frontier.push(u);
                    }
                    gain[u] += g.adjwgt[e];
                }
            }
        };
        push_nbrs(seed_node, &mut gain, &mut frontier, &part);
        while part_weight[p as usize] < target {
            // Best frontier node (max gain, lowest id).
            frontier.retain(|&u| part[u] == u32::MAX);
            let Some(&best) = frontier
                .iter()
                .max_by_key(|&&u| (gain[u], std::cmp::Reverse(u)))
            else {
                break; // region exhausted (disconnected)
            };
            part[best] = p;
            part_weight[p as usize] += g.vwgt[best];
            push_nbrs(best, &mut gain, &mut frontier, &part);
        }
    }

    // The last part is the remainder. If earlier regions exhausted their
    // component and broke early, the remainder may be heavy; refinement
    // rebalances later. Enclave stragglers are redirected to connected
    // parts with room first so the last part is not a dumping ground for
    // everything.
    let last = (nparts - 1) as u32;
    for v in 0..n {
        if part[v] != u32::MAX {
            continue;
        }
        if part_weight[last as usize] < target {
            part[v] = last;
            part_weight[last as usize] += g.vwgt[v];
            continue;
        }
        let mut conn = vec![0u64; nparts];
        for e in g.nbr_range(v) {
            let u = g.adjncy[e] as usize;
            if part[u] != u32::MAX {
                conn[part[u] as usize] += g.adjwgt[e];
            }
        }
        let best = (0..nparts)
            .filter(|&p| conn[p] > 0 && part_weight[p] < target)
            .max_by_key(|&p| (conn[p], std::cmp::Reverse(p)))
            .or_else(|| (0..nparts).min_by_key(|&p| part_weight[p]))
            .unwrap_or(0);
        part[v] = best as u32;
        part_weight[best] += g.vwgt[v];
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance;
    use crate::vector::validate;
    use sdm_mesh::CsrGraph;

    fn wg(n: usize, edges: &[(u32, u32)]) -> WGraph {
        WGraph::from_csr(&CsrGraph::from_edges(n, edges))
    }

    #[test]
    fn covers_all_nodes() {
        let g = wg(
            10,
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)],
        );
        let p = greedy_growing(&g, 3, 1);
        assert!(p.iter().all(|&x| x != u32::MAX));
        validate(&p, 3, false).unwrap();
    }

    #[test]
    fn path_bisection_is_contiguous_and_balanced() {
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let g = wg(20, &edges);
        let p = greedy_growing(&g, 2, 5);
        assert!(imbalance(&p, 2) <= 1.2, "imbalance {}", imbalance(&p, 2));
        // A grown region on a path is an interval: cut must be small.
        assert!(g.cut(&p) <= 2, "cut {} too high for a path", g.cut(&p));
    }

    #[test]
    fn enclave_seed_does_not_collapse_balance() {
        // Many seeds: whatever unlucky enclave the second seed lands in,
        // the bisection must stay roughly balanced because the remainder
        // flows to the part with room.
        let edges: Vec<(u32, u32)> = (0..39).map(|i| (i, i + 1)).collect();
        let g = wg(40, &edges);
        for seed in 0..10 {
            let p = greedy_growing(&g, 2, seed);
            let imb = imbalance(&p, 2);
            assert!(imb <= 1.3, "seed {seed}: imbalance {imb}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let edges: Vec<(u32, u32)> = (0..29).map(|i| (i, i + 1)).collect();
        let g = wg(30, &edges);
        assert_eq!(greedy_growing(&g, 4, 9), greedy_growing(&g, 4, 9));
    }

    #[test]
    fn single_part() {
        let g = wg(5, &[(0, 1), (2, 3)]);
        assert_eq!(greedy_growing(&g, 1, 0), vec![0; 5]);
    }
}
