//! Property tests: every partitioner yields valid, total assignments;
//! multilevel respects its balance bound; refinement never worsens cut
//! and returns what a plain FM with no heap and no locked-cut exit returns;
//! contraction yields ascending rows with merged weights.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use proptest::prelude::*;
use sdm_mesh::gen::tet_box;
use sdm_mesh::CsrGraph;
use sdm_partition::multilevel::coarsen::contract;
use sdm_partition::multilevel::matching::heavy_edge_matching;
use sdm_partition::multilevel::refine::{refine, RefineParams};
use sdm_partition::multilevel::wgraph::WGraph;
use sdm_partition::{edge_cut, imbalance, partition, Method};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn all_methods_produce_valid_total_assignments(
        dims in (3usize..6, 3usize..6, 2usize..5),
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mesh = tet_box(dims.0, dims.1, dims.2, 0.2, seed);
        let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        for method in [Method::Multilevel, Method::Rcb, Method::Block, Method::Random] {
            let pv = partition(&g, Some(&mesh.coords), k, method, seed);
            prop_assert_eq!(pv.len(), mesh.num_nodes());
            prop_assert!(pv.iter().all(|&p| (p as usize) < k), "{:?}", method);
        }
    }

    #[test]
    fn multilevel_balance_bound(
        side in 5usize..9,
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        let mesh = tet_box(side, side, side, 0.15, seed);
        let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        let pv = partition(&g, None, k, Method::Multilevel, seed);
        let imb = imbalance(&pv, k);
        prop_assert!(imb <= 1.35, "k={} imbalance {} too high", k, imb);
    }

    #[test]
    fn multilevel_beats_random_cut(seed in any::<u64>()) {
        let mesh = tet_box(7, 7, 7, 0.2, seed);
        let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        let ml = partition(&g, None, 4, Method::Multilevel, seed);
        let rnd = partition(&g, None, 4, Method::Random, seed);
        prop_assert!(edge_cut(&g, &ml) < edge_cut(&g, &rnd));
    }

    #[test]
    fn refinement_never_worsens(
        side in 4usize..8,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mesh = tet_box(side, side, 3, 0.1, seed);
        let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        let wg = WGraph::from_csr(&g);
        let mut part = partition(&g, None, k, Method::Random, seed);
        let before = wg.cut(&part);
        refine(&wg, &mut part, k, RefineParams::default());
        prop_assert!(wg.cut(&part) <= before);
        prop_assert!(part.iter().all(|&p| (p as usize) < k));
    }

    /// Refinement's tie-breaks follow row order, so coarse rows must be
    /// ascending; two levels, so the second contracts merged weights.
    #[test]
    fn contract_rows_are_ascending_and_merged(
        n in 2usize..40,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        seed in any::<u64>(),
    ) {
        let edges: Vec<(u32, u32)> = raw.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
        let mut g = WGraph::from_csr(&CsrGraph::from_edges(n, &edges));
        for level in 0..2 {
            let (cg, cmap) = contract(&g, &heavy_edge_matching(&g, seed ^ level));
            let (mut want_rows, mut want_vwgt) = (BTreeMap::new(), vec![0u64; cg.n()]);
            for v in 0..g.n() {
                want_vwgt[cmap[v] as usize] += g.vwgt[v];
                for e in g.nbr_range(v) {
                    let (a, b) = (cmap[v], cmap[g.adjncy[e] as usize]);
                    if a != b {
                        *want_rows.entry((a, b)).or_insert(0u64) += g.adjwgt[e];
                    }
                }
            }
            let rows: Vec<_> = (0..cg.n())
                .flat_map(|c| cg.nbr_range(c).map(move |e| (c, e)))
                .map(|(c, e)| ((c as u32, cg.adjncy[e]), cg.adjwgt[e]))
                .collect();
            prop_assert_eq!(rows, want_rows.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(&cg.vwgt, &want_vwgt);
            g = cg;
        }
    }
}

/// Reference FM for `refine`, with no heap and no early exit. Each step
/// scans the unmoved, unparked vertices for the greatest
/// `(gain, Reverse(v))`, the gain ignoring caps; a vertex with no legal
/// target is parked until a neighbour moves. Each pass runs to the end,
/// or until `max_stall` moves that leave every part within its cap have
/// been made since the best prefix last improved, then rolls back to its
/// best prefix: feasible first, then lower cut, ties to the earlier.
fn reference_refine(g: &WGraph, part: &mut [u32], k: usize, params: RefineParams) {
    let (n, total) = (g.n(), g.total_weight());
    let cap =
        ((total as f64 / k as f64 * params.max_imbalance) as u64).max(total.div_ceil(k as u64));
    let slack = g.vwgt.iter().copied().max().unwrap_or(0);
    let weights = |part: &[u32]| {
        let mut w = vec![0u64; k];
        (0..n).for_each(|v| w[part[v] as usize] += g.vwgt[v]);
        w
    };
    // `(gain, p)` for each foreign part p, in the order v's row meets them.
    let gains = |part: &[u32], v: usize| {
        let (mut home, mut out) = (0i64, Vec::<(usize, i64)>::new());
        for e in g.nbr_range(v) {
            let (p, w) = (part[g.adjncy[e] as usize] as usize, g.adjwgt[e] as i64);
            match out.iter_mut().find(|c| c.0 == p) {
                _ if p == part[v] as usize => home += w,
                Some(c) => c.1 += w,
                None => out.push((p, w)),
            }
        }
        out.into_iter().map(move |(p, w)| (w - home, p))
    };
    for _ in 0..params.passes {
        let feasible = |part: &[u32]| weights(part).iter().all(|&w| w <= cap);
        let initial_feasible = feasible(part);
        let (mut moved, mut parked, mut history) = (vec![false; n], vec![false; n], vec![]);
        let mut best = ((initial_feasible, -(g.cut(part) as i64)), 0);
        let mut stall = 0;
        while stall < params.max_stall {
            let free = (0..n).filter(|&v| !moved[v] && !parked[v]);
            let pick = free.filter_map(|v| Some((gains(part, v).map(|c| c.0).max()?, Reverse(v))));
            let Some((_, Reverse(v))) = pick.max() else {
                break;
            };
            // The greatest gain, then the lightest part, then the first met.
            let pw = weights(part);
            let legal = gains(part, v).filter(|&(_, p)| pw[p] + g.vwgt[v] <= cap + slack);
            let Some((_, to)) = legal.min_by_key(|&(gain, p)| (Reverse(gain), pw[p])) else {
                parked[v] = true;
                continue;
            };
            moved[v] = true;
            history.push((v, part[v]));
            part[v] = to as u32;
            g.nbr_range(v)
                .for_each(|e| parked[g.adjncy[e] as usize] = false);
            let key = (feasible(part) || !initial_feasible, -(g.cut(part) as i64));
            if key > best.0 {
                (best, stall) = ((key, history.len()), 0);
            } else if feasible(part) {
                stall += 1;
            }
        }
        for &(v, old) in history[best.1..].iter().rev() {
            part[v] = old;
        }
        if best.1 == 0 {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `refine`'s heap and early exit change how fast it runs, never what
    /// it returns: it matches the reference FM from random starts on
    /// random simple graphs with symmetric weights, with stall limits
    /// small enough to fire on them and none.
    #[test]
    fn refine_matches_reference_fm(
        n in 2usize..60,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..180),
        vwgt in proptest::collection::vec(1u64..6, 60),
        start in proptest::collection::vec(any::<u32>(), 60),
        (k, passes, imbalance_pct, salt) in (2usize..9, 1usize..7, 100u32..140, any::<u64>()),
        max_stall in prop_oneof![1usize..13, Just(usize::MAX)],
    ) {
        let mut edges: Vec<(u32, u32)> = raw.iter().map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|&(a, b)| a != b).map(|(a, b)| (a.min(b), a.max(b))).collect();
        edges.sort_unstable();
        edges.dedup();
        let mut g = WGraph::from_csr(&CsrGraph::from_edges(n, &edges));
        // One weight per undirected edge, the same from both ends.
        let edge_weight = |a: usize, b: usize| {
            let key = ((a.min(b) as u64) << 32 | a.max(b) as u64) ^ salt;
            1 + (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62)
        };
        for v in 0..n {
            for e in g.nbr_range(v) {
                g.adjwgt[e] = edge_weight(v, g.adjncy[e] as usize);
            }
        }
        g.vwgt = vwgt[..n].to_vec();
        let max_imbalance = imbalance_pct as f64 / 100.0;
        let params = RefineParams { max_imbalance, passes, max_stall };
        let mut want: Vec<u32> = start[..n].iter().map(|&p| p % k as u32).collect();
        let mut got = want.clone();
        reference_refine(&g, &mut want, k, params);
        refine(&g, &mut got, k, params);
        prop_assert_eq!(got, want);
    }
}
