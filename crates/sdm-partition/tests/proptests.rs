//! Property tests: every partitioner yields valid, total assignments;
//! multilevel respects its balance bound; refinement never worsens cut;
//! contraction yields ascending rows with merged weights.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdm_mesh::gen::tet_box;
use sdm_mesh::CsrGraph;
use sdm_partition::multilevel::coarsen::contract;
use sdm_partition::multilevel::matching::heavy_edge_matching;
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
        use sdm_partition::multilevel::refine::{refine, RefineParams};
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
