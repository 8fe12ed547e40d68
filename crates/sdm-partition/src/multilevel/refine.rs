//! Boundary FM refinement (k-way, with move sequences and rollback).

use std::cmp::Reverse;

use crate::multilevel::wgraph::WGraph;

/// One refinement configuration.
#[derive(Debug, Clone, Copy)]
pub struct RefineParams {
    /// Maximum allowed imbalance (e.g. 1.05 = 5%).
    pub max_imbalance: f64,
    /// Number of improvement passes.
    pub passes: usize,
    /// Feasible moves a pass may make without a better prefix.
    pub max_stall: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        Self {
            max_imbalance: 1.05,
            passes: 4,
            max_stall: 10_000,
        }
    }
}

/// Fiduccia–Mattheyses-style refinement. Each pass builds a *sequence*
/// of single-vertex moves (every vertex moves at most once per pass):
/// the best-gain legal move is applied even when its gain is zero or
/// negative, letting the pass climb out of local minima, and the pass
/// then rolls back to the best prefix it saw. During the sequence a
/// part may exceed the balance cap by one vertex of slack; prefixes are
/// ranked feasible-first, so the kept state respects the cap whenever
/// the initial state did.
///
/// A pass stops when no candidate move is left, or as soon as the cut on
/// edges whose endpoints have both moved this pass reaches the best
/// prefix's cut: those edges cannot change again, so no later prefix can
/// cut less, and running on would keep the same prefix. The best prefix
/// is feasible whenever this is checked, which is only after a move: a
/// pass that starts feasible keeps a feasible best prefix, and one that
/// starts infeasible ranks every prefix as feasible, so its first move
/// becomes the best. A pass also stops once `max_stall` moves that leave
/// every part within its cap have been made since the best prefix last
/// improved (Fiduccia and Mattheyses' bound on non-improving moves). A move that leaves a part
/// over its cap does not count: a pass that starts infeasible first
/// sheds weight, and cutting that short changes the balance it returns.
/// Refinement ends after `passes` passes, or after a pass that keeps no
/// move.
pub fn refine(g: &WGraph, part: &mut [u32], nparts: usize, params: RefineParams) {
    let n = g.n();
    if n == 0 || nparts < 2 {
        return;
    }
    let total = g.total_weight();
    // Cap per part: the average weight scaled by the allowed imbalance,
    // never below the ceiling average (which must always be feasible).
    let target = total.div_ceil(nparts as u64);
    let max_weight = (((total as f64 / nparts as f64) * params.max_imbalance) as u64).max(target);
    let slack = g.vwgt.iter().copied().max().unwrap_or(0);
    let over_cap = |w: u64| usize::from(w > max_weight);

    let mut part_weight = vec![0u64; nparts];
    for v in 0..n {
        part_weight[part[v] as usize] += g.vwgt[v];
    }
    let mut cut = g.cut(part) as i64;
    let mut conn = Conn {
        w: vec![0; nparts],
        parts: Vec::new(),
    };

    for _ in 0..params.passes {
        let mut moved = vec![false; n];
        let mut heap = GainHeap::new(n);
        for v in 0..n {
            heap.set(v, conn.best_gain(g, part, v));
        }

        // Build the move sequence.
        let mut over: usize = part_weight.iter().map(|&w| over_cap(w)).sum();
        let initial_feasible = over == 0;
        // The moves made this pass, as (vertex, old part).
        let mut history: Vec<(usize, u32)> = Vec::new();
        // Best prefix key: feasibility (or the input was already
        // infeasible), then lower cut. Ties keep the earlier prefix.
        let mut best_prefix = 0usize;
        let mut best_key = (initial_feasible, -cut);
        // Cut weight on edges whose endpoints have both moved.
        let mut locked_cut = 0i64;
        // Feasible moves since the best prefix last improved.
        let mut stall = 0usize;

        while let Some(v) = heap.pop() {
            // Recompute the best target for v under current weights.
            let home = part[v] as usize;
            conn.tally(g, part, v);
            let mut best: Option<(i64, u64, usize)> = None; // (gain, lighter-first, part)
            for &p in &conn.parts {
                if p == home || part_weight[p] + g.vwgt[v] > max_weight + slack {
                    continue;
                }
                let gain = conn.w[p] - conn.w[home];
                let cand = (gain, u64::MAX - part_weight[p], p);
                if best.is_none_or(|b| (cand.0, cand.1) > (b.0, b.1)) {
                    best = Some(cand);
                }
            }
            let Some((gain, _, to)) = best else { continue };
            // Apply the move.
            moved[v] = true;
            history.push((v, part[v]));
            part[v] = to as u32;
            over -= over_cap(part_weight[home]) + over_cap(part_weight[to]);
            part_weight[home] -= g.vwgt[v];
            part_weight[to] += g.vwgt[v];
            over += over_cap(part_weight[home]) + over_cap(part_weight[to]);
            cut -= gain;
            let key = (over == 0 || !initial_feasible, -cut);
            if key > best_key {
                best_key = key;
                best_prefix = history.len();
                stall = 0;
            } else if over == 0 {
                stall += 1;
            }
            // Refresh candidates around v; its edges to moved vertices
            // are now locked.
            for e in g.nbr_range(v) {
                let u = g.adjncy[e] as usize;
                if !moved[u] {
                    heap.set(u, conn.best_gain(g, part, u));
                } else if part[u] as usize != to {
                    locked_cut += g.adjwgt[e] as i64;
                }
            }
            if locked_cut >= -best_key.1 || stall >= params.max_stall {
                break;
            }
        }

        // Roll back past the best prefix.
        for &(v, old) in history[best_prefix..].iter().rev() {
            let cur = part[v] as usize;
            part_weight[cur] -= g.vwgt[v];
            part_weight[old as usize] += g.vwgt[v];
            part[v] = old;
        }
        cut = -best_key.1;
        debug_assert_eq!(cut, g.cut(part) as i64);
        if best_prefix == 0 {
            break; // the pass kept nothing: converged
        }
    }
}

/// One vertex's edge weight into each part it reaches (`w`, zero
/// elsewhere) and the list of those parts, reused from vertex to vertex.
struct Conn {
    w: Vec<i64>,
    parts: Vec<usize>,
}

impl Conn {
    /// A self-loop is skipped: it is never cut, so it is in no gain.
    fn tally(&mut self, g: &WGraph, part: &[u32], v: usize) {
        for p in self.parts.drain(..) {
            self.w[p] = 0;
        }
        let row = g.nbr_range(v);
        for (&u, &w) in g.adjncy[row.clone()].iter().zip(&g.adjwgt[row]) {
            if u as usize == v {
                continue;
            }
            let p = part[u as usize] as usize;
            if self.w[p] == 0 {
                self.parts.push(p);
            }
            self.w[p] += w as i64;
        }
    }

    /// Best available gain of v over adjacent foreign parts, ignoring
    /// weight limits (rechecked at pop time).
    fn best_gain(&mut self, g: &WGraph, part: &[u32], v: usize) -> Option<i64> {
        self.tally(g, part, v);
        let home = part[v] as usize;
        let foreign = self.parts.iter().filter(|&&p| p != home);
        foreign.map(|&p| self.w[p] - self.w[home]).max()
    }
}

/// Candidate moves in a binary max-heap ordered by `(gain, Reverse(v))`,
/// one entry per vertex at most. `pos[v]` is v's slot, so a gain changes
/// or leaves in place instead of leaving a stale entry behind.
struct GainHeap {
    heap: Vec<(i64, Reverse<u32>)>,
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl GainHeap {
    fn new(n: usize) -> Self {
        let (heap, pos) = (Vec::with_capacity(n), vec![ABSENT; n]);
        Self { heap, pos }
    }

    /// Give v the gain `gain`, or take v out on `None`.
    fn set(&mut self, v: usize, gain: Option<i64>) {
        match (gain, self.pos[v]) {
            (None, ABSENT) => {}
            (None, i) => {
                let (i, last) = (i as usize, self.heap.len() - 1);
                self.swap(i, last);
                self.pos[v] = ABSENT;
                self.heap.pop();
                if i < last {
                    self.sift(i);
                }
            }
            (Some(gain), ABSENT) => {
                self.heap.push((gain, Reverse(v as u32)));
                self.sift(self.heap.len() - 1);
            }
            (Some(gain), i) => {
                self.heap[i as usize].0 = gain;
                self.sift(i as usize);
            }
        }
    }

    /// Remove the vertex with the greatest `(gain, Reverse(v))`.
    fn pop(&mut self) -> Option<usize> {
        let v = self.heap.first()?.1 .0 as usize;
        self.set(v, None);
        Some(v)
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 .0 as usize] = a as u32;
        self.pos[self.heap[b].1 .0 as usize] = b as u32;
    }

    /// Move the entry at slot `i` up or down to where its key belongs.
    fn sift(&mut self, mut i: usize) {
        self.pos[self.heap[i].1 .0 as usize] = i as u32;
        while i > 0 && self.heap[i] > self.heap[(i - 1) / 2] {
            self.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
        loop {
            let kids = (2 * i + 1..self.heap.len()).take(2);
            let top = kids
                .max_by_key(|&c| self.heap[c])
                .filter(|&c| self.heap[c] > self.heap[i]);
            let Some(c) = top else { return };
            self.swap(i, c);
            i = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance;
    use proptest::prelude::*;
    use sdm_mesh::CsrGraph;

    proptest! {
        /// Every pop is the greatest live `(gain, Reverse(v))` a scan finds:
        /// refinement's move order, and so its output, rests on it.
        #[test]
        fn gain_heap_pops_the_scanned_max(
            ops in proptest::collection::vec((0usize..24, -8i64..8, 0u8..4), 0..300),
        ) {
            let (mut heap, mut live) = (GainHeap::new(24), [None; 24]);
            for (v, gain, op) in ops {
                if op == 0 {
                    let want = (0..24).max_by_key(|&u| (live[u], Reverse(u)));
                    let want = want.filter(|&u| live[u].is_some());
                    prop_assert_eq!(heap.pop(), want);
                    if let Some(u) = want {
                        live[u] = None;
                    }
                } else {
                    live[v] = (op >= 2).then_some(gain);
                    heap.set(v, live[v]);
                }
            }
        }
    }

    fn wg(n: usize, edges: &[(u32, u32)]) -> WGraph {
        WGraph::from_csr(&CsrGraph::from_edges(n, edges))
    }

    #[test]
    fn self_loops_stay_out_of_the_tracked_cut() {
        // A path of 8 split alternately, with self-loops on four of its
        // vertices: no self-loop is ever cut, so the cut refine tracks
        // must equal `g.cut` (its debug assertion checks it).
        let mut edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        edges.extend([(1, 1), (2, 2), (3, 3), (4, 4)]);
        let g = wg(8, &edges);
        let mut part = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        let params = RefineParams {
            max_imbalance: 1.0,
            passes: 8,
            ..RefineParams::default()
        };
        refine(&g, &mut part, 2, params);
        assert!(g.cut(&part) <= 2, "refined cut {}", g.cut(&part));
    }

    #[test]
    fn fixes_obviously_bad_path_split() {
        // Path of 8 split alternately: cut 7. Refinement should reach the
        // optimal contiguous split (cut 1) — this *requires* zero/negative
        // gain moves inside a pass, i.e. real FM, because every single
        // move from a perfectly balanced state violates strict balance.
        let edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g = wg(8, &edges);
        let mut part = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.0,
                passes: 8,
                ..RefineParams::default()
            },
        );
        let cut = g.cut(&part);
        assert!(cut <= 2, "refined cut {cut} should approach optimal 1");
        assert!(imbalance(&part, 2) <= 1.01);
    }

    #[test]
    fn respects_balance_constraint() {
        // Star: center 0 with 6 leaves; all-to-one would be cut 0 but
        // violates balance.
        let edges: Vec<(u32, u32)> = (1..7).map(|l| (0, l)).collect();
        let g = wg(7, &edges);
        let mut part = vec![0, 0, 0, 0, 1, 1, 1];
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.15,
                passes: 4,
                ..RefineParams::default()
            },
        );
        let sizes = crate::vector::part_sizes(&part, 2);
        assert!(
            sizes.iter().all(|&s| s >= 3),
            "balance must hold: {sizes:?}"
        );
    }

    #[test]
    fn never_worsens_cut() {
        let edges: Vec<(u32, u32)> = (0..20u32)
            .flat_map(|i| [(i, (i + 1) % 21), (i, (i + 3) % 21)])
            .collect();
        let g = wg(21, &edges);
        let mut part: Vec<u32> = (0..21).map(|i| (i % 3) as u32).collect();
        let before = g.cut(&part);
        refine(&g, &mut part, 3, RefineParams::default());
        assert!(g.cut(&part) <= before);
    }

    #[test]
    fn single_part_noop() {
        let g = wg(4, &[(0, 1), (2, 3)]);
        let mut part = vec![0u32; 4];
        refine(&g, &mut part, 1, RefineParams::default());
        assert_eq!(part, vec![0; 4]);
    }

    #[test]
    fn infeasible_start_still_improves() {
        // Everything on one side: refinement must shed weight toward the
        // nearly-empty part even though intermediate states stay
        // infeasible for a while.
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = wg(10, &edges);
        let mut part = vec![0u32; 10];
        part[9] = 1; // seed the other side
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.1,
                passes: 10,
                ..RefineParams::default()
            },
        );
        let sizes = crate::vector::part_sizes(&part, 2);
        assert!(
            sizes.iter().all(|&s| s >= 3),
            "weight must flow to the light part: {sizes:?}"
        );
        assert!(
            g.cut(&part) <= 2,
            "path split should stay contiguous: cut {}",
            g.cut(&part)
        );
    }

    #[test]
    fn preserves_feasibility_of_input() {
        // A feasible input must never be returned infeasible.
        let edges: Vec<(u32, u32)> = (0..15).map(|i| (i, (i + 1) % 16)).collect();
        let g = wg(16, &edges);
        let mut part: Vec<u32> = (0..16).map(|i| (i / 4) as u32).collect();
        refine(
            &g,
            &mut part,
            4,
            RefineParams {
                max_imbalance: 1.05,
                passes: 6,
                ..RefineParams::default()
            },
        );
        let total = g.total_weight();
        let cap = (((total as f64 / 4.0) * 1.05) as u64).max(total.div_ceil(4));
        let mut w = vec![0u64; 4];
        for v in 0..16 {
            w[part[v] as usize] += g.vwgt[v];
        }
        assert!(
            w.iter().all(|&x| x <= cap),
            "weights {w:?} exceed cap {cap}"
        );
    }
}
