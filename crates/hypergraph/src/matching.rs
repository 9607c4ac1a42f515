//! Maximum independent edge sets (hypergraph matchings / set packing).
//!
//! The MIES support measure (Definition 4.2.1) is the maximum number of pairwise
//! disjoint edges of the occurrence/instance hypergraph; Theorem 4.1 shows it equals
//! the overlap-graph MIS measure.  Set packing is NP-hard, so as with vertex covers
//! we provide an exact branch-and-bound plus a greedy heuristic.

use crate::connectivity::solve_by_components;
use crate::hypergraph::intersection_empty;
use crate::{ExactResult, Hypergraph, SearchBudget};

struct PackingSearch<'a> {
    h: &'a Hypergraph,
    /// For each edge, the (sorted) list of later edges it conflicts with.
    conflicts: Vec<Vec<usize>>,
    best: Vec<usize>,
    best_size: usize,
    nodes: usize,
    budget: usize,
    optimal: bool,
}

impl<'a> PackingSearch<'a> {
    fn search(&mut self, next: usize, chosen: &mut Vec<usize>, blocked: &mut Vec<u32>) {
        if self.nodes == self.budget {
            self.optimal = false;
            return;
        }
        self.nodes += 1;
        let m = self.h.num_edges();
        // Upper bound: everything not yet blocked from `next` onwards could be added.
        let available = (next..m).filter(|&e| blocked[e] == 0).count();
        if chosen.len() + available <= self.best_size {
            return;
        }
        if next == m {
            if chosen.len() > self.best_size {
                self.best_size = chosen.len();
                self.best = chosen.clone();
            }
            return;
        }
        if blocked[next] == 0 {
            // Branch 1: take edge `next`.
            chosen.push(next);
            for &c in &self.conflicts[next] {
                blocked[c] += 1;
            }
            self.search(next + 1, chosen, blocked);
            for &c in &self.conflicts[next] {
                blocked[c] -= 1;
            }
            chosen.pop();
        }
        // Branch 2: skip edge `next`.
        self.search(next + 1, chosen, blocked);
        if chosen.len() > self.best_size {
            self.best_size = chosen.len();
            self.best = chosen.clone();
        }
    }
}

/// Exact maximum independent edge set (set packing) via branch and bound, one
/// connected component at a time with the node `budget` shared across components
/// (packings are additive).
pub fn exact_independent_edge_set(h: &Hypergraph, budget: SearchBudget) -> ExactResult {
    if h.is_empty() {
        return ExactResult { value: 0, witness: Vec::new(), optimal: true, nodes: 0 };
    }
    solve_by_components(h, budget, pack_component, |c, e| c.edges[e])
}

fn pack_component(h: &Hypergraph, budget: SearchBudget) -> ExactResult {
    let m = h.num_edges();
    let mut conflicts = vec![Vec::new(); m];
    for i in 0..m {
        for j in (i + 1)..m {
            if !intersection_empty(h.edge(i), h.edge(j)) {
                conflicts[i].push(j);
                conflicts[j].push(i);
            }
        }
    }
    let seed = greedy_independent_edge_set(h);
    let mut search = PackingSearch {
        h,
        conflicts,
        best_size: seed.len(),
        best: seed,
        nodes: 0,
        budget: budget.0,
        optimal: true,
    };
    let mut blocked = vec![0u32; m];
    search.search(0, &mut Vec::new(), &mut blocked);
    ExactResult {
        value: search.best_size,
        witness: search.best,
        optimal: search.optimal,
        nodes: search.nodes,
    }
}

/// Greedy maximal independent edge set: scan edges in order of increasing size and
/// take every edge disjoint from the ones already taken.  This is a maximal matching,
/// so its size is at least `MIES / k` for k-uniform hypergraphs and also lower-bounds
/// the minimum vertex cover.
pub fn greedy_independent_edge_set(h: &Hypergraph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..h.num_edges()).collect();
    order.sort_by_key(|&e| h.edge(e).len());
    let mut used_vertices = vec![false; h.num_vertices()];
    let mut chosen = Vec::new();
    for e in order {
        let verts = h.edge(e);
        if verts.iter().any(|&v| used_vertices[v]) {
            continue;
        }
        for &v in verts {
            used_vertices[v] = true;
        }
        chosen.push(e);
    }
    chosen.sort_unstable();
    chosen
}

/// `true` if the given edges are pairwise disjoint.
pub fn is_independent_edge_set(h: &Hypergraph, edges: &[usize]) -> bool {
    for (i, &a) in edges.iter().enumerate() {
        for &b in &edges[i + 1..] {
            if !intersection_empty(h.edge(a), h.edge(b)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure8_hypergraph() -> Hypergraph {
        // Instance hypergraph of Figure 8: a 4-cycle's edges {1,2},{2,3},{3,4},{4,1}
        // (paper numbering 1..4 -> 0..3 here).
        let mut h = Hypergraph::new(4);
        for e in [[0, 1], [1, 2], [2, 3], [3, 0]] {
            h.add_edge(e.to_vec()).unwrap();
        }
        h
    }

    #[test]
    fn figure8_mies_is_two() {
        let h = figure8_hypergraph();
        let res = exact_independent_edge_set(&h, SearchBudget::default());
        assert!(res.optimal);
        assert_eq!(res.value, 2);
        assert!(is_independent_edge_set(&h, &res.witness));
    }

    #[test]
    fn greedy_is_valid_and_at_most_exact() {
        let h = figure8_hypergraph();
        let greedy = greedy_independent_edge_set(&h);
        assert!(is_independent_edge_set(&h, &greedy));
        let exact = exact_independent_edge_set(&h, SearchBudget::default());
        assert!(greedy.len() <= exact.value);
        assert!(!greedy.is_empty());
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(3);
        assert_eq!(exact_independent_edge_set(&h, SearchBudget::default()).value, 0);
        assert!(greedy_independent_edge_set(&h).is_empty());
        assert!(is_independent_edge_set(&h, &[]));
    }

    #[test]
    fn all_edges_share_a_vertex() {
        let mut h = Hypergraph::new(5);
        for v in 1..5 {
            h.add_edge(vec![0, v]).unwrap();
        }
        let res = exact_independent_edge_set(&h, SearchBudget::default());
        assert_eq!(res.value, 1);
    }

    #[test]
    fn disjoint_edges_all_chosen() {
        let mut h = Hypergraph::new(9);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![3, 4, 5]).unwrap();
        h.add_edge(vec![6, 7, 8]).unwrap();
        let res = exact_independent_edge_set(&h, SearchBudget::default());
        assert_eq!(res.value, 3);
        assert_eq!(res.witness, vec![0, 1, 2]);
    }

    #[test]
    fn packing_never_exceeds_cover() {
        // Weak duality: |matching| <= |vertex cover| (Theorem 4.5).
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for trial in 0..10 {
            let n = 10 + trial;
            let mut h = Hypergraph::new(n);
            for _ in 0..(3 * n / 2) {
                let mut e = vec![next() % n, next() % n, next() % n];
                e.sort_unstable();
                e.dedup();
                h.add_edge(e).unwrap();
            }
            let mies = exact_independent_edge_set(&h, SearchBudget::default());
            let mvc = crate::vertex_cover::exact_vertex_cover(&h, SearchBudget::default());
            assert!(mies.optimal && mvc.optimal);
            assert!(
                mies.value <= mvc.value,
                "packing {} > cover {} on trial {trial}",
                mies.value,
                mvc.value
            );
        }
    }

    #[test]
    fn tiny_budget_still_valid() {
        let h = figure8_hypergraph();
        let res = exact_independent_edge_set(&h, SearchBudget(1));
        assert!(is_independent_edge_set(&h, &res.witness));
        assert!(res.value >= 1);
    }
}
