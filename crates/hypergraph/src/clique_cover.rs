//! Clique partition (clique cover) of ordinary graphs.
//!
//! Calders, Ramon and Van Dyck (ICDM 2008) proposed the *minimum clique partition*
//! (MCP) of the overlap graph as an anti-monotonic support measure sitting above MIS:
//! every independent set picks at most one vertex per clique of a partition, so
//! `α(G) ≤ θ(G)` (independence number ≤ clique-cover number).  `ffsm-core` exposes
//! this as the MCP support measure; this module provides the underlying solvers on
//! [`SimpleGraph`]:
//!
//! * [`greedy_clique_partition`] — a deterministic greedy partition (each vertex joins
//!   the first compatible clique in degeneracy-ish order);
//! * [`exact_clique_partition`] — branch-and-bound over the complement colouring
//!   formulation (clique partition of `G` = proper colouring of the complement),
//!   budgeted like every other exact search in this crate.

use crate::independent_set::SimpleGraph;
use crate::{ExactResult, SearchBudget};

/// A partition of the vertex set into cliques, each clique a sorted vertex list.
pub type CliquePartition = Vec<Vec<usize>>;

/// `true` if `vertices` forms a clique in `g`.
pub fn is_clique(g: &SimpleGraph, vertices: &[usize]) -> bool {
    for (i, &u) in vertices.iter().enumerate() {
        for &v in &vertices[i + 1..] {
            if u == v || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// `true` if `partition` is a valid clique partition of all `g.num_vertices()`
/// vertices (every vertex in exactly one class, every class a clique).
pub fn is_clique_partition(g: &SimpleGraph, partition: &[Vec<usize>]) -> bool {
    let mut seen = vec![false; g.num_vertices()];
    for class in partition {
        if !is_clique(g, class) {
            return false;
        }
        for &v in class {
            if v >= g.num_vertices() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
    }
    seen.into_iter().all(|s| s)
}

/// Greedy clique partition: visit vertices in descending degree order and place each
/// into the first existing clique it is fully adjacent to, or open a new clique.
/// Always valid; size is an upper bound on the clique-cover number.
pub fn greedy_clique_partition(g: &SimpleGraph) -> CliquePartition {
    let n = g.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (usize::MAX - g.degree(v), v));
    let mut partition: CliquePartition = Vec::new();
    for &v in &order {
        let mut placed = false;
        for class in partition.iter_mut() {
            if class.iter().all(|&u| g.has_edge(v, u)) {
                class.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            partition.push(vec![v]);
        }
    }
    for class in partition.iter_mut() {
        class.sort_unstable();
    }
    partition.sort();
    partition
}

/// Exact minimum clique partition by branch and bound: vertices are assigned to clique
/// classes one at a time (classes are interchangeable, so a new class is only opened
/// as "the next unused index"), pruning when the number of classes reaches the best
/// known solution.  The search explores at most `budget.0` nodes; if the budget runs
/// out the best partition found so far is returned with `optimal = false`.
pub fn exact_clique_partition(g: &SimpleGraph, budget: SearchBudget) -> (CliquePartition, bool) {
    let (partition, optimal, _) = partition_search(g, budget);
    (partition, optimal)
}

/// [`exact_clique_partition`] plus the number of search nodes it explored.
fn partition_search(g: &SimpleGraph, budget: SearchBudget) -> (CliquePartition, bool, usize) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), true, 0);
    }
    // Start from the greedy solution as the incumbent upper bound.
    let greedy = greedy_clique_partition(g);
    let mut best = greedy.clone();
    let mut best_size = greedy.len();
    // Order vertices by descending degree: constrained vertices first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (usize::MAX - g.degree(v), v));

    struct Search<'a> {
        g: &'a SimpleGraph,
        order: Vec<usize>,
        budget: usize,
        explored: usize,
        best_size: usize,
        best: CliquePartition,
        exhausted: bool,
    }

    impl<'a> Search<'a> {
        fn run(&mut self, index: usize, classes: &mut Vec<Vec<usize>>) {
            if self.explored >= self.budget {
                self.exhausted = true;
                return;
            }
            self.explored += 1;
            if classes.len() >= self.best_size {
                return; // cannot improve
            }
            if index == self.order.len() {
                self.best_size = classes.len();
                self.best = classes.clone();
                return;
            }
            let v = self.order[index];
            // Try to add v to each existing class it is compatible with.
            for ci in 0..classes.len() {
                let compatible = classes[ci].iter().all(|&u| self.g.has_edge(v, u));
                if compatible {
                    classes[ci].push(v);
                    self.run(index + 1, classes);
                    classes[ci].pop();
                    if self.exhausted {
                        return;
                    }
                }
            }
            // Or open a new class (only if it can still beat the incumbent).
            if classes.len() + 1 < self.best_size {
                classes.push(vec![v]);
                self.run(index + 1, classes);
                classes.pop();
            }
        }
    }

    let mut search = Search {
        g,
        order,
        budget: budget.0,
        explored: 0,
        best_size,
        best: std::mem::take(&mut best),
        exhausted: false,
    };
    let mut classes: Vec<Vec<usize>> = Vec::new();
    search.run(0, &mut classes);
    best = search.best;
    best_size = search.best_size;
    let optimal = !search.exhausted;
    let mut partition = best;
    for class in partition.iter_mut() {
        class.sort_unstable();
    }
    partition.sort();
    debug_assert_eq!(partition.len(), best_size);
    (partition, optimal, search.explored)
}

/// Clique-cover number as an [`ExactResult`] (value = number of cliques, witness =
/// the representative smallest vertex of every clique).
pub fn clique_cover_number(g: &SimpleGraph, budget: SearchBudget) -> ExactResult {
    let (partition, optimal, nodes) = partition_search(g, budget);
    ExactResult {
        value: partition.len(),
        witness: partition.iter().filter_map(|c| c.first().copied()).collect(),
        optimal,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent_set::exact_max_independent_set;

    fn path(n: usize) -> SimpleGraph {
        let mut g = SimpleGraph::new(n);
        for v in 1..n {
            g.add_edge(v - 1, v);
        }
        g
    }

    fn complete(n: usize) -> SimpleGraph {
        let mut g = SimpleGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn clique_checks() {
        let g = complete(4);
        assert!(is_clique(&g, &[0, 1, 2, 3]));
        assert!(is_clique(&g, &[2]));
        assert!(is_clique(&g, &[]));
        let p = path(4);
        assert!(is_clique(&p, &[1, 2]));
        assert!(!is_clique(&p, &[0, 2]));
        assert!(!is_clique(&p, &[0, 0]));
    }

    #[test]
    fn partition_validation() {
        let p = path(4);
        assert!(is_clique_partition(&p, &[vec![0, 1], vec![2, 3]]));
        assert!(!is_clique_partition(&p, &[vec![0, 1], vec![2]])); // vertex 3 missing
        assert!(!is_clique_partition(&p, &[vec![0, 1], vec![1, 2], vec![3]])); // 1 twice
        assert!(!is_clique_partition(&p, &[vec![0, 2], vec![1, 3]])); // not cliques
    }

    #[test]
    fn greedy_on_complete_graph_uses_one_clique() {
        let g = complete(5);
        let part = greedy_clique_partition(&g);
        assert_eq!(part.len(), 1);
        assert!(is_clique_partition(&g, &part));
    }

    #[test]
    fn greedy_on_edgeless_graph_uses_singletons() {
        let g = SimpleGraph::new(4);
        let part = greedy_clique_partition(&g);
        assert_eq!(part.len(), 4);
        assert!(is_clique_partition(&g, &part));
    }

    #[test]
    fn exact_on_path_matches_ceiling_half() {
        // A path on n vertices has clique-cover number ceil(n/2) (edges are the only
        // non-trivial cliques).
        for n in 1..8 {
            let g = path(n);
            let (part, optimal) = exact_clique_partition(&g, SearchBudget::default());
            assert!(optimal);
            assert!(is_clique_partition(&g, &part));
            assert_eq!(part.len(), n.div_ceil(2), "path of {n}");
        }
    }

    #[test]
    fn exact_is_at_most_greedy_and_at_least_independence_number() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 10;
            let mut g = SimpleGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.35) {
                        g.add_edge(u, v);
                    }
                }
            }
            let greedy = greedy_clique_partition(&g);
            let (exact, optimal) = exact_clique_partition(&g, SearchBudget::default());
            assert!(optimal, "seed {seed}");
            assert!(is_clique_partition(&g, &exact), "seed {seed}");
            assert!(exact.len() <= greedy.len(), "seed {seed}");
            let alpha = exact_max_independent_set(&g, SearchBudget::default()).value;
            assert!(alpha <= exact.len(), "seed {seed}: α must not exceed θ");
        }
    }

    #[test]
    fn clique_cover_number_result_shape() {
        let g = path(5);
        let r = clique_cover_number(&g, SearchBudget::default());
        assert_eq!(r.value, 3);
        assert!(r.optimal);
        assert_eq!(r.witness.len(), 3);
        let empty = clique_cover_number(&SimpleGraph::new(0), SearchBudget::default());
        assert_eq!(empty.value, 0);
    }

    #[test]
    fn budget_exhaustion_still_returns_valid_partition() {
        let mut g = SimpleGraph::new(14);
        for u in 0..14 {
            for v in (u + 1)..14 {
                if (u + v) % 3 != 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let (part, optimal) = exact_clique_partition(&g, SearchBudget(5));
        assert!(!optimal);
        assert!(is_clique_partition(&g, &part));
    }
}
