//! Kernelization / reduction rules for hypergraph vertex cover.
//!
//! Occurrence hypergraphs contain a lot of redundancy: repeated edges (when the
//! pattern has automorphisms), edges that are supersets of other edges (which any
//! cover of the smaller edge already hits), vertices contained in no remaining edge,
//! and unit edges that force their single vertex into every cover.  Applying these
//! rules before the exact branch-and-bound search often shrinks the instance by an
//! order of magnitude without changing the optimum — experiment E13 quantifies this.
//!
//! The rules implemented here are classical and *safe* (they preserve the minimum
//! vertex cover size exactly):
//!
//! 1. **duplicate edge** — keep one copy of identical edges;
//! 2. **superset edge** — drop an edge that is a superset of another edge
//!    (Definition 3.1.1's "simple hypergraph" reduction; any hitting set of the
//!    subset also hits the superset);
//! 3. **unit edge** — an edge `{v}` forces `v` into the cover; remove `v` and every
//!    edge containing it;
//! 4. **dominated vertex** — if every edge containing `u` also contains `v`, then `u`
//!    can be replaced by `v` in any cover, so `u` can be deleted from all edges
//!    (only applied while the edge stays non-empty).

use crate::{EdgeId, Hypergraph};
use std::collections::BTreeSet;

/// Result of reducing a vertex-cover instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedCoverInstance {
    /// The reduced hypergraph (vertices re-indexed densely).
    pub hypergraph: Hypergraph,
    /// Map from reduced vertex index to original vertex id.
    pub vertex_map: Vec<usize>,
    /// Original vertices forced into every minimum cover by unit-edge rules.
    pub forced: Vec<usize>,
    /// Original edge ids that survived the reduction (one per kept edge, in order).
    pub kept_edges: Vec<EdgeId>,
    /// Statistics about which rules fired.
    pub stats: ReductionStats,
}

/// Which reduction rules fired and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReductionStats {
    /// Duplicate edges removed.
    pub duplicate_edges: usize,
    /// Superset edges removed.
    pub superset_edges: usize,
    /// Vertices forced into the cover by unit edges.
    pub forced_vertices: usize,
    /// Edges removed because a forced vertex covered them.
    pub covered_edges: usize,
    /// Vertices deleted by the dominated-vertex rule.
    pub dominated_vertices: usize,
}

impl ReducedCoverInstance {
    /// Minimum cover size of the *original* instance given the minimum cover size of
    /// the reduced instance.
    pub fn lift_value(&self, reduced_value: usize) -> usize {
        reduced_value + self.forced.len()
    }

    /// Lift a cover of the reduced hypergraph (reduced vertex indices) back to a
    /// cover of the original hypergraph (original vertex ids, including the forced
    /// vertices).
    pub fn lift_cover(&self, reduced_cover: &[usize]) -> Vec<usize> {
        let mut cover: Vec<usize> = reduced_cover.iter().map(|&v| self.vertex_map[v]).collect();
        cover.extend_from_slice(&self.forced);
        cover.sort_unstable();
        cover.dedup();
        cover
    }
}

/// Apply all reduction rules to a fixed point.
pub fn reduce_for_vertex_cover(h: &Hypergraph) -> ReducedCoverInstance {
    let mut stats = ReductionStats::default();
    // Working representation: list of (original edge id, vertex set).
    let mut edges: Vec<(EdgeId, Vec<usize>)> = h.edges().map(|(id, e)| (id, e.to_vec())).collect();
    let mut forced: BTreeSet<usize> = BTreeSet::new();

    loop {
        let mut changed = false;

        // Rule 3: unit edges force their vertex.
        let unit_vertices: BTreeSet<usize> =
            edges.iter().filter(|(_, e)| e.len() == 1).map(|(_, e)| e[0]).collect();
        if !unit_vertices.is_empty() {
            for &v in &unit_vertices {
                if forced.insert(v) {
                    stats.forced_vertices += 1;
                }
            }
            let before = edges.len();
            edges.retain(|(_, e)| !e.iter().any(|v| unit_vertices.contains(v)));
            stats.covered_edges += before - edges.len();
            changed = true;
        }

        // Rule 1 + 2: duplicate and superset edges.
        // Sort by size so that supersets are only compared against smaller edges.
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by_key(|&i| edges[i].1.len());
        let mut keep = vec![true; edges.len()];
        for (pos, &i) in order.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            for &j in &order[pos + 1..] {
                if !keep[j] {
                    continue;
                }
                let (small, big) = (&edges[i].1, &edges[j].1);
                if is_subset(small, big) {
                    keep[j] = false;
                    if small.len() == big.len() {
                        stats.duplicate_edges += 1;
                    } else {
                        stats.superset_edges += 1;
                    }
                    changed = true;
                }
            }
        }
        if keep.iter().any(|&k| !k) {
            let mut filtered = Vec::with_capacity(edges.len());
            for (i, e) in edges.into_iter().enumerate() {
                if keep[i] {
                    filtered.push(e);
                }
            }
            edges = filtered;
        }

        // Rule 4: dominated vertices (every edge containing u also contains v, u != v).
        // Only consider vertices that still occur.  BTreeMap keeps the rule (and thus
        // the chosen representatives) deterministic.
        let mut incidence: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (idx, (_, e)) in edges.iter().enumerate() {
            for &v in e {
                incidence.entry(v).or_default().push(idx);
            }
        }
        let mut dominated: Vec<usize> = Vec::new();
        let vertices: Vec<usize> = incidence.keys().copied().collect();
        for &u in &vertices {
            if dominated.contains(&u) {
                continue;
            }
            let u_edges = &incidence[&u];
            // Candidate dominators: vertices of the first edge containing u.
            let first_edge = &edges[u_edges[0]].1;
            'cand: for &v in first_edge {
                if v == u || dominated.contains(&v) {
                    continue;
                }
                for &ei in u_edges {
                    if edges[ei].1.binary_search(&v).is_err() {
                        continue 'cand;
                    }
                    // u must not be the only thing keeping the edge non-empty.
                    if edges[ei].1.len() <= 1 {
                        continue 'cand;
                    }
                }
                dominated.push(u);
                break;
            }
        }
        if !dominated.is_empty() {
            stats.dominated_vertices += dominated.len();
            let dominated_set: BTreeSet<usize> = dominated.into_iter().collect();
            for (_, e) in edges.iter_mut() {
                e.retain(|v| !dominated_set.contains(v));
            }
            // Removing vertices can create new unit / duplicate edges → iterate again.
            changed = true;
        }

        if !changed {
            break;
        }
    }

    // Re-index the surviving vertices densely.
    let mut vertex_map: Vec<usize> = Vec::new();
    let mut index_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (_, e) in &edges {
        for &v in e {
            index_of.entry(v).or_insert_with(|| {
                vertex_map.push(v);
                vertex_map.len() - 1
            });
        }
    }
    let mut reduced = Hypergraph::new(vertex_map.len());
    let mut kept_edges = Vec::with_capacity(edges.len());
    for (id, e) in &edges {
        let local: Vec<usize> = e.iter().map(|v| index_of[v]).collect();
        reduced.add_edge(local).expect("reduced edge valid");
        kept_edges.push(*id);
    }
    ReducedCoverInstance {
        hypergraph: reduced,
        vertex_map,
        forced: forced.into_iter().collect(),
        kept_edges,
        stats,
    }
}

/// `true` if sorted slice `a` is a subset of sorted slice `b`.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0usize;
    for &x in a {
        while bi < b.len() && b[bi] < x {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != x {
            return false;
        }
        bi += 1;
    }
    true
}

/// Solve minimum vertex cover exactly via reduction + the exact branch-and-bound
/// solver; returns the cover size and whether it is proven optimal.
pub fn reduced_exact_vertex_cover(
    h: &Hypergraph,
    budget: crate::SearchBudget,
) -> crate::ExactResult {
    let reduced = reduce_for_vertex_cover(h);
    if reduced.hypergraph.is_empty() {
        return crate::ExactResult {
            value: reduced.forced.len(),
            witness: reduced.forced.clone(),
            optimal: true,
            nodes: 0,
        };
    }
    let inner = crate::vertex_cover::exact_vertex_cover(&reduced.hypergraph, budget);
    crate::ExactResult {
        value: reduced.lift_value(inner.value),
        witness: reduced.lift_cover(&inner.witness),
        optimal: inner.optimal,
        nodes: inner.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cover::{exact_vertex_cover, is_vertex_cover};
    use crate::SearchBudget;

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3], &[1, 2]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn duplicates_and_supersets_are_removed() {
        let mut h = Hypergraph::new(5);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![0, 1]).unwrap(); // duplicate
        h.add_edge(vec![0, 1, 2]).unwrap(); // superset
        h.add_edge(vec![3, 4]).unwrap();
        let r = reduce_for_vertex_cover(&h);
        assert_eq!(r.stats.duplicate_edges, 1);
        assert_eq!(r.stats.superset_edges, 1);
        // The later rules fully solve the two surviving 2-edges; the optimum (2) is
        // preserved either way.
        let direct = exact_vertex_cover(&h, SearchBudget::default());
        let reduced = reduced_exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(direct.value, 2);
        assert_eq!(reduced.value, 2);
        assert!(is_vertex_cover(&h, &reduced.witness));
    }

    #[test]
    fn unit_edges_force_vertices() {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![2]).unwrap();
        h.add_edge(vec![2, 3]).unwrap();
        h.add_edge(vec![0, 1]).unwrap();
        let r = reduce_for_vertex_cover(&h);
        // Vertex 2 is forced by its unit edge; the remaining {0,1} edge is resolved by
        // the domination + unit rules, forcing one of its endpoints.
        assert!(r.forced.contains(&2));
        assert!(r.stats.forced_vertices >= 1);
        assert!(r.stats.covered_edges >= 2);
        let solved = reduced_exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(solved.value, exact_vertex_cover(&h, SearchBudget::default()).value);
        assert_eq!(solved.value, 2);
        assert!(is_vertex_cover(&h, &solved.witness));
    }

    #[test]
    fn reduction_preserves_cover_size_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 12;
            let mut h = Hypergraph::new(n);
            for _ in 0..rng.gen_range(3..18) {
                let size = rng.gen_range(1..4);
                let edge: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
                h.add_edge(edge).unwrap();
            }
            let direct = exact_vertex_cover(&h, SearchBudget::default());
            let reduced = reduced_exact_vertex_cover(&h, SearchBudget::default());
            assert_eq!(direct.value, reduced.value, "seed {seed}");
            assert!(
                is_vertex_cover(&h, &reduced.witness),
                "seed {seed}: lifted witness must cover"
            );
        }
    }

    #[test]
    fn dominated_vertex_rule_fires() {
        // Vertex 0 appears only together with vertex 1 → 0 is dominated by 1.
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![0, 1, 3]).unwrap();
        h.add_edge(vec![1, 2, 3]).unwrap();
        let r = reduce_for_vertex_cover(&h);
        assert!(r.stats.dominated_vertices >= 1);
        // Optimum is 1 ({1}) both before and after.
        let direct = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(
            r.lift_value(exact_vertex_cover(&r.hypergraph, SearchBudget::default()).value),
            direct.value
        );
    }

    #[test]
    fn fully_reducible_instance() {
        // Only unit edges: everything is forced, nothing remains.
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0]).unwrap();
        h.add_edge(vec![1]).unwrap();
        h.add_edge(vec![0]).unwrap();
        let r = reduced_exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(r.value, 2);
        assert!(r.optimal);
        assert!(is_vertex_cover(&h, &r.witness));
    }

    #[test]
    fn empty_hypergraph_reduces_to_nothing() {
        let h = Hypergraph::new(7);
        let r = reduce_for_vertex_cover(&h);
        assert_eq!(r.hypergraph.num_edges(), 0);
        assert!(r.forced.is_empty());
        assert_eq!(reduced_exact_vertex_cover(&h, SearchBudget::default()).value, 0);
    }

    #[test]
    fn lifted_cover_maps_back_to_original_ids() {
        let mut h = Hypergraph::new(10);
        h.add_edge(vec![7, 8]).unwrap();
        h.add_edge(vec![8, 9]).unwrap();
        let r = reduce_for_vertex_cover(&h);
        let inner = exact_vertex_cover(&r.hypergraph, SearchBudget::default());
        let lifted = r.lift_cover(&inner.witness);
        assert!(is_vertex_cover(&h, &lifted));
        assert!(lifted.iter().all(|&v| (7..=9).contains(&v)));
    }
}
