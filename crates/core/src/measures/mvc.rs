//! The minimum vertex cover (MVC) support measure.
//!
//! σMVC(P, G) is the size of a minimum vertex cover of the occurrence (or instance)
//! hypergraph (Definition 3.3.2): the smallest set of pattern-node images that touches
//! every occurrence.  It is anti-monotonic (Theorem 3.5), bounded by MI from above
//! (Theorem 3.6) and by MIES/MIS from below (Theorem 4.5), and NP-hard — hence the
//! greedy k-approximation alternatives (the paper cites the k − o(1) approximation of
//! Halperin for k-uniform hypergraphs).
//!
//! MVC is solved directly on the occurrence/instance hypergraph, which
//! `SupportMeasures` builds once and shares with MIES and the LP relaxations; the
//! overlap-graph measures (MIS, MCP) additionally share one cached overlap graph of
//! that hypergraph, so profiling every measure on one pattern performs each
//! construction exactly once.

use super::{MeasureOutcome, MvcAlgorithm};
use ffsm_hypergraph::vertex_cover::{
    exact_vertex_cover, greedy_degree_cover, greedy_matching_cover,
};
use ffsm_hypergraph::{Hypergraph, SearchBudget};

/// Minimum vertex cover support of `hypergraph` under `algorithm`.
///
/// For the greedy algorithms `optimal` is always `false` (the value is an upper bound
/// on σMVC); for the exact algorithm it reports whether the branch-and-bound search
/// finished within its budget.
pub fn mvc(
    hypergraph: &Hypergraph,
    algorithm: MvcAlgorithm,
    budget: SearchBudget,
) -> MeasureOutcome {
    if hypergraph.is_empty() {
        return MeasureOutcome { value: 0, optimal: true };
    }
    match algorithm {
        MvcAlgorithm::Exact => MeasureOutcome::from_solve(exact_vertex_cover(hypergraph, budget)),
        MvcAlgorithm::GreedyMatching => {
            MeasureOutcome { value: greedy_matching_cover(hypergraph).len(), optimal: false }
        }
        MvcAlgorithm::GreedyDegree => {
            MeasureOutcome { value: greedy_degree_cover(hypergraph).len(), optimal: false }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occurrences::OccurrenceSet;
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;

    fn occurrence_hypergraph(example: &ffsm_graph::figures::FigureExample) -> Hypergraph {
        OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default())
            .occurrence_hypergraph()
    }

    #[test]
    fn figure6_exact_is_two() {
        let h = occurrence_hypergraph(&figures::figure6());
        let out = mvc(&h, MvcAlgorithm::Exact, SearchBudget::default());
        assert_eq!(out.value, 2);
        assert!(out.optimal);
    }

    #[test]
    fn figure5_extension_keeps_cover_at_one() {
        let h2 = occurrence_hypergraph(&figures::figure2());
        let h5 = occurrence_hypergraph(&figures::figure5());
        assert_eq!(mvc(&h2, MvcAlgorithm::Exact, SearchBudget::default()).value, 1);
        assert_eq!(mvc(&h5, MvcAlgorithm::Exact, SearchBudget::default()).value, 1);
    }

    #[test]
    fn greedy_upper_bounds_exact() {
        for example in ffsm_graph::figures::all_figures() {
            let h = occurrence_hypergraph(&example);
            let exact = mvc(&h, MvcAlgorithm::Exact, SearchBudget::default());
            let matching = mvc(&h, MvcAlgorithm::GreedyMatching, SearchBudget::default());
            let degree = mvc(&h, MvcAlgorithm::GreedyDegree, SearchBudget::default());
            assert!(exact.value <= matching.value, "matching below exact on {}", example.name);
            assert!(exact.value <= degree.value, "degree below exact on {}", example.name);
            // k-approximation guarantee for the matching cover (k = pattern size).
            let k = example.pattern.num_vertices();
            assert!(
                matching.value <= k * exact.value.max(1),
                "matching cover not within factor k on {}",
                example.name
            );
        }
    }

    #[test]
    fn empty_hypergraph_is_zero() {
        let h = Hypergraph::new(0);
        for algo in [MvcAlgorithm::Exact, MvcAlgorithm::GreedyMatching, MvcAlgorithm::GreedyDegree]
        {
            assert_eq!(mvc(&h, algo, SearchBudget::default()).value, 0);
        }
    }
}
