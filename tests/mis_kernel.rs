//! The branch-and-reduce MIS kernel, end to end through `SupportMeasures::mis`.
//!
//! * **Matching oracle.**  For a single-edge pattern with distinct end labels
//!   every data edge between the two labels is one occurrence, and two
//!   occurrences overlap exactly when they share a vertex.  σMIS is then the
//!   maximum matching of the bipartite graph of those edges, which augmenting
//!   paths compute in polynomial time.
//! * **Dense probe** (`#[ignore]`d; about 40 s in release, run it with
//!   `cargo test --release --test mis_kernel -- --ignored --nocapture`).  It
//!   solves every pattern of at most three edges on a dense two-community graph
//!   and prints per-pattern optimality and solve time.

use ffsm::core::measures::{MeasureConfig, MeasureKind, SupportMeasures};
use ffsm::core::occurrences::OccurrenceSet;
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{generators, patterns, Label, LabeledGraph};
use ffsm::hypergraph::SearchBudget;
use ffsm::miner::MiningSession;
use proptest::prelude::*;
use std::time::Instant;

/// Maximum matching of a bipartite graph given as `(left, right)` edges, by
/// augmenting paths (Kuhn's algorithm).
fn max_bipartite_matching(edges: &[(usize, usize)]) -> usize {
    let left = edges.iter().map(|e| e.0 + 1).max().unwrap_or(0);
    let right = edges.iter().map(|e| e.1 + 1).max().unwrap_or(0);
    let mut adjacency = vec![Vec::new(); left];
    for &(u, v) in edges {
        adjacency[u].push(v);
    }
    fn augment(u: usize, adj: &[Vec<usize>], seen: &mut [bool], owner: &mut [usize]) -> bool {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                if owner[v] == usize::MAX || augment(owner[v], adj, seen, owner) {
                    owner[v] = u;
                    return true;
                }
            }
        }
        false
    }
    let mut owner = vec![usize::MAX; right];
    (0..left).filter(|&u| augment(u, &adjacency, &mut vec![false; right], &mut owner)).count()
}

/// The data edges joining a `Label(0)` vertex to a `Label(1)` vertex, as
/// `(label-0 end, label-1 end)` pairs.
fn cross_edges(graph: &LabeledGraph) -> Vec<(usize, usize)> {
    graph
        .edges()
        .filter_map(|(u, v)| match (graph.label(u).0, graph.label(v).0) {
            (0, 1) => Some((u as usize, v as usize)),
            (1, 0) => Some((v as usize, u as usize)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn single_edge_mis_is_a_bipartite_matching(
        seed in 0u64..100_000,
        n in 6usize..40,
        density in 1usize..6,
    ) {
        let graph = generators::gnm_random(n, density * n, 2, seed);
        let pattern = patterns::single_edge(Label(0), Label(1));
        let occurrences = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        let edges = cross_edges(&graph);
        prop_assert_eq!(occurrences.num_occurrences(), edges.len());
        let mis = SupportMeasures::new(occurrences, MeasureConfig::default()).mis();
        prop_assert!(mis.optimal, "budget cut on seed {}, n {}", seed, n);
        prop_assert_eq!(mis.value, max_bipartite_matching(&edges),
            "seed {}, n {}, {} cross edges", seed, n, edges.len());
    }
}

#[test]
fn matching_oracle_sanity() {
    assert_eq!(max_bipartite_matching(&[]), 0);
    // A path l0-r0-l1-r1 plus a pendant l2-r0: two edges match.
    assert_eq!(max_bipartite_matching(&[(0, 0), (1, 0), (1, 1), (2, 0)]), 2);
    // K(3,3) minus a perfect matching still has a perfect matching.
    let edges: Vec<(usize, usize)> =
        (0..3).flat_map(|u| (0..3).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    assert_eq!(max_bipartite_matching(&edges), 3);
}

/// `MiningStats.counters` answers "is every support exact?": the solver
/// counters are summed over workers, so they do not depend on the thread
/// count, and a starved node budget shows up as inexact solves.
#[test]
fn solver_counters_report_nodes_and_inexact_solves() {
    let graph = generators::community_graph(2, 10, 0.5, 0.1, 2, 5);
    let mine = |threads: usize, budget: usize| {
        let measure_config =
            MeasureConfig { search_budget: SearchBudget(budget), ..MeasureConfig::default() };
        MiningSession::on(&graph)
            .measure(MeasureKind::Mis)
            .min_support(3.0)
            .max_edges(2)
            .threads(threads)
            .measure_config(measure_config)
            .run()
            .expect("mine")
            .stats
            .counters
    };
    let sequential = mine(1, SearchBudget::default().0);
    assert!(sequential.solver_nodes > 0);
    assert_eq!(sequential.solves_inexact, 0, "a default-budget solve was cut");
    let parallel = mine(3, SearchBudget::default().0);
    assert_eq!(
        (parallel.solver_nodes, parallel.solves_inexact),
        (sequential.solver_nodes, sequential.solves_inexact)
    );
    let starved = mine(1, 1);
    assert!(starved.solves_inexact > 0, "a one-node budget cut no solve");
    assert!(starved.solver_nodes < sequential.solver_nodes);
}

/// The dense probe: `community_graph(2, 12, 0.85, 0.4, 2, 1)`, every pattern of
/// at most three edges that occurs in it (31), solved with the default node
/// budget.  The flat branch and bound this kernel replaced proved 5 of the 31
/// optimal in about 100 s of solving; the kernel proves 10 in about 40 s.
#[test]
#[ignore = "dense probe, about 40 s in release"]
fn dense_community_probe() {
    let graph = generators::community_graph(2, 12, 0.85, 0.4, 2, 1);
    let every_pattern = MiningSession::on(&graph)
        .measure(MeasureKind::Mni)
        .min_support(1.0)
        .max_edges(3)
        .run()
        .expect("enumerate the patterns");
    assert_eq!(every_pattern.patterns.len(), 31);
    let (mut optimal, mut total) = (0, 0.0);
    for (i, found) in every_pattern.patterns.iter().enumerate() {
        let occurrences = OccurrenceSet::enumerate(&found.pattern, &graph, IsoConfig::default());
        let measures = SupportMeasures::new(occurrences, MeasureConfig::default());
        let overlap = measures.overlap_graph(MeasureConfig::default().basis);
        let start = Instant::now();
        let mis = measures.mis();
        let seconds = start.elapsed().as_secs_f64();
        total += seconds;
        optimal += usize::from(mis.optimal);
        println!(
            "pattern {i:2}: {} edges, overlap graph {} vertices / {} edges, MIS {} optimal {} \
             in {seconds:.3} s",
            found.pattern.num_edges(),
            overlap.num_vertices(),
            overlap.num_edges(),
            mis.value,
            mis.optimal,
        );
    }
    println!("{optimal}/31 optimal, {total:.1} s solving");
    assert!(optimal >= 10, "only {optimal}/31 MIS solves proved optimal");
}
