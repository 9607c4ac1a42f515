//! The four workloads: what graph each generates from the seed, how it mines
//! it, and which layers it is there to stress.

use ffsm_core::MeasureKind;
use ffsm_graph::{generators, GraphUpdate, Label, LabeledGraph, VertexId};
use ffsm_miner::{MiningSession, PreparedGraph};
use ffsm_shard::PartitionSpec;

/// How a workload's mining requests reach the library.
#[derive(Clone, Copy)]
pub enum Driver {
    /// `MiningSession`s over one `PreparedGraph`, in process.
    Library,
    /// `ShardedSession`s over a partition spilled to disk.
    Sharded { shards: usize, max_resident: usize },
    /// Requests over loopback TCP to an in-process `ffsm_serve::Server`.
    Serve { workers: usize, clients: usize, requests_per_update: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub measure: MeasureKind,
    pub tau: f64,
    pub max_edges: usize,
    pub driver: Driver,
}

/// Mining sessions run on one thread, so their times do not depend on the
/// other core; only the serve workload uses both (two workers).
pub const SESSION_THREADS: usize = 1;

/// Time spent repeating the set-up after each timed iteration (at least one
/// repeat); `setup_s` is the median of every set-up of a run.  A set-up of a
/// millisecond does not repeat within a tenth, and the host's speed drifts
/// over tens of seconds, so the repeats are spread over the whole run.
pub const SETUP_SLICE: std::time::Duration = std::time::Duration::from_millis(10);

/// Edges the update stream toggles (`re u v` then `ae u v` in one batch).
const TOGGLED_EDGES: usize = 16;

pub const WORKLOADS: [Spec; 4] = [
    // Matcher and occurrence materialisation carry the time; solvers idle.
    Spec {
        name: "mine_powerlaw_mni",
        measure: MeasureKind::Mni,
        tau: 15.0,
        max_edges: 3,
        driver: Driver::Library,
    },
    // Many small components: the overlap graph and the budgeted MIS solver
    // carry the time, the matcher is under 1%.
    Spec {
        name: "mine_molecule_mis",
        measure: MeasureKind::Mis,
        tau: 4.0,
        max_edges: 3,
        driver: Driver::Library,
    },
    // The only path through ShardStore reloads and the ShardedEngine.
    Spec {
        name: "mine_sharded_spill",
        measure: MeasureKind::Mni,
        tau: 10.0,
        max_edges: 2,
        driver: Driver::Sharded { shards: 4, max_resident: 2 },
    },
    // Writes beside reads; framing, admission and the epoch-keyed cache.
    Spec {
        name: "serve_molecule_mixed",
        measure: MeasureKind::Mni,
        tau: 50.0,
        max_edges: 2,
        driver: Driver::Serve { workers: 2, clients: 2, requests_per_update: 8 },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The workload's data graph; the same seed gives the same graph.
    ///
    /// The seed picks an isomorphic copy of one fixed graph: it permutes the
    /// vertex ids, the label names and the edge order.  Every seed so asks
    /// for the same mining work up to search order, and a spread between runs
    /// with different seeds measures the host, not a different workload.  A
    /// random graph per seed would not: on these sizes the embedding count
    /// alone moves by 15% from one generator seed to the next.
    pub fn graph(&self, seed: u64) -> LabeledGraph {
        let (base, block) = match self.name {
            "mine_powerlaw_mni" => (generators::power_law_cluster(500, 3, 0.5, 8, 1), None),
            "mine_molecule_mis" => (generators::molecule_like(20, 12, 6, 1), None),
            // Ids move only inside a community and whole communities move,
            // so a vertex-range shard still holds whole communities.
            "mine_sharded_spill" => {
                (generators::community_graph(8, 200, 0.02, 0.000_02, 6, 23), Some(200))
            }
            "serve_molecule_mixed" => (generators::molecule_like(2000, 12, 6, 1), None),
            other => unreachable!("no graph for workload {other}"),
        };
        relabel(&base, block, seed)
    }

    /// An exact session with the workload's measure, threshold and size cap.
    pub fn session(&self, prepared: &PreparedGraph) -> MiningSession {
        MiningSession::over(prepared)
            .measure(self.measure)
            .min_support(self.tau)
            .max_edges(self.max_edges)
            .threads(SESSION_THREADS)
    }

    pub fn partition_spec(&self) -> PartitionSpec {
        let shards = match self.driver {
            Driver::Sharded { shards, .. } => shards,
            _ => 4,
        };
        // A halo as deep as the largest pattern keeps every occurrence whole.
        PartitionSpec::vertex_range(shards, self.max_edges)
    }

    pub fn max_resident(&self) -> usize {
        match self.driver {
            Driver::Sharded { max_resident, .. } => max_resident,
            _ => 2,
        }
    }
}

/// SplitMix64: a small seeded generator, enough for shuffling.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// An isomorphic copy of `base`: vertex ids permuted inside consecutive
/// blocks of `block` ids (one block when `None`) and the blocks permuted,
/// label names permuted, and edges inserted in shuffled order.
fn relabel(base: &LabeledGraph, block: Option<usize>, seed: u64) -> LabeledGraph {
    let mut rng = SplitMix(seed);
    let n = base.num_vertices();
    let block = block.unwrap_or(n).max(1);
    let mut blocks: Vec<usize> = (0..n.div_ceil(block)).collect();
    rng.shuffle(&mut blocks);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for b in blocks {
        let mut ids: Vec<usize> = (b * block..((b + 1) * block).min(n)).collect();
        rng.shuffle(&mut ids);
        order.extend(ids);
    }
    let mut labels = base.distinct_labels();
    let names = labels.clone();
    rng.shuffle(&mut labels);
    let rename: std::collections::HashMap<Label, Label> = names.into_iter().zip(labels).collect();
    let mut position = vec![0 as VertexId; n];
    let mut graph = LabeledGraph::with_capacity(n);
    for (new, &old) in order.iter().enumerate() {
        position[old] = new as VertexId;
        graph.add_vertex(rename[&base.label(old as VertexId)]);
    }
    let mut edges: Vec<(VertexId, VertexId)> = base.edges().collect();
    rng.shuffle(&mut edges);
    for (u, v) in edges {
        graph.add_edge(position[u as usize], position[v as usize]).expect("edge of the base graph");
    }
    graph
}

/// Edges the update stream toggles: evenly spaced over the edge list.
pub fn toggled_edges(graph: &LabeledGraph) -> Vec<(VertexId, VertexId)> {
    let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let step = (edges.len() / TOGGLED_EDGES).max(1);
    edges.into_iter().step_by(step).take(TOGGLED_EDGES).collect()
}

/// One update: remove an edge and add it back in the same batch, so the epoch
/// advances while the graph, and with it the mining work, stays the same.
pub fn toggle_batch((u, v): (VertexId, VertexId)) -> [GraphUpdate; 2] {
    [GraphUpdate::RemoveEdge(u, v), GraphUpdate::AddEdge(u, v)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(g: &LabeledGraph) -> (usize, usize, Vec<usize>, Vec<usize>) {
        let mut labels: Vec<usize> = g.label_histogram().iter().map(|&(_, c)| c).collect();
        labels.sort_unstable();
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        (g.num_vertices(), g.num_edges(), labels, degrees)
    }

    #[test]
    fn seeds_give_isomorphic_copies() {
        let base = generators::community_graph(4, 20, 0.3, 0.01, 3, 5);
        let a = relabel(&base, Some(20), 1);
        assert_eq!(summary(&a), summary(&base));
        assert_eq!(
            ffsm_graph::io::to_lg_string(&a),
            ffsm_graph::io::to_lg_string(&relabel(&base, Some(20), 1))
        );
        assert_ne!(
            ffsm_graph::io::to_lg_string(&a),
            ffsm_graph::io::to_lg_string(&relabel(&base, Some(20), 2))
        );
        // Blocks stay contiguous: an edge inside a community stays inside one.
        let inside = |g: &LabeledGraph| g.edges().filter(|(u, v)| u / 20 == v / 20).count();
        assert_eq!(inside(&a), inside(&base));
    }
}
