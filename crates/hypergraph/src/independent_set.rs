//! Maximum independent sets in ordinary graphs.
//!
//! The overlap-graph-based MIS support measure of Vanetik et al. (Definition 2.2.7)
//! needs a maximum independent vertex set of the *overlap graph* — a plain graph
//! whose vertices are occurrences/instances.  This module provides a small adjacency
//! structure for such graphs plus exact and greedy solvers, so the paper's baseline
//! measure can be computed and compared against the hypergraph-native MIES.

use crate::{ExactResult, SearchBudget};

/// Below this vertex count a [`SimpleGraph`] also keeps dense bitset adjacency rows
/// (`n²/64` words) so `has_edge` is a single word probe; above it, membership falls
/// back to binary search in the sorted CSR rows.  2048 vertices cost at most 512 KiB
/// of bitset — negligible next to the CSR arrays themselves.
const BITSET_MAX_VERTICES: usize = 2048;

/// A minimal undirected graph over vertices `0..n` in CSR (compressed sparse row)
/// form: one flat `neighbors` array, sliced per vertex by `offsets`, each row sorted.
/// Small graphs additionally carry bitset adjacency rows for O(1) membership tests.
///
/// Used for overlap graphs (whose vertices are hyperedges of an occurrence
/// hypergraph), not for labeled data graphs.  Bulk construction goes through
/// [`SimpleGraph::from_edge_list`] (the indexed overlap builders' path);
/// [`SimpleGraph::add_edge`] performs an O(|E|) sorted insertion and is intended for
/// small, incrementally-built graphs (tests, oracles).
#[derive(Debug, Clone)]
pub struct SimpleGraph {
    /// `offsets[v]..offsets[v + 1]` slices `neighbors` into the sorted row of `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour rows.
    neighbors: Vec<usize>,
    /// Dense adjacency rows (`n` rows of `ceil(n / 64)` words), only for small `n`.
    bits: Option<Vec<u64>>,
}

impl SimpleGraph {
    /// Create a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        SimpleGraph { offsets: vec![0; n + 1], neighbors: Vec::new(), bits: Self::empty_bits(n) }
    }

    fn empty_bits(n: usize) -> Option<Vec<u64>> {
        (n <= BITSET_MAX_VERTICES).then(|| vec![0u64; n * n.div_ceil(64)])
    }

    fn words_per_row(&self) -> usize {
        self.num_vertices().div_ceil(64)
    }

    fn set_bit(bits: &mut [u64], words: usize, u: usize, v: usize) {
        bits[u * words + v / 64] |= 1u64 << (v % 64);
    }

    /// Build from an unsorted edge list; duplicate and self-loop entries are ignored.
    /// This is the CSR bulk constructor the indexed overlap builders use: two counting
    /// passes, no per-vertex allocation.
    pub fn from_edge_list(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut sorted: Vec<(usize, usize)> =
            edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut degree = vec![0usize; n];
        for &(u, v) in &sorted {
            assert!(u < n && v < n, "invalid edge {u}-{v}");
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0usize; sorted.len() * 2];
        let mut bits = Self::empty_bits(n);
        let words = n.div_ceil(64);
        for &(u, v) in &sorted {
            neighbors[cursor[u]] = v;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            cursor[v] += 1;
            if let Some(b) = bits.as_mut() {
                Self::set_bit(b, words, u, v);
                Self::set_bit(b, words, v, u);
            }
        }
        // Rows come out sorted because the deduped edge list is sorted by (min, max)
        // and each row receives its smaller-endpoint entries in order; the larger
        // endpoint's entries arrive sorted by the first component too.  The second
        // component order within one `u` is ascending, so every row is sorted.
        SimpleGraph { offsets, neighbors, bits }
    }

    /// Build from adjacency lists (as produced by
    /// [`Hypergraph::overlap_adjacency`](crate::Hypergraph::overlap_adjacency)).
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Self {
        let n = adj.len();
        let edges: Vec<(usize, usize)> = adj
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
            .collect();
        Self::from_edge_list(n, &edges)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Insert the undirected edge `{u, v}` (no-op if it exists).  Sorted insertion
    /// into the flat CSR arrays: O(|E|) per call, fine for the small incrementally
    /// built graphs of tests and oracles; bulk paths use
    /// [`SimpleGraph::from_edge_list`].
    pub fn add_edge(&mut self, u: usize, v: usize) {
        let n = self.num_vertices();
        assert!(u < n && v < n && u != v, "invalid edge {u}-{v}");
        if self.has_edge(u, v) {
            return;
        }
        self.insert_neighbor(u, v);
        self.insert_neighbor(v, u);
        if let Some(bits) = self.bits.as_mut() {
            let words = n.div_ceil(64);
            Self::set_bit(bits, words, u, v);
            Self::set_bit(bits, words, v, u);
        }
    }

    fn insert_neighbor(&mut self, u: usize, v: usize) {
        let row = &self.neighbors[self.offsets[u]..self.offsets[u + 1]];
        let pos = self.offsets[u] + row.partition_point(|&w| w < v);
        self.neighbors.insert(pos, v);
        for offset in &mut self.offsets[u + 1..] {
            *offset += 1;
        }
    }

    /// `true` if the undirected edge `{u, v}` is present: a single word probe on
    /// small graphs, binary search in the sorted CSR row otherwise.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        if let Some(bits) = self.bits.as_ref() {
            return bits[u * self.words_per_row() + v / 64] & (1u64 << (v % 64)) != 0;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Neighbours of `v`, sorted ascending.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }
}

/// Components with more vertices than this (after the root reductions) get no
/// dense adjacency rows — `k²/8` bytes, 8 MiB at the limit — and no search: they
/// contribute a maximal independent set, reported as not optimal.
const KERNEL_MAX_VERTICES: usize = 8192;

/// Exact maximum independent set of `g` by branch and reduce.
///
/// 1. Degree-0 and degree-1 vertices are peeled off the whole graph first
///    (take the vertex, drop its neighbour — both exact), in linear time; so
///    isolated vertices and trees never reach a search.
/// 2. What remains splits into connected components; MIS is additive over
///    them.  Each component gets dense `u64` adjacency rows and a search of
///    its own.
/// 3. At every search node the kernel re-applies the degree-0/1 rules, prunes
///    with a greedy clique-cover bound (α ≤ θ, computed word-parallel and
///    abandoned as soon as the cover exceeds what the incumbent allows), and
///    branches on the highest-degree vertex, include before exclude.
///
/// One node count is shared by all components, so `budget` caps the total
/// work and [`ExactResult::nodes`] never exceeds it.  When it runs out, each
/// unfinished component keeps its best set so far (at least the greedy one)
/// and the result is reported with `optimal = false`.
pub fn exact_max_independent_set(g: &SimpleGraph, budget: SearchBudget) -> ExactResult {
    let n = g.num_vertices();
    let (mut witness, alive) = peel_low_degree(g);
    let mut nodes = 0usize;
    let mut optimal = true;
    // Residual components, found by depth-first search over the alive vertices.
    let mut seen = vec![false; n];
    let mut index = vec![0u32; n];
    let mut stack = Vec::new();
    let mut component = Vec::new();
    for root in 0..n {
        if !alive[root] || seen[root] {
            continue;
        }
        component.clear();
        seen[root] = true;
        stack.push(root);
        while let Some(v) = stack.pop() {
            component.push(v);
            for &w in g.neighbors(v) {
                if alive[w] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        // Keep the graph's own vertex order: overlap graphs number occurrences
        // in enumeration order, so neighbours in that order tend to share an
        // image vertex, and the greedy clique cover grows along them.
        component.sort_unstable();
        if component.len() > KERNEL_MAX_VERTICES {
            // First fit in vertex order: a maximal independent set.
            optimal = false;
            let first = witness.len();
            for &v in &component {
                if !g.neighbors(v).iter().any(|w| witness[first..].binary_search(w).is_ok()) {
                    witness.push(v);
                }
            }
            continue;
        }
        for (i, &v) in component.iter().enumerate() {
            index[v] = i as u32;
        }
        let kernel = Kernel::solve(g, &component, &alive, &index, budget.0 - nodes);
        nodes += kernel.nodes;
        optimal &= kernel.optimal;
        witness.extend(kernel.best.iter().map(|&i| component[i as usize]));
    }
    witness.sort_unstable();
    ExactResult { value: witness.len(), witness, optimal, nodes }
}

/// Apply the degree-0 and degree-1 rules to `g` until no vertex of degree ≤ 1
/// is left.  Returns the vertices taken and the alive mask of the residual graph,
/// whose vertices all have degree ≥ 2.
fn peel_low_degree(g: &SimpleGraph) -> (Vec<usize>, Vec<bool>) {
    let n = g.num_vertices();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut taken = Vec::new();
    let mut queue: Vec<usize> = (0..n).filter(|&v| degree[v] <= 1).collect();
    let mut remove = |v: usize, alive: &mut Vec<bool>, queue: &mut Vec<usize>| {
        alive[v] = false;
        for &w in g.neighbors(v) {
            if alive[w] {
                degree[w] -= 1;
                if degree[w] == 1 {
                    queue.push(w);
                }
            }
        }
    };
    while let Some(v) = queue.pop() {
        if !alive[v] {
            continue;
        }
        taken.push(v);
        let neighbour = g.neighbors(v).iter().copied().find(|&w| alive[w]);
        remove(v, &mut alive, &mut queue);
        if let Some(u) = neighbour {
            remove(u, &mut alive, &mut queue);
        }
    }
    (taken, alive)
}

/// Branch-and-reduce search for one connected component.
///
/// Every level of the search holds its vertices twice: as dense `u64`
/// adjacency rows (word-parallel set operations, O(1) membership) and as
/// sorted neighbour lists.  Work on one vertex's neighbourhood walks whichever
/// is shorter, the list or the row's words, so sparse components cost
/// O(degree) and dense ones O(words) per vertex.  Alive degrees are kept
/// incrementally along the search path: removing a vertex decrements its
/// alive neighbours and backtracking replays the removals in reverse.
///
/// When a node's alive set fits in at most half the words of its level, its
/// subtree moves to a compacted level: rows, lists and degrees over just
/// those vertices, pushed onto the same arenas, so every node below costs
/// proportionally less and nothing is allocated once the arenas have grown.
struct Kernel {
    /// Row blocks, one per level on the current path; the component's first.
    rows: Vec<u64>,
    /// Per level, `k + 1` offsets into `neighbours` delimiting each vertex's
    /// sorted neighbour list.
    offsets: Vec<usize>,
    neighbours: Vec<u32>,
    /// Per level, the component index of each of its vertices.
    map: Vec<u32>,
    /// Per level, each alive vertex's degree within the alive set of the
    /// deepest node on the path.
    degree: Vec<u32>,
    /// The alive set of every node on the current path.
    alive: Vec<u64>,
    /// Vertices removed on the current path, in order, for backtracking.
    trail: Vec<u32>,
    /// Scratch for the clique-cover bound: the uncovered set, the clique's
    /// candidate set (dense vertices) or its members (sparse vertices).
    uncovered: Vec<u64>,
    candidates: Vec<u64>,
    clique: Vec<u32>,
    /// Scratch for compaction: the new index of every alive vertex.
    local: Vec<u32>,
    /// The set built on the current path, as component indices.
    chosen: Vec<u32>,
    best: Vec<u32>,
    nodes: usize,
    budget: usize,
    optimal: bool,
}

/// Where one level of a [`Kernel`] lives in its arenas.
#[derive(Clone, Copy)]
struct Level {
    /// Words per adjacency row and alive set.
    words: usize,
    /// Offset of the level's rows in `Kernel::rows`.
    rows: usize,
    /// Offset of the level's list offsets in `Kernel::offsets`.
    lists: usize,
    /// Offset of the level's index map in `Kernel::map` and degrees in
    /// `Kernel::degree`.
    map: usize,
}

impl Kernel {
    /// Solve the component of `g` induced by `component` (sorted) within
    /// `budget` nodes, starting from its minimum-degree greedy set.  Row, list
    /// entry and bit `i` stand for `component[i]`, and `index` maps back;
    /// `alive` marks the vertices left after peeling, so every alive
    /// neighbour of a component vertex is in the component.
    fn solve(
        g: &SimpleGraph,
        component: &[usize],
        alive: &[bool],
        index: &[u32],
        budget: usize,
    ) -> Kernel {
        let k = component.len();
        let words = k.div_ceil(64);
        let mut kernel = Kernel {
            rows: vec![0u64; k * words],
            offsets: Vec::with_capacity(k + 1),
            neighbours: Vec::new(),
            map: (0..k as u32).collect(),
            degree: Vec::with_capacity(k),
            alive: Vec::new(),
            trail: Vec::new(),
            uncovered: vec![0u64; words],
            candidates: vec![0u64; words],
            clique: Vec::new(),
            local: vec![0u32; k],
            chosen: Vec::new(),
            best: Vec::new(),
            nodes: 0,
            budget,
            optimal: true,
        };
        kernel.offsets.push(0);
        for (i, &v) in component.iter().enumerate() {
            // Vertices outside the component are peeled (dead) or unreachable.
            for j in g.neighbors(v).iter().filter(|&&w| alive[w]).map(|&w| index[w] as usize) {
                kernel.rows[i * words + j / 64] |= 1u64 << (j % 64);
                kernel.neighbours.push(j as u32);
            }
            kernel.offsets.push(kernel.neighbours.len());
            kernel.degree.push((kernel.offsets[i + 1] - kernel.offsets[i]) as u32);
        }
        let top = Level { words, rows: 0, lists: 0, map: 0 };
        kernel.fill(0, k);
        kernel.best = kernel.greedy(top);
        kernel.search(top, 0);
        kernel
    }

    /// Make the `k` vertices of a level alive in the set at `at`.
    fn fill(&mut self, at: usize, k: usize) {
        let words = k.div_ceil(64);
        if self.alive.len() < at + words {
            self.alive.resize(at + words, 0);
        }
        self.alive[at..at + words].fill(u64::MAX);
        if !k.is_multiple_of(64) {
            self.alive[at + words - 1] = (1u64 << (k % 64)) - 1;
        }
    }

    fn list(&self, level: Level, v: usize) -> &[u32] {
        &self.neighbours[self.offsets[level.lists + v]..self.offsets[level.lists + v + 1]]
    }

    /// Number of neighbours of `v` in the alive set at `at`.
    fn alive_degree(&self, level: Level, at: usize, v: usize) -> u32 {
        let alive = &self.alive[at..at + level.words];
        let list = self.list(level, v);
        if list.len() < level.words {
            list.iter().filter(|&&u| bit(alive, u as usize)).count() as u32
        } else {
            let row = &self.rows[level.rows + v * level.words..][..level.words];
            row.iter().zip(alive).map(|(r, a)| (r & a).count_ones()).sum()
        }
    }

    /// Recount the degree of every vertex alive at `at` from scratch.
    fn recount(&mut self, level: Level, at: usize) {
        for wi in 0..level.words {
            let mut bits = self.alive[at + wi];
            while bits != 0 {
                let v = wi * 64 + bits.trailing_zeros() as usize;
                self.degree[level.map + v] = self.alive_degree(level, at, v);
                bits &= bits - 1;
            }
        }
    }

    /// Apply `f` to the degree of every neighbour of `v` alive at `at`.
    fn for_alive_neighbour(&mut self, level: Level, at: usize, v: usize, f: impl Fn(&mut u32)) {
        let w = level.words;
        let Kernel { rows, offsets, neighbours, degree, alive, .. } = self;
        let alive = &alive[at..at + w];
        let degree = &mut degree[level.map..];
        let list = &neighbours[offsets[level.lists + v]..offsets[level.lists + v + 1]];
        if list.len() < w {
            for &u in list {
                if bit(alive, u as usize) {
                    f(&mut degree[u as usize]);
                }
            }
        } else {
            let row = &rows[level.rows + v * w..level.rows + (v + 1) * w];
            for (wi, (r, a)) in row.iter().zip(alive).enumerate() {
                let mut bits = r & a;
                while bits != 0 {
                    f(&mut degree[wi * 64 + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Drop `v` from the alive set at `at`, keeping degrees current, and
    /// record it on the trail.
    fn remove(&mut self, level: Level, at: usize, v: usize) {
        self.alive[at + v / 64] &= !(1u64 << (v % 64));
        self.for_alive_neighbour(level, at, v, |d| *d -= 1);
        self.trail.push(v as u32);
    }

    /// Undo the removals on the trail above `mark`, newest first.
    fn restore(&mut self, level: Level, at: usize, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail above mark") as usize;
            self.for_alive_neighbour(level, at, v, |d| *d += 1);
            self.alive[at + v / 64] |= 1u64 << (v % 64);
        }
    }

    /// The minimum-degree greedy set of the whole component.
    fn greedy(&self, level: Level) -> Vec<u32> {
        let mut alive = self.alive[..level.words].to_vec();
        let mut degree = self.degree.clone();
        let mut taken = Vec::new();
        while let Some((v, _)) =
            degree.iter().enumerate().filter(|&(u, _)| bit(&alive, u)).min_by_key(|&(_, &d)| d)
        {
            taken.push(v as u32);
            // Drop v and its alive neighbours, updating the survivors' degrees.
            let dropped: Vec<u32> = std::iter::once(v as u32)
                .chain(self.list(level, v).iter().copied().filter(|&u| bit(&alive, u as usize)))
                .collect();
            for &x in &dropped {
                alive[x as usize / 64] &= !(1u64 << (x % 64));
            }
            for &x in &dropped {
                for &u in self.list(level, x as usize) {
                    degree[u as usize] = degree[u as usize].saturating_sub(1);
                }
            }
        }
        taken
    }

    /// One search node: the alive set at `at` in `level`, whose degrees are
    /// current on entry and again on return.
    fn search(&mut self, level: Level, at: usize) {
        if self.nodes == self.budget {
            self.optimal = false;
            return;
        }
        self.nodes += 1;
        let w = level.words;
        // The cheapest bound first: `words` popcounts.
        let alive_count: u32 = self.alive[at..at + w].iter().map(|x| x.count_ones()).sum();
        if self.chosen.len() + alive_count as usize <= self.best.len() {
            return;
        }
        let (chosen_mark, trail_mark) = (self.chosen.len(), self.trail.len());
        let (pivot, degree, alive_count, degree_sum) = self.reduce(level, at);
        if self.chosen.len() > self.best.len() {
            // `chosen` is independent at every node, so it is a valid incumbent.
            self.best.clone_from(&self.chosen);
        }
        if let Some(v) = pivot {
            let slack = self.best.len() - self.chosen.len();
            // A clique has at most `degree + 1` vertices, so a cover needs at
            // least `alive / (degree + 1)` of them: skip building one when
            // that is already too many.
            let open = alive_count > slack
                && (alive_count > slack * (degree + 1) || self.cover_exceeds(level, at, slack));
            if open {
                if alive_count.div_ceil(64) * 2 <= w {
                    self.compact(level, at, alive_count);
                } else {
                    self.branch(level, at, v, alive_count, degree_sum);
                }
            }
        }
        self.restore(level, at, trail_mark);
        self.chosen.truncate(chosen_mark);
    }

    /// Branch on `v`: include it (the child drops its closed neighbourhood),
    /// then exclude it.  `alive_count` vertices are alive at `at`.
    fn branch(&mut self, level: Level, at: usize, v: usize, alive_count: usize, degree_sum: usize) {
        let w = level.words;
        let child = at + w;
        if self.alive.len() < child + w {
            self.alive.resize(child + w, 0);
        }
        self.alive.copy_within(at..at + w, child);
        // Dropping N[v] one vertex at a time costs a decrement per edge it
        // loses, about `(d(v) + 1) · mean degree`; on dense sets recounting
        // every degree, `alive · words`, is cheaper.
        let lost = (self.degree[level.map + v] as usize + 1) * degree_sum / alive_count;
        let mark = self.trail.len();
        self.chosen.push(self.map[level.map + v]);
        if lost > alive_count * w {
            for i in 0..w {
                self.alive[child + i] &= !self.rows[level.rows + v * w + i];
            }
            self.alive[child + v / 64] &= !(1u64 << (v % 64));
            self.recount(level, child);
            self.search(level, child);
            self.alive.copy_within(at..at + w, child);
            self.recount(level, child);
        } else {
            self.remove(level, child, v);
            for wi in 0..w {
                let mut bits = self.rows[level.rows + v * w + wi] & self.alive[child + wi];
                while bits != 0 {
                    self.remove(level, child, wi * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            self.search(level, child);
            self.restore(level, child, mark);
        }
        self.chosen.pop();
        if self.optimal {
            self.remove(level, child, v);
            self.search(level, child);
            self.restore(level, child, mark);
        }
    }

    /// Continue the search below the node at `at` on a new level holding just
    /// its `count` alive vertices.
    fn compact(&mut self, level: Level, at: usize, count: usize) {
        let w = level.words;
        let sub = Level {
            words: count.div_ceil(64),
            rows: self.rows.len(),
            lists: self.offsets.len(),
            map: self.map.len(),
        };
        let mut vertices = Vec::with_capacity(count);
        for_each_bit(&self.alive[at..at + w], |v| vertices.push(v));
        for (i, &v) in vertices.iter().enumerate() {
            self.local[v] = i as u32;
            self.map.push(self.map[level.map + v]);
        }
        self.rows.resize(sub.rows + count * sub.words, 0);
        self.offsets.push(self.neighbours.len());
        for (i, &v) in vertices.iter().enumerate() {
            let start = self.neighbours.len();
            let (from, to) = (self.offsets[level.lists + v], self.offsets[level.lists + v + 1]);
            if to - from < w {
                for e in from..to {
                    let u = self.neighbours[e] as usize;
                    if bit(&self.alive[at..at + w], u) {
                        self.neighbours.push(self.local[u]);
                    }
                }
            } else {
                for wi in 0..w {
                    let mut bits = self.rows[level.rows + v * w + wi] & self.alive[at + wi];
                    while bits != 0 {
                        self.neighbours.push(self.local[wi * 64 + bits.trailing_zeros() as usize]);
                        bits &= bits - 1;
                    }
                }
            }
            for e in start..self.neighbours.len() {
                let j = self.neighbours[e] as usize;
                self.rows[sub.rows + i * sub.words + j / 64] |= 1u64 << (j % 64);
            }
            self.offsets.push(self.neighbours.len());
            self.degree.push((self.neighbours.len() - start) as u32);
        }
        self.fill(at + w, count);
        self.search(sub, at + w);
        self.neighbours.truncate(self.offsets[sub.lists]);
        self.offsets.truncate(sub.lists);
        self.rows.truncate(sub.rows);
        self.map.truncate(sub.map);
        self.degree.truncate(sub.map);
    }

    /// Apply the degree-0/1 rules to the alive set at `at` until neither fires,
    /// pushing taken vertices onto `chosen` and removed ones onto the trail.
    /// Returns the highest-degree vertex left (first on ties; `None` if the set
    /// is empty), its degree and the alive count.
    fn reduce(&mut self, level: Level, at: usize) -> (Option<usize>, usize, usize, usize) {
        let w = level.words;
        loop {
            let mut fired = false;
            let mut pivot = None;
            let mut pivot_degree = 0u32;
            let mut count = 0usize;
            let mut degree_sum = 0usize;
            for wi in 0..w {
                let mut bits = self.alive[at + wi];
                while bits != 0 {
                    let v = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // A degree-1 rule earlier in this word may have dropped v.
                    if self.alive[at + wi] & (1u64 << (v % 64)) == 0 {
                        continue;
                    }
                    match self.degree[level.map + v] {
                        0 => {
                            self.chosen.push(self.map[level.map + v]);
                            self.remove(level, at, v);
                        }
                        1 => {
                            let alive = &self.alive[at..at + w];
                            let u = self
                                .list(level, v)
                                .iter()
                                .map(|&u| u as usize)
                                .find(|&u| bit(alive, u))
                                .expect("a degree-1 vertex has an alive neighbour");
                            self.chosen.push(self.map[level.map + v]);
                            self.remove(level, at, v);
                            self.remove(level, at, u);
                            fired = true;
                        }
                        d => {
                            count += 1;
                            degree_sum += d as usize;
                            if d > pivot_degree {
                                pivot = Some(v);
                                pivot_degree = d;
                            }
                        }
                    }
                }
            }
            // A degree-1 rule lowers its neighbour's neighbours' degrees, which
            // may already have been counted: rescan until a pass fires nothing.
            if !fired {
                return (pivot, pivot_degree as usize, count, degree_sum);
            }
        }
    }

    /// `true` if a greedy clique cover of the alive set at `at` needs more than
    /// `slack` cliques — the α ≤ θ bound fails to prune.  Stops as soon as the
    /// count passes `slack`.  Each clique opens at the first uncovered vertex and
    /// repeatedly takes the first uncovered vertex adjacent to all its members.
    fn cover_exceeds(&mut self, level: Level, at: usize, slack: usize) -> bool {
        let w = level.words;
        let Kernel { rows, offsets, neighbours, alive, uncovered, candidates, clique, .. } = self;
        let uncovered = &mut uncovered[..w];
        let candidates = &mut candidates[..w];
        uncovered.copy_from_slice(&alive[at..at + w]);
        let row = |v: usize| &rows[level.rows + v * w..level.rows + (v + 1) * w];
        let mut cliques = 0usize;
        for wi in 0..w {
            while uncovered[wi] != 0 {
                cliques += 1;
                if cliques > slack {
                    return true;
                }
                let v = wi * 64 + uncovered[wi].trailing_zeros() as usize;
                uncovered[wi] &= uncovered[wi] - 1;
                let list = &neighbours[offsets[level.lists + v]..offsets[level.lists + v + 1]];
                if list.len() < w {
                    // Sparse vertex: walk its list, testing members bit-wise.
                    clique.clear();
                    clique.push(v as u32);
                    for &u in list {
                        let u = u as usize;
                        if bit(uncovered, u) && clique.iter().all(|&m| bit(row(u), m as usize)) {
                            clique.push(u as u32);
                            uncovered[u / 64] &= !(1u64 << (u % 64));
                        }
                    }
                    continue;
                }
                // Dense vertex: intersect candidate sets word by word.
                for j in wi..w {
                    candidates[j] = uncovered[j] & row(v)[j];
                }
                let mut j = wi;
                while j < w {
                    if candidates[j] == 0 {
                        j += 1;
                        continue;
                    }
                    let u = j * 64 + candidates[j].trailing_zeros() as usize;
                    uncovered[j] &= !(1u64 << (u % 64));
                    for (t, word) in row(u).iter().enumerate().skip(j) {
                        candidates[t] &= word;
                    }
                }
            }
        }
        false
    }
}

fn bit(set: &[u64], v: usize) -> bool {
    set[v / 64] & (1u64 << (v % 64)) != 0
}

fn for_each_bit(set: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(i * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Greedy independent set: repeatedly take the minimum-degree remaining vertex and
/// discard its neighbours.
pub fn greedy_independent_set(g: &SimpleGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    let mut chosen = Vec::new();
    loop {
        let mut pick = None;
        let mut pick_degree = usize::MAX;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let d = g.neighbors(v).iter().filter(|&&w| alive[w]).count();
            if d < pick_degree {
                pick = Some(v);
                pick_degree = d;
            }
        }
        let Some(v) = pick else { break };
        chosen.push(v);
        alive[v] = false;
        for &w in g.neighbors(v) {
            alive[w] = false;
        }
    }
    chosen.sort_unstable();
    chosen
}

/// `true` if `set` is an independent set of `g`.
pub fn is_independent_set(g: &SimpleGraph, set: &[usize]) -> bool {
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            if g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> SimpleGraph {
        let mut g = SimpleGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn four_cycle_mis_is_two() {
        let g = cycle(4);
        let res = exact_max_independent_set(&g, SearchBudget::default());
        assert!(res.optimal);
        assert_eq!(res.value, 2);
        assert!(is_independent_set(&g, &res.witness));
    }

    #[test]
    fn five_cycle_mis_is_two() {
        let g = cycle(5);
        assert_eq!(exact_max_independent_set(&g, SearchBudget::default()).value, 2);
    }

    #[test]
    fn complete_graph_mis_is_one() {
        let mut g = SimpleGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(g.num_edges(), 10);
        assert_eq!(exact_max_independent_set(&g, SearchBudget::default()).value, 1);
    }

    #[test]
    fn empty_graph_takes_everything() {
        let g = SimpleGraph::new(6);
        let res = exact_max_independent_set(&g, SearchBudget::default());
        assert_eq!(res.value, 6);
        assert_eq!(res.witness, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(greedy_independent_set(&g).len(), 6);
    }

    #[test]
    fn zero_vertices() {
        let g = SimpleGraph::new(0);
        assert_eq!(exact_max_independent_set(&g, SearchBudget::default()).value, 0);
    }

    #[test]
    fn greedy_is_valid_and_never_better_than_exact() {
        let g = cycle(9);
        let greedy = greedy_independent_set(&g);
        assert!(is_independent_set(&g, &greedy));
        let exact = exact_max_independent_set(&g, SearchBudget::default());
        assert_eq!(exact.value, 4);
        assert!(greedy.len() <= exact.value);
    }

    #[test]
    fn duplicate_add_edge_is_idempotent() {
        let mut g = SimpleGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn from_edge_list_matches_incremental_build() {
        // Unsorted input with duplicates, reversed pairs and a self loop.
        let edges = [(3usize, 1usize), (0, 2), (2, 0), (1, 3), (4, 0), (2, 2), (1, 0)];
        let bulk = SimpleGraph::from_edge_list(5, &edges);
        let mut incremental = SimpleGraph::new(5);
        for &(u, v) in &edges {
            if u != v {
                incremental.add_edge(u, v);
            }
        }
        assert_eq!(bulk.num_edges(), 4);
        for v in 0..5 {
            assert_eq!(bulk.neighbors(v), incremental.neighbors(v), "row {v}");
            let sorted = bulk.neighbors(v);
            assert!(sorted.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
        assert!(bulk.has_edge(1, 3) && bulk.has_edge(3, 1));
        assert!(!bulk.has_edge(2, 2) && !bulk.has_edge(3, 4));
    }

    #[test]
    fn has_edge_agrees_with_neighbor_rows_beyond_bitset_limit() {
        // 3000 vertices exceeds the bitset threshold: membership must fall back to
        // binary search and still agree with the rows.
        let n = 3000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = SimpleGraph::from_edge_list(n, &edges);
        assert_eq!(g.num_edges(), n - 1);
        assert!(g.has_edge(0, 1) && g.has_edge(n - 2, n - 1));
        assert!(!g.has_edge(0, 2) && !g.has_edge(5, 5));
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    /// α(g) by enumerating every vertex subset (n ≤ 14).
    fn brute_force_alpha(g: &SimpleGraph) -> usize {
        let n = g.num_vertices();
        (0u32..1 << n)
            .filter(|&mask| {
                (0..n).all(|u| {
                    mask & (1 << u) == 0 || g.neighbors(u).iter().all(|&v| mask & (1 << v) == 0)
                })
            })
            .map(|mask| mask.count_ones() as usize)
            .max()
            .unwrap_or(0)
    }

    fn complete(n: usize) -> SimpleGraph {
        let mut g = SimpleGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The disjoint union of `parts`, renumbered in order.
    fn union(parts: &[SimpleGraph]) -> SimpleGraph {
        let n = parts.iter().map(SimpleGraph::num_vertices).sum();
        let mut edges = Vec::new();
        let mut offset = 0;
        for part in parts {
            for u in 0..part.num_vertices() {
                edges.extend(part.neighbors(u).iter().map(|&v| (offset + u, offset + v)));
            }
            offset += part.num_vertices();
        }
        SimpleGraph::from_edge_list(n, &edges)
    }

    fn assert_matches_oracle(g: &SimpleGraph, context: &str) {
        let res = exact_max_independent_set(g, SearchBudget::default());
        assert!(res.optimal, "{context}: not optimal");
        assert_eq!(res.value, brute_force_alpha(g), "{context}: wrong α");
        assert_eq!(res.witness.len(), res.value, "{context}: witness size");
        assert!(is_independent_set(g, &res.witness), "{context}: witness not independent");
        assert!(res.witness.windows(2).all(|w| w[0] < w[1]), "{context}: witness not sorted");
        assert!(res.nodes <= SearchBudget::default().0);
    }

    #[test]
    fn kernel_matches_subset_enumeration() {
        let mut seed = 11u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        // Random graphs over the whole density range, 1..=14 vertices; low
        // densities leave isolated vertices and several components.
        for trial in 0..400 {
            let n = 1 + trial % 14;
            let density = next() % 101;
            let mut g = SimpleGraph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if next() % 100 < density {
                        g.add_edge(u, v);
                    }
                }
            }
            assert_matches_oracle(&g, &format!("trial {trial} (n {n}, p {density}%)"));
        }
        let path = |n: usize| {
            let mut g = SimpleGraph::new(n);
            for v in 1..n {
                g.add_edge(v - 1, v);
            }
            g
        };
        for n in 1..=14 {
            assert_matches_oracle(&path(n), &format!("path {n}"));
            assert_matches_oracle(&complete(n), &format!("clique {n}"));
            assert_matches_oracle(&SimpleGraph::new(n), &format!("{n} isolated vertices"));
            if n >= 3 {
                assert_matches_oracle(&cycle(n), &format!("cycle {n}"));
            }
        }
        let mixed = union(&[cycle(5), SimpleGraph::new(2), complete(4), path(3)]);
        assert_matches_oracle(&mixed, "C5 + 2 isolated + K4 + P3");
        assert_eq!(exact_max_independent_set(&mixed, SearchBudget::default()).value, 2 + 2 + 1 + 2);
    }

    #[test]
    fn budget_is_shared_across_components() {
        // Six copies of a 60-vertex random graph: no copy is solved within a
        // budget of 40 nodes, yet every copy still contributes its greedy set.
        let mut seed = 3u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut part = SimpleGraph::new(60);
        for u in 0..60 {
            for v in u + 1..60 {
                if next() % 100 < 30 {
                    part.add_edge(u, v);
                }
            }
        }
        let g = union(&vec![part.clone(); 6]);
        let full = exact_max_independent_set(&part, SearchBudget::default());
        assert!(full.optimal);
        for budget in [0, 1, 40, 500] {
            let res = exact_max_independent_set(&g, SearchBudget(budget));
            assert!(!res.optimal, "budget {budget}");
            assert!(res.nodes <= budget, "budget {budget}: {} nodes", res.nodes);
            assert!(is_independent_set(&g, &res.witness), "budget {budget}");
            assert_eq!(res.witness.len(), res.value);
            assert!(res.value >= 6 * greedy_independent_set(&part).len());
            assert!(res.value <= 6 * full.value);
        }
        let generous = exact_max_independent_set(&g, SearchBudget::default());
        assert!(generous.optimal);
        assert_eq!(generous.value, 6 * full.value);
        assert_eq!(generous.nodes, 6 * full.nodes);
    }

    #[test]
    fn compacted_levels_match_subset_enumeration() {
        // A hub joined to every vertex of eight random 12-vertex pieces: α is
        // the sum of the pieces' α, each enumerated, while the kernel (which
        // splits components only at the root) searches the pieces as one
        // 2-word component and descends through compacted levels.
        let mut seed = 23u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        const PIECES: usize = 8;
        for trial in 0..6 {
            let pieces: Vec<SimpleGraph> = (0..PIECES)
                .map(|_| {
                    let density = 40 + next() % 40;
                    let mut piece = SimpleGraph::new(12);
                    for u in 0..12 {
                        for v in u + 1..12 {
                            if next() % 100 < density {
                                piece.add_edge(u, v);
                            }
                        }
                    }
                    piece
                })
                .collect();
            let body = union(&pieces);
            let hub = body.num_vertices();
            let mut edges: Vec<(usize, usize)> = (0..hub).map(|v| (v, hub)).collect();
            for u in 0..hub {
                edges.extend(body.neighbors(u).iter().map(|&v| (u, v)));
            }
            let g = SimpleGraph::from_edge_list(hub + 1, &edges);
            let res = exact_max_independent_set(&g, SearchBudget::default());
            assert!(res.optimal, "trial {trial}: {} nodes", res.nodes);
            assert!(is_independent_set(&g, &res.witness), "trial {trial}");
            let alpha: usize = pieces.iter().map(brute_force_alpha).sum();
            assert_eq!(res.value, alpha, "trial {trial}");
        }
    }

    #[test]
    fn oversized_component_gets_a_maximal_set_without_search() {
        // A cycle survives the degree-0/1 peel whole and exceeds the kernel's
        // dense-row limit, so it is answered by first fit, flagged inexact.
        let n = KERNEL_MAX_VERTICES + 1000;
        let g = cycle(n);
        let res = exact_max_independent_set(&g, SearchBudget::default());
        assert!(!res.optimal);
        assert_eq!(res.nodes, 0);
        assert!(is_independent_set(&g, &res.witness));
        assert_eq!(res.value, n / 2);
    }

    #[test]
    fn random_graphs_greedy_leq_exact() {
        let mut seed = 5u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for trial in 0..8 {
            let n = 12 + trial;
            let mut g = SimpleGraph::new(n);
            for _ in 0..(2 * n) {
                let u = next() % n;
                let v = next() % n;
                if u != v {
                    g.add_edge(u, v);
                }
            }
            let exact = exact_max_independent_set(&g, SearchBudget::default());
            assert!(exact.optimal);
            assert!(is_independent_set(&g, &exact.witness));
            let greedy = greedy_independent_set(&g);
            assert!(is_independent_set(&g, &greedy));
            assert!(greedy.len() <= exact.value);
        }
    }
}
