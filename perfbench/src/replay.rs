//! The mining level loop replayed from outside the program, one public call
//! at a time, with a span around every call into a layer.
//!
//! The replay follows `ffsm_miner`'s engine step for step on one thread:
//! `extension::seed_patterns`, then per candidate `Matcher::new`,
//! `Matcher::enumerate_with` on one `SearchArena`, `OccurrenceSet::from_embeddings`
//! and the measure through `SupportMeasures`, the threshold test, and
//! `extension::extensions` + `dedupe_with_codes` for the next level.  In
//! bounds-first mode `BoundsEvaluator::pre_bounds`/`post_bounds` run where the
//! engine runs them.  Its frequent set must equal the session's; the run
//! checks that.

use crate::spec::Spec;
use ffsm_core::{MeasureConfig, MeasureKind, OccurrenceSet, SearchArena, SupportMeasures};
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{LabeledGraph, Pattern};
use ffsm_match::Matcher;
use ffsm_miner::extension::{dedupe_with_codes, extensions, seed_patterns};
use ffsm_miner::{BoundsEvaluator, FrequentPattern, PreparedGraph};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer's origin), and the
/// span it ran inside.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.  A disabled tracer
/// records nothing, so the same replay code serves untraced runs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let start = self.now();
            self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn exit(&mut self) {
        if self.on {
            let end = self.now();
            let i = self.open.pop().expect("exit without a matching enter");
            self.spans[i].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per name, the summed self time in seconds: each span's duration minus
    /// the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// Append the spans as JSON lines tagged with `tracer`.
    pub fn write(&self, path: &Path, tracer: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"tracer\": \"{tracer}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Work counted along the replay.  Every field is a pure function of the
/// graph and the workload, so it repeats exactly for a seed.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub generated: u64,
    pub evaluated: u64,
    pub frequent: u64,
    pub enumerated: u64,
    pub nonempty: u64,
    pub embeddings: u64,
    pub images: u64,
    pub space_size: u64,
    pub search_steps: u64,
    pub backjumps: u64,
    pub solves: u64,
    pub optimal: u64,
    pub overlap_edges: u64,
    /// Candidates whose verdict rests on an exact support: enumeration
    /// complete and, for an overlap measure, the solver proved optimality.
    pub exact: u64,
    pub bounded: u64,
    pub decided: u64,
}

pub struct Replay {
    pub patterns: Vec<FrequentPattern>,
    pub tally: Tally,
}

struct Verdict {
    support: f64,
    num_occurrences: usize,
    /// The certified upper bound the candidate's children inherit.
    child_hi: f64,
}

/// Everything one candidate evaluation needs besides the candidate.
struct Evaluation<'a> {
    prepared: &'a PreparedGraph,
    index: &'a ffsm_core::GraphIndex,
    config: MeasureConfig,
    measure: MeasureKind,
    evaluator: Option<BoundsEvaluator>,
    arena: SearchArena,
}

impl Evaluation<'_> {
    fn evaluate(
        &mut self,
        pattern: &Pattern,
        parent_hi: f64,
        tally: &mut Tally,
        t: &mut Tracer,
    ) -> Verdict {
        tally.evaluated += 1;
        let mut pre = None;
        if let Some(evaluator) = &self.evaluator {
            let outcome = t.time("approx.pre_bounds", || {
                evaluator.pre_bounds(
                    pattern,
                    self.prepared.label_counts(),
                    Some(self.index),
                    parent_hi,
                )
            });
            tally.bounded += 1;
            if let Some(frequent) = outcome.decision {
                tally.decided += 1;
                let iv = outcome.interval;
                return Verdict {
                    support: if frequent { iv.lo } else { iv.hi },
                    num_occurrences: 0,
                    child_hi: iv.hi,
                };
            }
            pre = Some(outcome);
        }
        let occ = enumerate(
            pattern,
            self.prepared.graph(),
            self.index,
            &self.config.iso_config,
            &mut self.arena,
            tally,
            t,
        );
        let complete = occ.is_complete();
        let num_occurrences = occ.num_occurrences();
        if let (Some(evaluator), Some(pre)) = (&self.evaluator, &pre) {
            if evaluator.post_stage() {
                let post = t.time("approx.post_bounds", || evaluator.post_bounds(&occ, pre));
                if let Some(frequent) = post.decision {
                    tally.decided += 1;
                    let iv = post.interval;
                    return Verdict {
                        support: if frequent { iv.lo } else { iv.hi },
                        num_occurrences,
                        child_hi: iv.hi,
                    };
                }
            }
        }
        let measures = SupportMeasures::new(occ, self.config.clone());
        let (support, optimal) = measure(&measures, self.measure, tally, t);
        if complete && optimal {
            tally.exact += 1;
        }
        Verdict { support, num_occurrences, child_hi: support }
    }
}

/// Candidate space, search and materialisation of one pattern.
fn enumerate(
    pattern: &Pattern,
    graph: &LabeledGraph,
    index: &ffsm_core::GraphIndex,
    iso: &IsoConfig,
    arena: &mut SearchArena,
    tally: &mut Tally,
    t: &mut Tracer,
) -> OccurrenceSet {
    let matcher = t.time("match.candidate_space", || Matcher::new(pattern, graph, index));
    tally.space_size += matcher.space().total_size() as u64;
    let before = arena.counters();
    let result = t.time("match.search", || matcher.enumerate_with(iso.clone(), arena));
    let after = arena.counters();
    tally.search_steps += after.steps - before.steps;
    tally.backjumps += after.backjumps - before.backjumps;
    tally.enumerated += 1;
    tally.embeddings += result.embeddings.len() as u64;
    tally.nonempty += u64::from(!result.embeddings.is_empty());
    let occ = t.time("core.materialise", || {
        OccurrenceSet::from_embeddings(pattern.clone(), result.embeddings, result.complete)
    });
    tally.images += occ.num_images() as u64;
    occ
}

/// The support under `kind`, and whether the solver proved it optimal.
fn measure(
    measures: &SupportMeasures,
    kind: MeasureKind,
    tally: &mut Tally,
    t: &mut Tracer,
) -> (f64, bool) {
    match kind {
        MeasureKind::Mni => (t.time("core.measure", || measures.mni()) as f64, true),
        MeasureKind::Mis => {
            let basis = measures.config().basis;
            let overlap = t.time("core.overlap_build", || measures.overlap_graph(basis));
            tally.overlap_edges += overlap.num_edges() as u64;
            let outcome = t.time("hypergraph.solve", || measures.mis());
            tally.solves += 1;
            tally.optimal += u64::from(outcome.optimal);
            (outcome.value as f64, outcome.optimal)
        }
        other => unreachable!("no workload mines with {other}"),
    }
}

/// Replay one exact (`bounds == false`) or bounds-first session of `spec`.
pub fn level_loop(prepared: &PreparedGraph, spec: &Spec, bounds: bool, t: &mut Tracer) -> Replay {
    let index = prepared.index();
    let config = MeasureConfig::default();
    let evaluator =
        if bounds { BoundsEvaluator::new(spec.measure, &config, spec.tau) } else { None };
    let mut eval = Evaluation {
        prepared,
        index: &index,
        config,
        measure: spec.measure,
        evaluator,
        arena: SearchArena::new(),
    };
    let mut tally = Tally::default();
    let mut patterns = Vec::new();
    let mut seen: HashSet<CanonicalCode> = HashSet::new();
    t.enter("miner.session");
    let mut level: Vec<(Pattern, f64)> = t.time("miner.extension", || {
        let seeds = seed_patterns(prepared.graph());
        tally.generated += seeds.len() as u64;
        dedupe_with_codes(seeds, &mut seen).into_iter().map(|(p, _)| (p, f64::INFINITY)).collect()
    });
    while !level.is_empty() {
        let mut survivors = Vec::new();
        for (pattern, parent_hi) in level {
            let v = eval.evaluate(&pattern, parent_hi, &mut tally, t);
            if v.support >= spec.tau {
                patterns.push(FrequentPattern {
                    pattern: pattern.clone(),
                    support: v.support,
                    num_occurrences: v.num_occurrences,
                    support_interval: None,
                    certificate: None,
                });
                survivors.push((pattern, v.child_hi));
            }
        }
        level = t.time("miner.extension", || {
            let mut next = Vec::new();
            for (pattern, hi) in &survivors {
                if pattern.num_edges() >= spec.max_edges {
                    continue;
                }
                let candidates = extensions(pattern, prepared.alphabet());
                tally.generated += candidates.len() as u64;
                next.extend(
                    dedupe_with_codes(candidates, &mut seen).into_iter().map(|(p, _)| (p, *hi)),
                );
            }
            next
        });
    }
    t.exit();
    tally.frequent = patterns.len() as u64;
    Replay { patterns, tally }
}

/// Embedding cap of the off-path probes, so each probe call stays small.
const PROBE_EMBEDDINGS: usize = 32;

/// Time the layers the workload's own sessions never call, on the workload's
/// single-edge seed patterns (at most [`PROBE_EMBEDDINGS`] occurrences each):
/// the overlap graph and MIS solver under an MNI workload, MNI under an
/// overlap workload, and the post-enumeration bounds where the measure has no
/// post stage.  The spans go to their own tracer, so they never count as
/// on-path layer time.
pub fn probe_off_path(prepared: &PreparedGraph, spec: &Spec, t: &mut Tracer) -> Tally {
    let index = prepared.index();
    let config = MeasureConfig::default();
    let iso = IsoConfig { max_embeddings: PROBE_EMBEDDINGS, ..IsoConfig::default() };
    let evaluator = BoundsEvaluator::new(spec.measure, &config, spec.tau);
    let mut arena = SearchArena::new();
    let mut tally = Tally::default();
    let mut seen = HashSet::new();
    for (pattern, _) in dedupe_with_codes(seed_patterns(prepared.graph()), &mut seen) {
        let occ = enumerate(&pattern, prepared.graph(), &index, &iso, &mut arena, &mut tally, t);
        if let Some(evaluator) = evaluator.as_ref().filter(|e| !e.post_stage()) {
            let pre = evaluator.pre_bounds(
                &pattern,
                prepared.label_counts(),
                Some(&index),
                f64::INFINITY,
            );
            t.time("approx.post_bounds", || evaluator.post_bounds(&occ, &pre));
        }
        let measures = SupportMeasures::new(occ, config.clone());
        let other = match spec.measure {
            MeasureKind::Mni => MeasureKind::Mis,
            _ => MeasureKind::Mni,
        };
        measure(&measures, other, &mut tally, t);
    }
    tally
}

/// The frequent set as `canonical code → support`, for comparing runs.
pub fn frequent_set(patterns: &[FrequentPattern]) -> BTreeMap<CanonicalCode, f64> {
    patterns
        .iter()
        .map(|p| (ffsm_graph::canonical::canonical_code(&p.pattern), p.support))
        .collect()
}
