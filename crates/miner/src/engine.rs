//! The unified mining engine behind [`crate::MiningSession`].
//!
//! One level-synchronous pattern-growth loop serves every mode — threshold,
//! level-parallel and top-k — exactly as before, but the loop is now a *resumable
//! state machine* ([`EngineState`]): each [`EngineState::step`] processes one level
//! and pushes the resulting [`MiningEvent`]s, so the
//! [`PatternStream`](crate::PatternStream) can pull lazily instead of blocking
//! until the whole result materialises.  `run()` is a thin collect-the-stream
//! adapter over the same machine.
//!
//! ## Determinism and interruption
//!
//! The partition and merge order of the level evaluation are fixed, so results
//! are identical for every thread count.  Cancellation and deadlines are checked
//! between levels *and* cooperatively inside occurrence enumeration (via the
//! [`CancelToken`] embedded in the `IsoConfig`); an interrupted level is discarded
//! wholesale, so the emitted patterns are always a deterministic prefix of the
//! full run — whole levels, never a partially evaluated one.
//!
//! Support is computed through an `Arc<dyn SupportMeasure>`, so built-in and
//! user-defined measures take exactly the same path.

use crate::delta::{occurrences_touch, sorted_intersects, CacheMode, CachedEval, EvalCache};
use crate::extension::{dedupe_with_codes, extensions, seed_patterns};
use crate::prepared::PreparedGraph;
use crate::stream::{LevelSummary, MiningEvent, RunSummary};
use crate::types::{
    BudgetKind, Completion, FrequentPattern, MiningResult, MiningStats, UndecidedPattern,
};
use ffsm_approx::BoundsEvaluator;
use ffsm_core::{CancelToken, GraphIndex, OccurrenceSet, SearchArena, SupportMeasure};
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{Pattern, VertexId};
use ffsm_obs::{tls, Phase, PhaseTimes, SearchCounters};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Canonical, validated configuration the engine runs from (the session builder's
/// output).
pub(crate) struct EngineConfig {
    /// Support threshold τ (the floor threshold in top-k mode).
    pub min_support: f64,
    /// Occurrence-enumeration settings.  `iso_config.cancel` is the *combined*
    /// token (session token + deadline) so enumeration aborts cooperatively.
    pub iso_config: IsoConfig,
    /// Stop growing patterns beyond this many edges.
    pub max_pattern_edges: usize,
    /// Safety cap on reported patterns (threshold mode).
    pub max_patterns: usize,
    /// Safety cap on support evaluations.
    pub max_evaluations: usize,
    /// Worker threads for level evaluation (already resolved to >= 1).
    pub threads: usize,
    /// `Some(k)` switches to top-k mode.
    pub top_k: Option<usize>,
    /// The session's cancellation token (flag only — its deadline, if any, is
    /// folded into `deadline` below), used to attribute an interruption to
    /// [`Completion::Cancelled`].
    pub cancel: CancelToken,
    /// The effective wall-clock deadline: the tighter of the session's
    /// `.deadline(..)` and any deadline the caller attached to the token itself.
    pub deadline: Option<Instant>,
    /// Fine-grained span sampling (per-candidate space/search times).  Never
    /// changes results; counters and coarse timings are on regardless.
    pub metrics: bool,
    /// Bounds-first evaluation ([`crate::MiningSession::bounds_first`]): present
    /// when the session enabled the mode *and* the measure kind admits sound
    /// cheap bounds.  Decides candidates from certified intervals where
    /// possible, enumerating occurrences and running the exact solver only
    /// inside the uncertain band.
    pub bounds: Option<Arc<BoundsEvaluator>>,
}

/// One evaluated (or cache-reused, or bound-decided) candidate.
#[derive(Debug, Clone)]
struct EvalOutcome {
    /// The value compared against the threshold.  Exact evaluations report the
    /// exact support; a bound-decided candidate reports the interval side that
    /// proves the decision (`lo` for frequent, `hi` for infrequent), so the
    /// engine's `support >= threshold` test agrees with the certified verdict
    /// by construction.
    support: f64,
    num_occurrences: usize,
    /// Sorted distinct image vertices — only populated when a cache is recorded
    /// (shared, so reuse across epochs never copies the list).
    touched: Arc<[VertexId]>,
    /// `false` when the enumeration hit its embedding budget.
    complete: bool,
    /// `true` when the value came out of the prior epoch's cache.
    reused: bool,
    /// The certified interval + certificate, in bounds-first mode only.
    interval: Option<ffsm_approx::SupportInterval>,
    certificate: Option<ffsm_approx::Certificate>,
    /// `true` when the bounds evaluator ran for this candidate.
    bounded: bool,
    /// `true` when a certified interval decided the candidate without an exact
    /// support computation.
    bound_decided: bool,
    /// Nanoseconds spent computing bounds (0 unless fine-grained metrics are on).
    bounds_nanos: u64,
}

impl Default for EvalOutcome {
    fn default() -> Self {
        EvalOutcome {
            support: 0.0,
            num_occurrences: 0,
            touched: Arc::from(Vec::new()),
            complete: false,
            reused: false,
            interval: None,
            certificate: None,
            bounded: false,
            bound_decided: false,
            bounds_nanos: 0,
        }
    }
}

/// Evaluate the support of every candidate, in order, on `threads` workers.
///
/// Candidates are split round-robin and merged back in candidate order, so the result
/// does not depend on the thread count.  `index` is the prepared graph's shared
/// matching index (`None` under the naive enumerator backend), consulted read-only by
/// every worker so no candidate evaluation rebuilds it.
///
/// Under [`CacheMode::Delta`] a candidate whose occurrences provably avoid the
/// dirty region (see the `delta` module docs for the argument) is answered from
/// the prior epoch's cache without enumerating anything; the decision is
/// per-candidate and deterministic, so the thread partition still never changes
/// the result.
///
/// `arenas` holds one reusable [`SearchArena`] per worker (at least
/// `config.threads` of them), owned by the engine state so the search buffers
/// survive across levels — thousands of pattern evaluations share
/// `config.threads` allocations instead of allocating each.
#[allow(clippy::too_many_arguments)]
fn evaluate_level(
    prepared: &PreparedGraph,
    index: Option<&GraphIndex>,
    candidates: &[(Pattern, CanonicalCode)],
    parent_hi: &[f64],
    label_counts: &[(ffsm_graph::Label, usize)],
    measure: &Arc<dyn SupportMeasure>,
    config: &EngineConfig,
    mode: &CacheMode,
    arenas: &mut [SearchArena],
) -> (Vec<EvalOutcome>, tls::ThreadTotals) {
    let graph = prepared.graph();
    let bounds = config.bounds.as_deref();
    let evaluate = |i: usize,
                    (pattern, code): &(Pattern, CanonicalCode),
                    arena: &mut SearchArena|
     -> EvalOutcome {
        if let CacheMode::Delta(ctx) = mode {
            if let Some(cached) = ctx.prior.get(code) {
                if cached.complete
                    && !sorted_intersects(&cached.touched, &ctx.dirty_old)
                    && !occurrences_touch(pattern, graph, &config.iso_config, &ctx.dirty_new)
                {
                    return EvalOutcome {
                        support: cached.support,
                        num_occurrences: cached.num_occurrences,
                        touched: cached.touched.clone(),
                        complete: true,
                        reused: true,
                        ..EvalOutcome::default()
                    };
                }
            }
        }
        // Bounds-first stage 1: a certified pre-enumeration cap (parent bound,
        // index cardinality) can decide the candidate before a single
        // occurrence is enumerated.
        let mut bounds_nanos = 0u64;
        let mut pre = None;
        if let Some(evaluator) = bounds {
            let clock = config.metrics.then(Instant::now);
            let outcome = evaluator.pre_bounds(
                pattern,
                label_counts,
                index,
                parent_hi.get(i).copied().unwrap_or(f64::INFINITY),
            );
            if let Some(clock) = clock {
                bounds_nanos += clock.elapsed().as_nanos() as u64;
            }
            if let Some(frequent) = outcome.decision {
                return EvalOutcome {
                    support: if frequent { outcome.interval.lo } else { outcome.interval.hi },
                    complete: true,
                    interval: Some(outcome.interval),
                    certificate: Some(outcome.certificate),
                    bounded: true,
                    bound_decided: true,
                    bounds_nanos,
                    ..EvalOutcome::default()
                };
            }
            pre = Some(outcome);
        }
        let occ = match index {
            Some(index) => OccurrenceSet::enumerate_with_arena(
                pattern,
                graph,
                index,
                config.iso_config.clone(),
                arena,
            ),
            None => OccurrenceSet::enumerate(pattern, graph, config.iso_config.clone()),
        };
        let touched: Arc<[VertexId]> = if mode.caching() {
            let mut t: Vec<VertexId> = (0..occ.num_images()).map(|i| occ.image_vertex(i)).collect();
            t.sort_unstable();
            Arc::from(t)
        } else {
            Arc::from(Vec::new())
        };
        // Bounds-first stage 2: containment chain, greedy packing and the LP
        // envelope can still short-circuit the expensive exact solve.  Every
        // bound is a function of the enumerated occurrence set, so the verdict
        // brackets exactly the value the exact path would compute on it.
        if let (Some(evaluator), Some(pre)) = (bounds, pre.as_ref()) {
            if evaluator.post_stage() {
                let clock = config.metrics.then(Instant::now);
                let post = evaluator.post_bounds(&occ, pre);
                if let Some(clock) = clock {
                    bounds_nanos += clock.elapsed().as_nanos() as u64;
                }
                if let Some(frequent) = post.decision {
                    return EvalOutcome {
                        support: if frequent { post.interval.lo } else { post.interval.hi },
                        num_occurrences: occ.num_occurrences(),
                        touched,
                        complete: occ.is_complete(),
                        reused: false,
                        interval: Some(post.interval),
                        certificate: Some(post.certificate),
                        bounded: true,
                        bound_decided: true,
                        bounds_nanos,
                    };
                }
            }
        }
        let support = measure.support(&occ);
        let (interval, certificate, bounded) = match bounds {
            Some(evaluator) => {
                let exact = evaluator.exact(support);
                (Some(exact.interval), Some(exact.certificate), true)
            }
            None => (None, None, false),
        };
        EvalOutcome {
            support,
            num_occurrences: occ.num_occurrences(),
            touched,
            complete: occ.is_complete(),
            reused: false,
            interval,
            certificate,
            bounded,
            bound_decided: false,
            bounds_nanos,
        }
    };
    let workers = config.threads.min(candidates.len());
    if workers <= 1 {
        let (arena, _) = arenas.split_first_mut().expect("at least one arena");
        let before = tls::snapshot();
        let results = candidates.iter().enumerate().map(|(i, c)| evaluate(i, c, arena)).collect();
        return (results, tls::snapshot().delta_since(&before));
    }
    let mut results = vec![EvalOutcome::default(); candidates.len()];
    // Per-thread observability totals (overlap probes/build time) are sampled
    // around each worker's slice and summed — each candidate's contribution is
    // deterministic, so the sum never depends on the partition.
    let mut measure_totals = tls::ThreadTotals::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, arena) in arenas[..workers].iter_mut().enumerate() {
            let evaluate = &evaluate;
            handles.push(scope.spawn(move || {
                let before = tls::snapshot();
                let slice = candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % workers == w)
                    .map(|(i, p)| (i, evaluate(i, p, arena)))
                    .collect::<Vec<(usize, EvalOutcome)>>();
                (slice, tls::snapshot().delta_since(&before))
            }));
        }
        for handle in handles {
            let (slice, delta) = handle.join().expect("mining worker panicked");
            measure_totals.add(&delta);
            for (i, r) in slice {
                results[i] = r;
            }
        }
    });
    (results, measure_totals)
}

/// Insert `found` into the running top-k list (sorted by descending support, ties by
/// fewer edges first) and return the updated rising threshold.  Shared with the
/// sharded engine so the two top-k modes stay semantically identical.
pub(crate) fn insert_top_k(
    best: &mut Vec<FrequentPattern>,
    found: FrequentPattern,
    k: usize,
    floor: f64,
) -> f64 {
    best.push(found);
    best.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pattern.num_edges().cmp(&b.pattern.num_edges()))
    });
    if best.len() > k {
        best.truncate(k);
    }
    if best.len() == k {
        best.last().map(|p| p.support).unwrap_or(floor).max(floor)
    } else {
        floor
    }
}

/// The resumable mining loop: owned state, one level per [`EngineState::step`].
pub(crate) struct EngineState {
    prepared: PreparedGraph,
    measure: Arc<dyn SupportMeasure>,
    config: EngineConfig,
    /// The prepared graph's shared index (`None` under the naive backend; `Auto`
    /// needs it both for the candidate-space runs it resolves to and for the
    /// per-pattern heuristic itself).
    index: Option<Arc<GraphIndex>>,
    /// One reusable search arena per worker thread, surviving across levels.
    arenas: Vec<SearchArena>,
    seen: HashSet<CanonicalCode>,
    frequent: Vec<FrequentPattern>,
    threshold: f64,
    floor: f64,
    level: Vec<(Pattern, CanonicalCode)>,
    /// Parallel to `level`: each candidate's inherited upper bound (the parent's
    /// certified `hi`, `+∞` for seeds).  Only meaningful in bounds-first mode;
    /// empty otherwise.
    level_parent_hi: Vec<f64>,
    /// Per-label vertex counts of the data graph, for the bounds evaluator's
    /// index-free cardinality cap (empty outside bounds-first mode).
    label_counts: Vec<(ffsm_graph::Label, usize)>,
    /// Candidates a bounds-first run left undecided at an interruption.
    undecided: Vec<UndecidedPattern>,
    stats: MiningStats,
    start: Instant,
    /// Set exactly once, when the run stops.
    completion: Option<Completion>,
    /// `true` when no consumer reads per-pattern/per-level events (the batch
    /// `run()` path): [`EngineState::step`] then skips materialising them, so a
    /// batch run pays no clone-per-pattern event tax.  The final `Finished` event
    /// is always pushed — the stream machinery keys off it.
    quiet: bool,
    /// Cache interaction: off for plain runs, recording for `run_recorded`,
    /// recording + reuse for `run_delta`.
    mode: CacheMode,
    /// The cache recorded by this run (empty under [`CacheMode::Off`]).
    cache_out: EvalCache,
    /// Engine-level phase accounting (index build, per-level support eval,
    /// extension, overlap build) — merged with the arenas' fine-grained spans
    /// into `stats.phase_timings` on every refresh.
    engine_phase: PhaseTimes,
}

impl EngineState {
    /// Seed the state machine.  Cheap: no support is evaluated until the first
    /// [`EngineState::step`] (the prepared graph's index is resolved here, which is
    /// a shared lazy build — amortised to zero across sessions).
    pub(crate) fn new(
        prepared: PreparedGraph,
        measure: Arc<dyn SupportMeasure>,
        config: EngineConfig,
        quiet: bool,
        mode: CacheMode,
    ) -> Self {
        let index_start = Instant::now();
        let index = match config.iso_config.backend {
            ffsm_core::EnumeratorBackend::CandidateSpace | ffsm_core::EnumeratorBackend::Auto => {
                Some(prepared.index())
            }
            ffsm_core::EnumeratorBackend::Naive => None,
        };
        let mut engine_phase = PhaseTimes::new();
        engine_phase.record(Phase::IndexBuild, index_start.elapsed());
        let mut arenas: Vec<SearchArena> =
            (0..config.threads.max(1)).map(|_| SearchArena::new()).collect();
        if config.metrics {
            for arena in &mut arenas {
                arena.set_timing(true);
            }
        }
        let mut stats = MiningStats { phase_timings: engine_phase, ..MiningStats::default() };
        let mut seen = HashSet::new();
        let seeds = seed_patterns(prepared.graph());
        stats.candidates_generated += seeds.len();
        let level = dedupe_with_codes(seeds, &mut seen);
        let level_parent_hi =
            if config.bounds.is_some() { vec![f64::INFINITY; level.len()] } else { Vec::new() };
        let label_counts =
            if config.bounds.is_some() { prepared.graph().label_histogram() } else { Vec::new() };
        let threshold = config.min_support;
        EngineState {
            prepared,
            measure,
            floor: threshold,
            threshold,
            config,
            index,
            arenas,
            seen,
            frequent: Vec::new(),
            level,
            level_parent_hi,
            label_counts,
            undecided: Vec::new(),
            stats,
            start: Instant::now(),
            completion: None,
            quiet,
            mode,
            cache_out: EvalCache::default(),
            engine_phase,
        }
    }

    /// Recompute the stats' observability block from the cumulative per-arena
    /// counters/spans and the engine-level phase accounting.  Cheap (a few adds
    /// per arena), called once per level and at finish.
    fn refresh_observability(&mut self) {
        let mut search = SearchCounters::default();
        let mut timings = self.engine_phase;
        let mut peak = 0u64;
        for arena in &self.arenas {
            search.merge(&arena.counters());
            timings.merge(&arena.phase_times());
            peak = peak.max(arena.footprint_bytes() as u64);
        }
        self.stats.counters.search = search;
        self.stats.counters.arena_peak_bytes = peak;
        self.stats.phase_timings = timings;
    }

    /// `Some(c)` once the run has stopped (the `Finished` event has been pushed).
    pub(crate) fn completion(&self) -> Option<Completion> {
        self.completion
    }

    /// Which interruption, if any, has fired.  Explicit cancellation wins over the
    /// deadline when both have.
    fn interrupted(&self) -> Option<Completion> {
        if self.config.cancel.cancel_requested() {
            return Some(Completion::Cancelled);
        }
        if self.config.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Completion::DeadlineExceeded);
        }
        None
    }

    /// Stop the run: stamp the stats and push the final `Finished` event.  A
    /// bounds-first run interrupted by deadline or cancellation first reports
    /// every still-pending candidate as [`MiningEvent::Undecided`], with a
    /// certified interval from pre-enumeration arguments only — never from a
    /// possibly truncated enumeration.
    fn finish(&mut self, completion: Completion, out: &mut VecDeque<MiningEvent>) {
        if matches!(completion, Completion::DeadlineExceeded | Completion::Cancelled) {
            if let Some(evaluator) = self.config.bounds.clone() {
                let index = self.index.clone();
                let parent_hi = std::mem::take(&mut self.level_parent_hi);
                for (i, (pattern, _)) in std::mem::take(&mut self.level).into_iter().enumerate() {
                    let inherited = parent_hi.get(i).copied().unwrap_or(f64::INFINITY);
                    let pre = evaluator.pre_bounds(
                        &pattern,
                        &self.label_counts,
                        index.as_deref(),
                        inherited,
                    );
                    let undecided = UndecidedPattern {
                        pattern,
                        interval: pre.interval,
                        certificate: pre.certificate,
                    };
                    if !self.quiet {
                        out.push_back(MiningEvent::Undecided(undecided.clone()));
                    }
                    self.undecided.push(undecided);
                }
            }
        }
        self.refresh_observability();
        self.stats.elapsed = self.start.elapsed();
        self.stats.completion = completion;
        self.completion = Some(completion);
        out.push_back(MiningEvent::Finished(RunSummary {
            completion,
            final_threshold: self.threshold,
            num_patterns: self.frequent.len(),
            num_undecided: self.undecided.len(),
            stats: self.stats.clone(),
        }));
    }

    /// Process one pattern-growth level, pushing every resulting event (quiet
    /// mode pushes only the final `Finished`).  Must not be called after the run
    /// has finished.
    pub(crate) fn step(&mut self, out: &mut VecDeque<MiningEvent>) {
        debug_assert!(self.completion.is_none(), "step() after Finished");
        if self.level.is_empty() {
            self.finish(Completion::Complete, out);
            return;
        }
        if let Some(interrupt) = self.interrupted() {
            self.finish(interrupt, out);
            return;
        }

        // Respect the evaluation cap by trimming the level.
        let mut budget_hit: Option<BudgetKind> = None;
        let remaining = self.config.max_evaluations.saturating_sub(self.stats.candidates_evaluated);
        if self.level.len() > remaining {
            self.level.truncate(remaining);
            self.level_parent_hi.truncate(remaining);
            budget_hit = Some(BudgetKind::Evaluations);
        }
        if self.level.is_empty() {
            self.finish(Completion::BudgetExhausted(BudgetKind::Evaluations), out);
            return;
        }

        let eval_start = Instant::now();
        let (outcomes, measure_totals) = evaluate_level(
            &self.prepared,
            self.index.as_deref(),
            &self.level,
            &self.level_parent_hi,
            &self.label_counts,
            &self.measure,
            &self.config,
            &self.mode,
            &mut self.arenas,
        );
        self.engine_phase.record(Phase::SupportEval, eval_start.elapsed());
        self.engine_phase.add_nanos(Phase::OverlapBuild, measure_totals.overlap_build_nanos);
        self.stats.counters.overlap_probes += measure_totals.overlap_probes;
        self.stats.counters.solver_nodes += measure_totals.solver_nodes;
        self.stats.counters.solves_inexact += measure_totals.solves_inexact;
        // An interruption during the evaluation may have truncated enumerations
        // arbitrarily; discard the whole level so the emitted patterns stay a
        // deterministic prefix of the full run (and never enter the cache).
        if let Some(interrupt) = self.interrupted() {
            self.finish(interrupt, out);
            return;
        }
        let evaluated = self.level.len();
        self.stats.candidates_evaluated += evaluated;

        // Fold the bounds-stage observability into the run stats (the span is
        // nested inside SupportEval, so it is additive, not exclusive).
        if self.config.bounds.is_some() {
            let mut bounds_nanos = 0u64;
            for outcome in &outcomes {
                self.stats.counters.evaluations_bounded += outcome.bounded as u64;
                self.stats.counters.bound_decided += outcome.bound_decided as u64;
                bounds_nanos += outcome.bounds_nanos;
            }
            self.engine_phase.add_nanos(Phase::BoundsEval, bounds_nanos);
        }

        // Apply the (possibly rising) threshold in candidate order.  Each
        // survivor carries its certified upper bound forward: by
        // anti-monotonicity it caps every child in the next level.
        let mut accepted = 0usize;
        let mut survivors: Vec<(Pattern, f64)> = Vec::new();
        self.level_parent_hi.clear();
        for ((pattern, code), outcome) in std::mem::take(&mut self.level).into_iter().zip(outcomes)
        {
            let EvalOutcome {
                support,
                num_occurrences,
                touched,
                complete,
                reused,
                interval,
                certificate,
                ..
            } = outcome;
            if reused {
                self.stats.evaluations_reused += 1;
            }
            if self.mode.caching() {
                self.cache_out
                    .insert(code, CachedEval { support, num_occurrences, touched, complete });
            }
            let child_hi = interval.map_or(support, |iv| iv.hi);
            match self.config.top_k {
                None => {
                    if support >= self.threshold {
                        if self.frequent.len() >= self.config.max_patterns {
                            budget_hit.get_or_insert(BudgetKind::Patterns);
                            continue;
                        }
                        let found = FrequentPattern {
                            pattern: pattern.clone(),
                            support,
                            num_occurrences,
                            support_interval: interval,
                            certificate,
                        };
                        if !self.quiet {
                            out.push_back(MiningEvent::Pattern(found.clone()));
                        }
                        self.stats.counters.patterns_emitted += 1;
                        self.frequent.push(found);
                        accepted += 1;
                        survivors.push((pattern, child_hi));
                    } else {
                        self.stats.candidates_pruned += 1;
                    }
                }
                Some(k) => {
                    if support >= self.threshold {
                        let found = FrequentPattern {
                            pattern: pattern.clone(),
                            support,
                            num_occurrences,
                            support_interval: interval,
                            certificate,
                        };
                        if !self.quiet {
                            out.push_back(MiningEvent::Pattern(found.clone()));
                        }
                        self.stats.counters.patterns_emitted += 1;
                        self.threshold = insert_top_k(&mut self.frequent, found, k, self.floor);
                        accepted += 1;
                        survivors.push((pattern, child_hi));
                    } else {
                        self.stats.candidates_pruned += 1;
                    }
                }
            }
        }
        self.stats.levels_completed += 1;
        self.refresh_observability();
        if !self.quiet {
            out.push_back(MiningEvent::LevelCompleted(LevelSummary {
                level: self.stats.levels_completed,
                evaluated,
                accepted,
                threshold: self.threshold,
                stats: self.stats.clone(),
            }));
        }
        if let Some(kind) = budget_hit {
            self.finish(Completion::BudgetExhausted(kind), out);
            return;
        }

        // Next level: one-edge extensions of every surviving pattern.  Pruned
        // candidates are never extended — sound because the measure is anti-monotone.
        let extension_start = Instant::now();
        let bounds_on = self.config.bounds.is_some();
        let mut next: Vec<(Pattern, CanonicalCode)> = Vec::new();
        let mut next_parent_hi: Vec<f64> = Vec::new();
        for (pattern, hi) in &survivors {
            if pattern.num_edges() >= self.config.max_pattern_edges {
                continue;
            }
            let candidates = extensions(pattern, self.prepared.alphabet());
            self.stats.candidates_generated += candidates.len();
            next.extend(dedupe_with_codes(candidates, &mut self.seen));
            if bounds_on {
                next_parent_hi.resize(next.len(), *hi);
            }
        }
        self.engine_phase.record(Phase::Extension, extension_start.elapsed());
        self.level = next;
        self.level_parent_hi = next_parent_hi;
    }

    /// Tear the state down into the batch result.  Only meaningful once the run
    /// has finished (callers drain the stream first).
    pub(crate) fn into_result(mut self) -> MiningResult {
        if self.completion.is_none() {
            // Defensive: a result must always carry a stamped completion.
            self.stats.elapsed = self.start.elapsed();
        }
        MiningResult {
            patterns: self.frequent,
            final_threshold: self.threshold,
            undecided: self.undecided,
            stats: self.stats,
        }
    }

    /// Like [`EngineState::into_result`], also handing back the [`EvalCache`]
    /// this run recorded (empty under [`CacheMode::Off`]).  An interrupted run's
    /// cache covers the completed levels only — feeding it forward is sound, the
    /// next delta run simply re-evaluates the uncovered patterns.
    pub(crate) fn into_result_and_cache(mut self) -> (MiningResult, EvalCache) {
        let cache = std::mem::take(&mut self.cache_out);
        (self.into_result(), cache)
    }
}
