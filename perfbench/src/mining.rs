//! The in-process mining workloads: set-up, correctness references and the
//! timed closed loop of exact sessions, bounds-first sessions and updates.

use crate::host;
use crate::replay::{self, frequent_set, Tracer};
use crate::report::{object, Outcome, Samples};
use crate::spec::{self, Driver, Spec, SETUP_SLICE};
use ffsm_core::EnumeratorBackend;
use ffsm_dynamic::DynamicGraph;
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::io;
use ffsm_miner::{Completion, MiningResult, PreparedGraph, ShardedSession};
use ffsm_shard::PartitionedGraph;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one set-up produced.
pub struct Loaded {
    pub prepared: PreparedGraph,
    pub partitioned: Option<Arc<PartitionedGraph>>,
}

/// Load the workload's `.lg` file and build the `PreparedGraph` index, plus
/// partition and spill into `spill` for the sharded driver.
fn set_up_once(spec: &Spec, dir: &Path, spill: &Path, t: &mut Tracer) -> Result<Loaded, String> {
    let graph =
        t.time("graph.parse", || io::load_lg(&dir.join("graph.lg"))).map_err(|e| e.to_string())?;
    let prepared = t.time("match.index_build", || {
        let prepared = PreparedGraph::new(graph);
        prepared.index();
        prepared
    });
    let partitioned = match spec.driver {
        Driver::Sharded { .. } => {
            let parts = t
                .time("shard.partition", || {
                    PartitionedGraph::build(prepared.graph(), spec.partition_spec())
                })
                .map_err(|e| e.to_string())?;
            t.time("shard.spill", || parts.spill_to_disk(spill, spec.max_resident()))
                .map_err(|e| e.to_string())?;
            Some(Arc::new(parts))
        }
        _ => None,
    };
    Ok(Loaded { prepared, partitioned })
}

/// The run's own set-up, and how long it took.
pub fn set_up(spec: &Spec, dir: &Path, t: &mut Tracer) -> Result<(Duration, Loaded), String> {
    let start = Instant::now();
    let loaded = set_up_once(spec, dir, &dir.join("shards"), t)?;
    Ok((start.elapsed(), loaded))
}

/// Repeat the set-up, discarding the result, for at least `slice` and at
/// least once; each repeat's time goes to `times`.
pub fn repeat_set_up(
    spec: &Spec,
    dir: &Path,
    slice: Duration,
    times: &mut Samples,
    t: &mut Tracer,
) -> Result<(), String> {
    let until = Instant::now() + slice;
    loop {
        let start = Instant::now();
        drop(set_up_once(spec, dir, &dir.join("setup-shards"), t)?);
        times.push(start.elapsed());
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

/// One exact mining operation of the workload, with the shard loads it caused.
pub fn mine_exact(spec: &Spec, loaded: &Loaded) -> Result<(MiningResult, u64), String> {
    match &loaded.partitioned {
        Some(parts) => {
            let loads_before = parts.store_stats().loads;
            let (result, _) = ShardedSession::over(parts)
                .measure(spec.measure)
                .min_support(spec.tau)
                .max_edges(spec.max_edges)
                .threads(spec::SESSION_THREADS)
                .run_detailed()
                .map_err(|e| e.to_string())?;
            Ok((result, parts.store_stats().loads - loads_before))
        }
        None => Ok((spec.session(&loaded.prepared).run().map_err(|e| e.to_string())?, 0)),
    }
}

fn mine_bounds(spec: &Spec, prepared: &PreparedGraph) -> Result<MiningResult, String> {
    spec.session(prepared).bounds_first(true).run().map_err(|e| e.to_string())
}

/// Counters that must repeat exactly for one seed.  A timing spread between
/// runs whose counters agree comes from the host, not from changed work.
pub struct Work {
    pub evaluated: u64,
    pub patterns: u64,
    pub search_steps: u64,
    pub embeddings: u64,
    pub budget_cut_solves: u64,
    pub shard_loads: u64,
}

impl Work {
    pub fn json(&self) -> String {
        object(&[
            ("candidates_evaluated", self.evaluated.to_string()),
            ("patterns", self.patterns.to_string()),
            ("search_steps", self.search_steps.to_string()),
            ("embeddings", self.embeddings.to_string()),
            ("budget_cut_solves", self.budget_cut_solves.to_string()),
            ("shard_loads", self.shard_loads.to_string()),
        ])
    }
}

/// The run's reference answer and the checks made once per run.
pub struct Reference {
    pub set: BTreeMap<CanonicalCode, f64>,
    pub evaluated: usize,
    pub search_steps: u64,
    pub work: Work,
    pub exact_frac: f64,
}

/// Mine once untimed, cross-check the answer against the naive enumerator
/// and against the outside replay, and collect the work counters.
pub fn reference(spec: &Spec, loaded: &Loaded, out: &mut Outcome) -> Result<Reference, String> {
    let (result, shard_loads) = mine_exact(spec, loaded)?;
    out.check(
        result.completion() == Completion::Complete,
        &format!("reference session stopped early: {:?}", result.completion()),
    );
    let set = frequent_set(&result.patterns);
    let naive = spec
        .session(&loaded.prepared)
        .enumerator(EnumeratorBackend::Naive)
        .run()
        .map_err(|e| e.to_string())?;
    out.check(frequent_set(&naive.patterns) == set, "reference differs from the naive enumerator");
    let replay = replay::level_loop(&loaded.prepared, spec, false, &mut Tracer::new(false));
    out.check(frequent_set(&replay.patterns) == set, "outside replay differs from the session");
    let tally = replay.tally;
    Ok(Reference {
        evaluated: result.stats.candidates_evaluated,
        search_steps: result.stats.counters.search.steps,
        exact_frac: tally.exact as f64 / tally.evaluated.max(1) as f64,
        work: Work {
            evaluated: result.stats.candidates_evaluated as u64,
            patterns: result.patterns.len() as u64,
            search_steps: result.stats.counters.search.steps,
            embeddings: tally.embeddings,
            budget_cut_solves: tally.solves - tally.optimal,
            shard_loads,
        },
        set,
    })
}

/// The timed run of a library or sharded workload.
pub fn timed_run(spec: &Spec, dir: &Path, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    let (first, loaded) = set_up(spec, dir, &mut Tracer::new(false))?;
    let mut setup = Samples::default();
    setup.push(first);
    let reference = reference(spec, &loaded, out)?;
    let codes: Vec<&CanonicalCode> = reference.set.keys().collect();

    // The update stream runs on its own store of the same prepared graph; the
    // sessions keep mining epoch 0, which every epoch of the stream equals.
    let toggles = spec::toggled_edges(loaded.prepared.graph());
    let mut store = DynamicGraph::from_prepared(loaded.prepared.clone());
    let (vertices, edges) =
        (loaded.prepared.graph().num_vertices(), loaded.prepared.graph().num_edges());

    let (mut mine, mut bounds, mut updates) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut ops = 0u64;
    let mut setting_up = Duration::ZERO;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let exact = mine_exact(spec, &loaded);
        mine.push(t0.elapsed());
        let ok = match &exact {
            Ok((r, _)) => {
                frequent_set(&r.patterns) == reference.set
                    && r.stats.candidates_evaluated == reference.evaluated
                    && r.stats.counters.search.steps == reference.search_steps
            }
            Err(_) => false,
        };
        out.op(ok, "exact session answer or work differs from the reference");

        let t0 = Instant::now();
        let certified = mine_bounds(spec, &loaded.prepared);
        bounds.push(t0.elapsed());
        let ok = certified.is_ok_and(|r| {
            r.completion() == Completion::Complete
                && frequent_set(&r.patterns).keys().eq(codes.iter().copied())
        });
        out.op(ok, "bounds-first session frequent set differs from the reference");

        let edge = toggles[ops as usize % toggles.len()];
        let t0 = Instant::now();
        let applied = store.apply(&spec::toggle_batch(edge)).is_ok();
        updates.push(t0.elapsed());
        store.retain_recent(1);
        out.op(applied, "toggle update rejected");
        ops += 1;

        let t0 = Instant::now();
        repeat_set_up(spec, dir, SETUP_SLICE, &mut setup, &mut Tracer::new(false))?;
        setting_up += t0.elapsed();
    }
    let busy = start.elapsed() - setting_up;
    let graph = store.current().prepared().graph();
    out.check(
        graph.num_vertices() == vertices && graph.num_edges() == edges,
        "update stream changed the graph's size",
    );

    out.metric("exact_frac", reference.exact_frac, "ratio");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    // The caller of an in-process session is its client.
    out.timings(&setup, &mine, &bounds, &mine, &updates, out.attempted as f64 / busy.as_secs_f64());
    out.record.push(("work", reference.work.json()));
    Ok(())
}
