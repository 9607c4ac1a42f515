//! The traced run: per-layer metrics from spans recorded around each call
//! into a layer's public functions, kept apart from the timed runs.

use crate::mining::{self, Loaded};
use crate::replay::{self, frequent_set, Tally, Tracer};
use crate::report::{number, object, Outcome, Samples};
use crate::serve;
use crate::spec::{self, Driver, Spec};
use ffsm_dynamic::DynamicGraph;
use ffsm_serve::events;
use ffsm_shard::PartitionedGraph;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time spent repeating the set-up; its spans give the set-up layers.
const SET_UPS: Duration = Duration::from_millis(500);

/// Untraced sessions and traced replays per run: the layer times are the
/// replays' mean, the overhead compares the medians.
const SESSIONS: usize = 5;

/// Requests per client of the framing probe.
const SERVE_PROBE_REQUESTS: usize = 16;

fn median(seconds: Vec<f64>) -> f64 {
    Samples::from(seconds).median()
}

/// Shard-layer numbers: partition and spill time, reloads during mining.
struct ShardLayer {
    partition_s: f64,
    spill_s: f64,
    loads: u64,
    load_s: f64,
    peak_resident_mb: f64,
}

/// On the sharded workload, one spilled session; elsewhere a partition of the
/// workload graph spilled the same way, with every shard fetched once.
fn shard_layer(
    spec: &Spec,
    loaded: &Loaded,
    setup: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<ShardLayer, String> {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    if let Some(parts) = &loaded.partitioned {
        let before = parts.store_stats();
        let (result, loads) = mining::mine_exact(spec, loaded)?;
        let after = parts.store_stats();
        out.check(
            frequent_set(&result.patterns)
                == frequent_set(
                    &spec.session(&loaded.prepared).run().map_err(|e| e.to_string())?.patterns,
                ),
            "sharded session differs from the whole-graph session",
        );
        return Ok(ShardLayer {
            partition_s: median(setup.durations("shard.partition")),
            spill_s: median(setup.durations("shard.spill")),
            loads,
            load_s: (after.load_nanos - before.load_nanos) as f64 * 1e-9,
            peak_resident_mb: mb(after.peak_resident_bytes),
        });
    }
    let t0 = Instant::now();
    let parts = PartitionedGraph::build(loaded.prepared.graph(), spec.partition_spec())
        .map_err(|e| e.to_string())?;
    let partition_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    parts
        .spill_to_disk(dir.join("probe-shards"), spec.max_resident())
        .map_err(|e| e.to_string())?;
    let spill_s = t0.elapsed().as_secs_f64();
    for i in 0..parts.num_shards() {
        parts.shard(i).map_err(|e| e.to_string())?;
    }
    let stats = parts.store_stats();
    Ok(ShardLayer {
        partition_s,
        spill_s,
        loads: stats.loads,
        load_s: stats.load_nanos as f64 * 1e-9,
        peak_resident_mb: mb(stats.peak_resident_bytes),
    })
}

/// The traced run of any workload.
pub fn traced_run(spec: &Spec, dir: &Path, spans: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut setup = Tracer::new(true);
    let mut setup_times = Samples::default();
    let loaded = match spec.driver {
        Driver::Serve { workers, .. } => {
            let (_, server) = serve::set_up(dir, workers, &mut setup)?;
            serve::repeat_set_up(dir, workers, SET_UPS, &mut setup_times, &mut setup)?;
            let snapshot =
                server.handle.registry().checkout(serve::GRAPH).map_err(|e| e.to_string())?;
            let prepared = snapshot.prepared().clone();
            server.stop();
            Loaded { prepared, partitioned: None }
        }
        _ => {
            let (_, loaded) = mining::set_up(spec, dir, &mut setup)?;
            mining::repeat_set_up(spec, dir, SET_UPS, &mut setup_times, &mut setup)?;
            loaded
        }
    };

    let mut untraced = Samples::default();
    let mut session = None;
    for _ in 0..SESSIONS {
        let t0 = Instant::now();
        let result = spec.session(&loaded.prepared).run().map_err(|e| e.to_string())?;
        untraced.push(t0.elapsed());
        session = Some(result);
    }
    let session = session.expect("at least one session");
    let reference = frequent_set(&session.patterns);

    let mut exact = Tracer::new(true);
    let mut replay = replay::level_loop(&loaded.prepared, spec, false, &mut exact);
    for _ in 1..SESSIONS {
        replay = replay::level_loop(&loaded.prepared, spec, false, &mut exact);
    }
    out.op(frequent_set(&replay.patterns) == reference, "traced replay differs from the session");
    out.check(
        replay.tally.evaluated as usize == session.stats.candidates_evaluated,
        "traced replay evaluated another number of candidates",
    );
    let mut bounded = Tracer::new(true);
    let certified = replay::level_loop(&loaded.prepared, spec, true, &mut bounded);
    out.op(
        frequent_set(&certified.patterns).keys().eq(reference.keys()),
        "bounds-first replay frequent set differs from the session",
    );
    let mut probe = Tracer::new(true);
    let probe_tally = replay::probe_off_path(&loaded.prepared, spec, &mut probe);
    let shard = shard_layer(spec, &loaded, &setup, dir, out)?;

    let mut store = DynamicGraph::from_prepared(loaded.prepared.clone());
    let mut apply = Samples::default();
    for edge in spec::toggled_edges(loaded.prepared.graph()).into_iter().cycle().take(64) {
        let t0 = Instant::now();
        let applied = store.apply(&spec::toggle_batch(edge)).is_ok();
        apply.push(t0.elapsed());
        store.retain_recent(1);
        out.op(applied, "toggle update rejected");
    }

    let t0 = Instant::now();
    for p in &session.patterns {
        std::hint::black_box(events::pattern_frame(p, None).finish());
    }
    let frame_encode_s = t0.elapsed().as_secs_f64();
    let traffic = serve::probe(spec, dir, SERVE_PROBE_REQUESTS)?;
    out.attempted += traffic.attempted;
    out.failed += traffic.failed;

    // A layer the workload's sessions call is read from the replays; any
    // other comes from the off-path probe.
    let mut on_path = exact.self_times();
    on_path.values_mut().for_each(|v| *v /= SESSIONS as f64);
    let bounds_path = bounded.self_times();
    let off_path = probe.self_times();
    let mut sources = Vec::new();
    let mut layer = |name: &'static str| -> f64 {
        let (value, source) = if let Some(v) = on_path.get(name) {
            (*v, "replay")
        } else if let Some(v) = bounds_path.get(name) {
            (*v, "bounds_replay")
        } else {
            (off_path.get(name).copied().unwrap_or(0.0), "probe")
        };
        sources.push((name, crate::report::string(source)));
        value
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let t: &Tally = &replay.tally;
    let solver: &Tally = if t.solves > 0 { t } else { &probe_tally };
    let untraced_s = untraced.median();
    let session_s = median(exact.durations("miner.session"));
    let layer_sum: f64 =
        on_path.iter().filter(|(name, _)| **name != "miner.session").map(|(_, v)| v).sum();

    out.metric("graph.parse_s", median(setup.durations("graph.parse")), "s");
    out.metric("match.index_build_s", median(setup.durations("match.index_build")), "s");
    out.metric("match.candidate_space_s", layer("match.candidate_space"), "s");
    out.metric("match.candidate_space_size", t.space_size as f64, "count");
    out.metric("match.search_s", layer("match.search"), "s");
    out.metric("match.search_steps", t.search_steps as f64, "count");
    out.metric("match.backjumps", t.backjumps as f64, "count");
    out.metric("match.embeddings", t.embeddings as f64, "count");
    out.metric("match.nonempty_ratio", ratio(t.nonempty, t.enumerated), "ratio");
    out.metric("core.materialise_s", layer("core.materialise"), "s");
    out.metric("core.images", t.images as f64, "count");
    out.metric("core.measure_s", layer("core.measure"), "s");
    out.metric("core.overlap_build_s", layer("core.overlap_build"), "s");
    out.metric("core.overlap_edges", solver.overlap_edges as f64, "count");
    out.metric("hypergraph.solve_s", layer("hypergraph.solve"), "s");
    out.metric("hypergraph.solves", solver.solves as f64, "count");
    out.metric("hypergraph.optimal_ratio", ratio(solver.optimal, solver.solves), "ratio");
    out.metric("approx.pre_bounds_s", layer("approx.pre_bounds"), "s");
    out.metric("approx.post_bounds_s", layer("approx.post_bounds"), "s");
    out.metric(
        "approx.decided_ratio",
        ratio(certified.tally.decided, certified.tally.bounded),
        "ratio",
    );
    out.metric("miner.extension_s", layer("miner.extension"), "s");
    out.metric("miner.candidates_generated", t.generated as f64, "count");
    out.metric("miner.candidates_evaluated", t.evaluated as f64, "count");
    out.metric("miner.frequent_ratio", ratio(t.frequent, t.evaluated), "ratio");
    out.metric("shard.partition_s", shard.partition_s, "s");
    out.metric("shard.spill_s", shard.spill_s, "s");
    out.metric("shard.loads", shard.loads as f64, "count");
    out.metric("shard.load_s", shard.load_s, "s");
    out.metric("shard.peak_resident_mb", shard.peak_resident_mb, "MB");
    out.metric("dynamic.apply_s", apply.median(), "s");
    out.metric("serve.frame_encode_s", frame_encode_s, "s");
    out.metric("serve.frames_per_mine", ratio(traffic.frames, traffic.mines), "count");
    out.metric("serve.bytes_per_mine", ratio(traffic.bytes, traffic.mines), "bytes");
    out.metric("serve.first_frame_ms", traffic.first_frame.median() * 1e3, "ms");
    out.metric("serve.rejected", traffic.rejected as f64, "count");
    out.metric("trace.layer_sum_ratio", layer_sum / untraced_s, "ratio");
    out.metric("trace.overhead_ratio", session_s / untraced_s - 1.0, "ratio");

    let self_times: Vec<(String, String)> =
        on_path.iter().map(|(k, v)| (k.to_string(), number(*v))).collect();
    out.record.push(("untraced_mine_s", number(untraced_s)));
    out.record.push(("replay_s", number(session_s)));
    out.record.push(("replay_self_s", object(&self_times)));
    out.record.push(("layer_source", object(&sources)));
    out.record.push(("spans", crate::report::string(&spans.display().to_string())));

    let _ = std::fs::remove_file(spans);
    for (tracer, name) in
        [(&setup, "setup"), (&exact, "replay"), (&bounded, "bounds_replay"), (&probe, "probe")]
    {
        tracer.write(spans, name).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}
