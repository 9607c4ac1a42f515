//! The serving workload: an in-process `ffsm_serve::Server` on loopback, fed
//! by closed-loop clients that each wait for a request's `done` frame before
//! sending the next one.

use crate::host;
use crate::mining::{self, Loaded};
use crate::replay::Tracer;
use crate::report::{object, Outcome, Samples};
use crate::spec::{self, Driver, Spec};
use ffsm_graph::{io, VertexId};
use ffsm_miner::MiningEvent;
use ffsm_serve::{events, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// The name the workload graph is registered under.
pub const GRAPH: &str = "g";

/// Set-up repeats before the traffic starts; `setup_s` is their p90.
const SET_UPS: Duration = Duration::from_millis(500);

/// The pattern frames a served mine must stream, exact and bounds-first.
pub struct Expected {
    pub exact: Vec<String>,
    pub bounds: Vec<String>,
}

/// When a client stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(usize),
}

/// What the clients saw.
#[derive(Default)]
pub struct Traffic {
    pub mine: Samples,
    pub bounds: Samples,
    pub first_frame: Samples,
    pub update: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub mines: u64,
    pub frames: u64,
    pub bytes: u64,
    /// From the first request sent to the last `done` received.
    pub elapsed: Duration,
}

impl Traffic {
    fn merge(&mut self, other: Traffic) {
        for (into, from) in [
            (&mut self.mine, other.mine),
            (&mut self.bounds, other.bounds),
            (&mut self.first_frame, other.first_frame),
            (&mut self.update, other.update),
        ] {
            into.extend(from);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.mines += other.mines;
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

fn mine_request(spec: &Spec, bounds: bool) -> String {
    format!(
        "{{\"op\": \"mine\", \"graph\": \"{GRAPH}\", \"measure\": \"{}\", \"tau\": {}, \
         \"max_edges\": {}, \"bounds\": {bounds}}}\n",
        spec.measure, spec.tau, spec.max_edges
    )
}

/// One client's closed loop.  Of every `requests_per_update` requests one
/// toggles one of the client's own edges, one is a bounds-first mine and the
/// rest are exact mines.  Every mine's pattern frames must equal `expected`,
/// because the toggles never change the graph.
fn client(
    addr: SocketAddr,
    spec: &Spec,
    requests_per_update: usize,
    edges: &[(VertexId, VertexId)],
    expected: &Expected,
    started: Instant,
    stop: Stop,
) -> Result<Traffic, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let (mine, bounds_mine) = (mine_request(spec, false), mine_request(spec, true));
    let mut traffic = Traffic::default();
    let mut line = String::new();
    let mut patterns = Vec::new();
    for i in 1.. {
        let stopped = match stop {
            Stop::At(at) => Instant::now() >= at,
            Stop::After(n) => i > n,
        };
        if stopped {
            break;
        }
        let is_update = i % requests_per_update == 0;
        let is_bounds = i % requests_per_update == requests_per_update / 2;
        let request = if is_update {
            let (u, v) = edges[(i / requests_per_update) % edges.len()];
            format!(
                "{{\"op\": \"update\", \"graph\": \"{GRAPH}\", \"updates\": \"re {u} {v}\\nae {u} {v}\"}}\n"
            )
        } else if is_bounds {
            bounds_mine.clone()
        } else {
            mine.clone()
        };
        let t0 = Instant::now();
        writer.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let (mut first, mut frames, mut bytes) = (None, 0u64, 0u64);
        patterns.clear();
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
                return Err("server hung up mid-request".into());
            }
            first.get_or_insert_with(|| t0.elapsed());
            frames += 1;
            bytes += line.len() as u64;
            if line.starts_with("{\"event\": \"done\"") {
                break;
            }
            if line.starts_with("{\"event\": \"pattern\"") {
                patterns.push(line.trim_end().to_string());
            }
        }
        let latency = t0.elapsed();
        traffic.attempted += 1;
        if line.contains("\"status\": \"error\"") {
            traffic.failed += 1;
            traffic.rejected += u64::from(line.contains("\"code\": \"overloaded\""));
            eprintln!("operation failed: {}", line.trim_end());
            continue;
        }
        if is_update {
            traffic.update.push(latency);
            continue;
        }
        let want = if is_bounds { &expected.bounds } else { &expected.exact };
        if !(line.contains("\"status\": \"complete\"") && patterns == *want) {
            traffic.failed += 1;
            eprintln!("operation failed: served mine differs from the reference");
        }
        if is_bounds {
            traffic.bounds.push(latency);
        } else {
            traffic.mine.push(latency);
            traffic.first_frame.push(first.expect("at least the done frame"));
            traffic.mines += 1;
            traffic.frames += frames;
            traffic.bytes += bytes;
        }
    }
    traffic.elapsed = started.elapsed();
    Ok(traffic)
}

/// Run `clients` closed-loop clients until `stop`; client `c` toggles edges
/// `c, c + clients, ...` of `toggles`, so no two clients touch one edge.
pub fn traffic(
    addr: SocketAddr,
    spec: &Spec,
    clients: usize,
    requests_per_update: usize,
    toggles: &[(VertexId, VertexId)],
    expected: &Expected,
    stop: Stop,
) -> Result<Traffic, String> {
    let started = Instant::now();
    let results: Vec<Result<Traffic, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let edges: Vec<_> = toggles.iter().skip(c).step_by(clients).copied().collect();
                scope.spawn(move || {
                    client(addr, spec, requests_per_update, &edges, expected, started, stop)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Traffic::default();
    for result in results {
        total.merge(result?);
    }
    Ok(total)
}

/// A bound server with the workload graph registered and its index built.
pub struct Running {
    pub addr: SocketAddr,
    pub handle: ServerHandle,
    thread: std::thread::JoinHandle<()>,
}

impl Running {
    /// Drain the server and wait for its thread.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked");
    }
}

fn bind(path: &Path, workers: usize, t: &mut Tracer) -> Result<Server, String> {
    let graph = t.time("graph.parse", || io::load_lg(path)).map_err(|e| e.to_string())?;
    let config = ServerConfig { workers, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    server.registry().register(GRAPH, graph).map_err(|e| e.to_string())?;
    let snapshot = server.registry().checkout(GRAPH).map_err(|e| e.to_string())?;
    t.time("match.index_build", || snapshot.prepared().index());
    Ok(server)
}

/// The run's own set-up: load, bind, register and index; serve from it.
pub fn set_up(dir: &Path, workers: usize, t: &mut Tracer) -> Result<(Duration, Running), String> {
    let started = Instant::now();
    let server = bind(&dir.join("graph.lg"), workers, t)?;
    let took = started.elapsed();
    Ok((took, start(server)?))
}

/// Repeat the set-up, dropping each server unused, for at least `slice` and
/// at least once; each repeat's time goes to `times`.
pub fn repeat_set_up(
    dir: &Path,
    workers: usize,
    slice: Duration,
    times: &mut Samples,
    t: &mut Tracer,
) -> Result<(), String> {
    let until = Instant::now() + slice;
    loop {
        let started = Instant::now();
        drop(bind(&dir.join("graph.lg"), workers, t)?);
        times.push(started.elapsed());
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

/// Serve from `server` on a thread of its own.
fn start(server: Server) -> Result<Running, String> {
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    Ok(Running { addr, handle, thread })
}

/// The frames a direct library session over the server's current epoch
/// streams, with the wall-clock `elapsed_ms` masked.
fn direct_frames(spec: &Spec, handle: &ServerHandle) -> Result<(usize, Vec<String>), String> {
    let snapshot = handle.registry().checkout(GRAPH).map_err(|e| e.to_string())?;
    let frames = spec
        .session(snapshot.prepared())
        .stream()
        .map_err(|e| e.to_string())?
        .map(|event| match event {
            Ok(MiningEvent::Pattern(p)) => Ok(events::pattern_frame(&p, None).finish()),
            Ok(MiningEvent::Undecided(u)) => Ok(events::undecided_frame(&u).finish()),
            Ok(MiningEvent::LevelCompleted(l)) => Ok(events::level_frame(&l).finish()),
            Ok(MiningEvent::Finished(s)) => Ok(events::finished_frame(&s).finish()),
            Err(e) => Err(e.to_string()),
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok((snapshot.epoch(), frames.iter().map(|f| mask_elapsed(f)).collect()))
}

fn mask_elapsed(frame: &str) -> String {
    match frame.find("\"elapsed_ms\": ") {
        Some(at) => format!("{}\"elapsed_ms\": _}}", &frame[..at]),
        None => frame.to_string(),
    }
}

/// One mine over the wire, every frame but `done` masked, plus `done`.
fn served_frames(addr: SocketAddr, spec: &Spec) -> Result<(Vec<String>, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.write_all(mine_request(spec, false).as_bytes()).map_err(|e| e.to_string())?;
    stream.shutdown(std::net::Shutdown::Write).map_err(|e| e.to_string())?;
    let mut frames: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.map(|f| mask_elapsed(&f)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let done = frames.pop().ok_or("no frames")?;
    Ok((frames, done))
}

/// The pattern frames of direct exact and bounds-first sessions on `loaded`.
pub fn expected_frames(spec: &Spec, loaded: &Loaded) -> Result<Expected, String> {
    let frames = |bounds: bool| -> Result<Vec<String>, String> {
        let result =
            spec.session(&loaded.prepared).bounds_first(bounds).run().map_err(|e| e.to_string())?;
        Ok(result.patterns.iter().map(|p| events::pattern_frame(p, None).finish()).collect())
    };
    Ok(Expected { exact: frames(false)?, bounds: frames(true)? })
}

/// The timed run of the serving workload.
pub fn timed_run(spec: &Spec, dir: &Path, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    let Driver::Serve { workers, clients, requests_per_update } = spec.driver else {
        unreachable!("serve::timed_run on a library workload")
    };
    let mut setup = Samples::default();
    repeat_set_up(dir, workers, SET_UPS, &mut setup, &mut Tracer::new(false))?;
    let (first, server) = set_up(dir, workers, &mut Tracer::new(false))?;
    setup.push(first);
    let snapshot = server.handle.registry().checkout(GRAPH).map_err(|e| e.to_string())?;
    let loaded = Loaded { prepared: snapshot.prepared().clone(), partitioned: None };
    let (vertices, edges) =
        (loaded.prepared.graph().num_vertices(), loaded.prepared.graph().num_edges());
    let reference = mining::reference(spec, &loaded, out)?;
    let expected = expected_frames(spec, &loaded)?;
    let toggles = spec::toggled_edges(loaded.prepared.graph());
    drop((snapshot, loaded));

    let stop = Stop::At(Instant::now() + Duration::from_secs(seconds));
    let traffic =
        traffic(server.addr, spec, clients, requests_per_update, &toggles, &expected, stop)?;

    // Fidelity: after the update stream, one served mine is frame for frame
    // a direct library session over the same epoch.
    let (served, done) = served_frames(server.addr, spec)?;
    let (epoch, direct_frames) = direct_frames(spec, &server.handle)?;
    out.check(done.contains(&format!("\"epoch\": {epoch}")), "fidelity mine ran on another epoch");
    out.check(served == direct_frames, "served frames differ from a direct library session");
    let current = server.handle.registry().checkout(GRAPH).map_err(|e| e.to_string())?;
    let graph = current.prepared().graph();
    out.check(
        graph.num_vertices() == vertices && graph.num_edges() == edges,
        "update stream changed the graph's size",
    );
    drop(current);
    server.stop();

    out.attempted += traffic.attempted;
    out.failed += traffic.failed;
    out.metric("exact_frac", reference.exact_frac, "ratio");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    let qps = (traffic.attempted - traffic.failed) as f64 / traffic.elapsed.as_secs_f64();
    out.timings(&setup, &traffic.mine, &traffic.bounds, &traffic.mine, &traffic.update, qps);
    out.record.push(("work", reference.work.json()));
    out.record.push(("first_frame_ms", traffic.first_frame.summary(1e3)));
    out.record.push((
        "traffic",
        object(&[
            ("rejected", traffic.rejected.to_string()),
            ("frames_per_mine", (traffic.frames as f64 / traffic.mines.max(1) as f64).to_string()),
        ]),
    ));
    Ok(())
}

/// A short closed loop against a server holding the workload's graph, for
/// the traced run's framing metrics.
pub fn probe(spec: &Spec, dir: &Path, requests: usize) -> Result<Traffic, String> {
    let (workers, clients, requests_per_update) = match spec.driver {
        Driver::Serve { workers, clients, requests_per_update } => {
            (workers, clients, requests_per_update)
        }
        _ => (1, 1, 8),
    };
    let server = start(bind(&dir.join("graph.lg"), workers, &mut Tracer::new(false))?)?;
    let snapshot = server.handle.registry().checkout(GRAPH).map_err(|e| e.to_string())?;
    let loaded = Loaded { prepared: snapshot.prepared().clone(), partitioned: None };
    let expected = expected_frames(spec, &loaded)?;
    let toggles = spec::toggled_edges(loaded.prepared.graph());
    drop((snapshot, loaded));
    let result = traffic(
        server.addr,
        spec,
        clients,
        requests_per_update,
        &toggles,
        &expected,
        Stop::After(requests),
    );
    server.stop();
    result
}
