//! `ffsm-perfbench`: the end-to-end and per-layer benchmark of ffsm.
//!
//! ```text
//! ffsm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates the workload's graph from the seed, writes it as a `.lg`
//! file, and drives the library from that file.  With `--trace 0` it measures
//! the end-to-end metrics for `--seconds`; with `--trace 1` it replays the
//! workload with a span around every call into a layer and reports the
//! per-layer metrics.  The last line of standard output is the result
//! object; the line before it is the run record (work counters, sample
//! counts and percentiles, provenance).  See `README.md` beside this crate.

mod host;
mod mining;
mod replay;
mod report;
mod serve;
mod spec;
mod trace;

use report::{string, Outcome};
use spec::{Driver, WORKLOADS};
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} expects a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload: value("--workload")?.to_string(), seed: number("--seed")?, seconds, trace })
}

/// A scratch directory under `.bench_build/` of the working directory,
/// removed when the run ends.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; expected one of {}", args.workload, names.join(", "))
    })?;
    let root = PathBuf::from(".bench_build");
    let dir = Workdir(root.join(format!("perfbench-{}-{}", spec.name, std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    let graph = spec.graph(args.seed);
    ffsm_graph::io::save_lg(&graph, &dir.0.join("graph.lg")).map_err(|e| e.to_string())?;

    let mut out = Outcome::new();
    let (workers, clients) = match spec.driver {
        Driver::Serve { workers, clients, .. } => (workers, clients),
        _ => (0, 1),
    };
    out.record.extend([
        ("workload", string(spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("vertices", graph.num_vertices().to_string()),
        ("edges", graph.num_edges().to_string()),
        ("session_threads", spec::SESSION_THREADS.to_string()),
        ("clients", clients.to_string()),
        ("workers", workers.to_string()),
    ]);
    out.record.extend(host::provenance());
    drop(graph);
    if args.trace {
        let spans = root.join(format!("perfbench-trace-{}-seed{}.jsonl", spec.name, args.seed));
        trace::traced_run(spec, &dir.0, &spans, &mut out)?;
    } else if let Driver::Serve { .. } = spec.driver {
        serve::timed_run(spec, &dir.0, args.seconds, &mut out)?;
    } else {
        mining::timed_run(spec, &dir.0, args.seconds, &mut out)?;
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "usage: ffsm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.record_line());
            println!("{}", out.result_line());
        }
        Err(e) => {
            eprintln!("ffsm-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
