//! The work counters of the run record repeat exactly for a seed, so a timing
//! spread between runs with equal counters comes from the host.

use std::process::Command;

/// One short timed run; returns the run record's `work` object.
fn work(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ffsm-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines.last().expect("a result line");
    assert!(result.contains("\"correct\": true") && result.contains("\"failed\": 0"), "{result}");
    let record = lines[lines.len() - 2];
    let at = record.find("\"work\": {").expect("record carries work counters");
    let end = record[at..].find('}').expect("closed work object");
    record[at..=at + end].to_string()
}

/// The value of counter `name` in a `work` object.
fn counter(work: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = work.find(&key).expect("counter present") + key.len();
    work[at..].split([',', '}']).next().expect("value").parse().expect("a whole number")
}

#[test]
fn work_counters_repeat_for_a_seed_and_move_with_another() {
    for workload in ["mine_molecule_mis", "mine_sharded_spill"] {
        let first = work(workload, 7);
        assert_eq!(first, work(workload, 7), "{workload}: same seed, different work");
        let other = work(workload, 8);
        assert_ne!(first, other, "{workload}: another seed gave the very same input");
        // Seeds pick isomorphic copies of one graph: the search order moves,
        // the amount of mining work does not.
        for name in
            ["candidates_evaluated", "patterns", "embeddings", "budget_cut_solves", "shard_loads"]
        {
            assert_eq!(counter(&first, name), counter(&other, name), "{workload}: {name}");
        }
    }
}
