//! Whole runs of the benchmark binary in `--quick` mode.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs `corion-e2e run --quick ...`, which must succeed, and returns the
/// last line of its standard output.
fn quick(tag: &str, args: &[&str]) -> String {
    let scratch = results_dir().join(format!("test-{tag}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_corion-e2e"))
        .args(["run", "--quick"])
        .args(args)
        .arg("--history")
        .arg(scratch.join("history.jsonl"))
        .env("CORION_BENCH_DIR", scratch.join("data"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let _ = std::fs::remove_dir_all(&scratch);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

/// `"name":{"value":V,` pairs of a result line, without a JSON crate.
fn metrics(line: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let body = line
        .split_once("\"metrics\":{")
        .expect("a metrics object")
        .1;
    for item in body.split("},") {
        let Some((name, rest)) = item.split_once("\":{\"value\":") else {
            continue;
        };
        let value = rest.split(',').next().unwrap_or_default();
        out.insert(name.trim_matches(['"', '{']).to_string(), value.to_string());
    }
    out
}

#[test]
fn two_traced_runs_with_one_seed_report_identical_counts() {
    for workload in ["ingest", "mixed", "traverse"] {
        let args = ["--workload", workload, "--seed", "5", "--trace", "1"];
        let a = quick(&format!("counts-a-{workload}"), &args);
        let b = quick(&format!("counts-b-{workload}"), &args);
        let (a, b) = (metrics(&a), metrics(&b));
        for name in [
            "bench.op_sequence_hash",
            "bench.c1_wal_bytes",
            "bench.c1_wal_records",
            "bench.c1_log_syncs",
            "bench.c1_page_reads",
            "bench.c1_page_writes",
            "protocol.req_bytes_per_op",
            "protocol.resp_bytes_per_op",
        ] {
            assert_eq!(
                a[name], b[name],
                "{workload}: {name} differs between two runs of seed 5"
            );
        }
        assert_ne!(a["bench.op_sequence_hash"], "0");
    }
}

#[test]
fn an_untraced_run_is_correct_and_reports_no_zero_metric() {
    for workload in ["ingest", "durable-update", "traverse", "mixed"] {
        let line = quick(
            &format!("e2e-{workload}"),
            &["--workload", workload, "--trace", "0"],
        );
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        let m = metrics(&line);
        assert_eq!(m.len(), 7, "{workload}: {m:?}");
        for (name, value) in &m {
            assert!(
                value.parse::<f64>().unwrap() > 0.0,
                "{workload}: {name} = {value}"
            );
        }
    }
}

#[test]
fn the_whole_set_ends_with_a_summary_that_claims_nothing() {
    let line = quick("set", &["--seed", "2", "--trace", "0"]);
    assert!(line.ends_with("\"claim\":null}"), "{line}");
    for workload in ["ingest", "durable-update", "traverse", "mixed"] {
        assert!(
            line.contains(&format!("\"{workload}\":{{")),
            "{workload} missing: {line}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_corion-e2e"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
