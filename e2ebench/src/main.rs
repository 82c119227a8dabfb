//! `corion-e2e`: the whole-stack benchmark. See `README.md` beside this
//! crate for the metric tables, the workloads and how to read a trace.
//!
//! ```text
//! corion-e2e run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--set NAME] [--history PATH]
//! corion-e2e compare <setA> <setB> [--history PATH]
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with one JSON result line. Without `--workload` the
//! program re-executes itself once per workload and mode, so each runs
//! in a fresh process, and ends with a summary of the whole set.

mod check;
mod compare;
mod depths;
mod devices;
mod exec;
mod json;
mod report;
mod run;
mod stack;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{parse, quote, Json};
use report::{append_history, RunResult};
use run::RunArgs;
use stack::Res;
use workload::Workload;

/// `run_seconds` of `BENCHMARK.json`; the default run length.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: sequences a fiftieth of a nominal 25-second run.
const QUICK_SECONDS: f64 = 0.5;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    set: String,
    history: PathBuf,
}

fn usage() -> String {
    "usage: corion-e2e run [--workload ingest|durable-update|traverse|mixed] [--seed N] \
     [--seconds S] [--trace 0|1] [--quick] [--set NAME] [--history PATH]\n       \
     corion-e2e compare <setA> <setB> [--history PATH]"
        .into()
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        set: "adhoc".into(),
        history: bench_dir().join("history.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.seconds = QUICK_SECONDS;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or(format!("--seconds must be in (0, 60], got {value:?}"))?;
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--set" => cli.set = value.clone(),
            "--history" => cli.history = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(cli)
}

fn git_rev() -> String {
    Command::new("git")
        .arg("-C")
        .arg(bench_dir())
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One workload, this process.
fn run_one(cli: &Cli, workload: Workload) -> Res<bool> {
    let results_dir = bench_dir().join("results");
    let data_root = std::env::var_os("CORION_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir.join("data"));
    let mut result: RunResult = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace.unwrap_or(false),
        data_root,
        results_dir,
    })?;
    result.context.insert(0, ("git_rev", git_rev()));

    println!(
        "# corion-e2e {} seed={} seconds={} trace={}",
        result.workload,
        result.seed,
        result.seconds,
        u8::from(result.trace)
    );
    for (k, v) in &result.context {
        println!("# {k}: {v}");
    }
    println!(
        "# closed loop; latencies are the sandbox's, not a device's: log and page syncs are \
         modelled (sync_latency_us), page I/O is served by the OS cache"
    );
    print!("{}", result.table());
    append_history(&cli.history, &result.history_line(&cli.set))?;
    println!("{}", result.result_line());
    Ok(result.correct)
}

/// Every workload, each mode, each in a fresh process.
fn run_all(cli: &Cli) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let modes: Vec<bool> = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        let mut merged = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for &trace in &modes {
            let out = Command::new(&exe)
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--set", &cli.set])
                .arg("--history")
                .arg(&cli.history)
                .stderr(Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            let doc = parse(last).map_err(|e| {
                format!(
                    "{} trace={}: no result line ({e})",
                    workload.name(),
                    u8::from(trace)
                )
            })?;
            all_correct &= out.status.success() && doc.get("correct") == Some(&Json::Bool(true));
            attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    merged.push(format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        quote(name),
                        json::number(value),
                        quote(unit)
                    ));
                }
            }
        }
        summary.push(format!(
            "{}:{{\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            quote(workload.name()),
            merged.join(",")
        ));
    }
    // This benchmark defines the baseline; it claims no gain.
    println!(
        "{{\"set\":{},\"seed\":{},\"seconds\":{},\"git_rev\":{},\"correct\":{all_correct},\
         \"workloads\":{{{}}},\"claim\":null}}",
        quote(&cli.set),
        cli.seed,
        json::number(cli.seconds),
        quote(&git_rev()),
        summary.join(",")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: Res<bool> = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest)
            .map_err(|e| format!("{e}\n{}", usage()).into())
            .and_then(|cli| match cli.workload {
                Some(w) => run_one(&cli, w),
                None => run_all(&cli),
            }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare_sets(a, b, &bench_dir().join("history.jsonl")),
            [a, b, flag, path] if flag == "--history" => compare_sets(a, b, Path::new(path)),
            _ => Err(usage().into()),
        },
        _ => Err(usage().into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("corion-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare_sets(a: &str, b: &str, history: &Path) -> Res<bool> {
    let (table, regressed) = compare::compare(history, a, b)?;
    print!("{table}");
    Ok(!regressed)
}
