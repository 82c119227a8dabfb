//! Write-path throughput: what the commit pipeline work of this PR buys.
//!
//! Two experiments, both against the same Part/Asm/Root schema:
//!
//!   1. **Hierarchy ingest** — build a composite hierarchy of ~`N`
//!      objects (one root, `N/10` sub-assemblies, nine parts each) three
//!      ways: per-op autocommit (one WAL flush per `make`), a public
//!      transaction (one flush for everything), and `make_many` (one
//!      call, one flush). Every mode replays the *same* spec list, so the
//!      logical work is identical and only the commit pipeline differs.
//!      Reports median ns/op, ops/s and WAL bytes/op per mode.
//!   2. **Update-heavy mix** — replay a deterministic
//!      [`corion::workload::txmix`] write mix with delta-page logging off
//!      vs on and compare WAL bytes/op.
//!
//! Results land in `BENCH_txn.json` and `BENCH_wal.json` (working
//! directory, or `$CORION_BENCH_OUT`), each stamped with the core count
//! and git revision it ran on. The process exits nonzero if the asserted
//! floors regress: transactions (or `make_many`) must be ≥ 2× autocommit
//! ops/s on the ingest, and delta logging must cut WAL bytes/op by ≥ 2×
//! on the update mix. The ingest floor protects *batching* — one flush
//! for many operations must stay clearly cheaper than one flush each. It
//! is a ratio whose denominator is the autocommit path, so both absolute
//! rates are recorded: a slower batched path must not hide behind a
//! slower autocommit, nor a faster autocommit read as a regression
//! (docs/PERFORMANCE.md has the history of the number).
//!
//! Knobs (for CI smoke runs): `CORION_BENCH_OBJECTS` (default 1000),
//! `CORION_BENCH_RUNS` (default 3), `CORION_BENCH_UPDATE_OPS`
//! (default 600).
//!
//! This is a plain binary, not a criterion harness: it measures whole
//! pipelines with `std::time::Instant` and persists machine-readable
//! baselines for later PRs to compare against.

use std::process::{Command, Stdio};
use std::time::Instant;

use corion::storage::StoreConfig;
use corion::workload::txmix::{generate_writes, WriteMixParams, WriteOp};
use corion::{
    ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbResult, Domain, MakeSpec, Oid,
    ParentRef, Value,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn db_with(delta_pages: bool) -> Database {
    Database::with_config(DbConfig {
        store: StoreConfig {
            delta_pages,
            // Auto-checkpointing truncates the log mid-run, which would
            // corrupt the bytes-appended accounting below.
            wal_checkpoint_bytes: usize::MAX,
            ..StoreConfig::default()
        },
        ..DbConfig::default()
    })
}

/// Part / Asm (9 parts each) / Root (all assemblies) in one segment.
fn schema(db: &mut Database) -> (ClassId, ClassId, ClassId) {
    let part = db
        .define_class(ClassBuilder::new("Part").attr("payload", Domain::String))
        .unwrap();
    let asm = db
        .define_class(
            ClassBuilder::new("Asm")
                .same_segment_as(part)
                .attr_composite(
                    "parts",
                    Domain::SetOf(Box::new(Domain::Class(part))),
                    CompositeSpec {
                        exclusive: false,
                        dependent: true,
                    },
                ),
        )
        .unwrap();
    let root = db
        .define_class(
            ClassBuilder::new("Root")
                .same_segment_as(part)
                .attr_composite(
                    "subs",
                    Domain::SetOf(Box::new(Domain::Class(asm))),
                    CompositeSpec {
                        exclusive: false,
                        dependent: true,
                    },
                ),
        )
        .unwrap();
    (part, asm, root)
}

/// The hierarchy as a spec list: one root, then groups of one
/// sub-assembly plus nine clustered parts. All ingest modes replay this
/// same list.
fn ingest_specs(part: ClassId, asm: ClassId, root: ClassId, objects: usize) -> Vec<MakeSpec> {
    let mut specs = vec![MakeSpec::new(root)];
    let groups = objects.saturating_sub(1) / 10;
    for g in 0..groups {
        let sub = specs.len();
        specs.push(MakeSpec::new(asm).parent(ParentRef::Created(0), "subs"));
        for i in 0..9 {
            specs.push(
                MakeSpec::new(part)
                    .value(
                        "payload",
                        Value::Str(format!(
                            "part-{g}-{i}-{}",
                            "x".repeat(env_usize("CORION_BENCH_PAYLOAD", 600))
                        )),
                    )
                    .parent(ParentRef::Created(sub), "parts"),
            );
        }
    }
    specs
}

/// Replays the spec list through individual `make` calls (the per-op
/// path `make_many` amortises).
fn replay(db: &mut Database, specs: &[MakeSpec]) -> DbResult<()> {
    let mut created: Vec<Oid> = Vec::with_capacity(specs.len());
    for spec in specs {
        let parents: Vec<(Oid, &str)> = spec
            .parents
            .iter()
            .map(|(p, attr)| {
                let oid = match p {
                    ParentRef::Existing(o) => *o,
                    ParentRef::Created(j) => created[*j],
                };
                (oid, attr.as_str())
            })
            .collect();
        let values: Vec<(&str, Value)> = spec
            .values
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        created.push(db.make(spec.class, values, parents)?);
    }
    Ok(())
}

/// One timed run of an ingest mode. Returns (elapsed ns, WAL bytes, ops).
fn run_ingest(objects: usize, mode: &str) -> (u128, usize, usize) {
    let mut db = db_with(true);
    let (part, asm, root) = schema(&mut db);
    let specs = ingest_specs(part, asm, root, objects);
    let wal_before = db.wal_stats();
    let start = Instant::now();
    match mode {
        "autocommit" => replay(&mut db, &specs).unwrap(),
        "transaction" => db.transaction(|db| replay(db, &specs)).unwrap(),
        "make_many" => {
            db.make_many(&specs).unwrap();
        }
        other => panic!("unknown mode {other}"),
    }
    let elapsed = start.elapsed().as_nanos();
    let wal_after = db.wal_stats();
    assert_eq!(db.object_count(), specs.len());
    let bytes = (wal_after.durable_bytes + wal_after.pending_bytes)
        .saturating_sub(wal_before.durable_bytes + wal_before.pending_bytes);
    (elapsed, bytes, specs.len())
}

/// One timed run of the update mix. Returns (elapsed ns, WAL bytes, ops).
fn run_update_mix(ops: usize, delta_pages: bool) -> (u128, usize, usize) {
    let mut db = db_with(delta_pages);
    let (part, _, _) = schema(&mut db);
    let targets: Vec<_> = (0..100)
        .map(|i| {
            db.make(
                part,
                vec![("payload", Value::Str(format!("seed-{i}")))],
                vec![],
            )
            .unwrap()
        })
        .collect();
    let mix = generate_writes(WriteMixParams {
        ops,
        objects: targets.len(),
        update_fraction: 0.85,
        payload: 64,
        seed: 7,
    });
    let wal_before = db.wal_stats();
    let start = Instant::now();
    for op in &mix {
        match *op {
            WriteOp::Create { payload } => {
                db.make(
                    part,
                    vec![("payload", Value::Str("c".repeat(payload)))],
                    vec![],
                )
                .unwrap();
            }
            WriteOp::Update { index, payload } => {
                db.set_attr(targets[index], "payload", Value::Str("u".repeat(payload)))
                    .unwrap();
            }
        }
    }
    let elapsed = start.elapsed().as_nanos();
    let wal_after = db.wal_stats();
    let bytes = (wal_after.durable_bytes + wal_after.pending_bytes)
        .saturating_sub(wal_before.durable_bytes + wal_before.pending_bytes);
    (elapsed, bytes, mix.len())
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

struct ModeResult {
    name: &'static str,
    median_ns_per_op: u128,
    ops_per_sec: f64,
    wal_bytes_per_op: f64,
}

fn measure_mode(name: &'static str, objects: usize, runs: usize) -> ModeResult {
    let mut times = Vec::with_capacity(runs);
    let (mut bytes, mut ops) = (0usize, 1usize);
    for _ in 0..runs {
        let (ns, b, n) = run_ingest(objects, name);
        times.push(ns / n as u128);
        bytes = b;
        ops = n;
    }
    let median_ns_per_op = median(times);
    ModeResult {
        name,
        median_ns_per_op,
        ops_per_sec: 1e9 / median_ns_per_op as f64,
        wal_bytes_per_op: bytes as f64 / ops as f64,
    }
}

/// `"cores": N, "git_rev": "…"` — where and on what a result file was
/// measured (the same two fields `e2ebench/history.jsonl` carries; the
/// revision gains `-dirty` when the tree has uncommitted changes).
fn json_machine() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!("\"cores\": {cores},\n  \"git_rev\": \"{rev}\"")
}

fn json_mode(m: &ModeResult) -> String {
    format!(
        "    \"{}\": {{ \"median_ns_per_op\": {}, \"ops_per_sec\": {:.1}, \
         \"wal_bytes_per_op\": {:.1} }}",
        m.name, m.median_ns_per_op, m.ops_per_sec, m.wal_bytes_per_op
    )
}

fn main() {
    let objects = env_usize("CORION_BENCH_OBJECTS", 1000);
    let runs = env_usize("CORION_BENCH_RUNS", 3).max(1);
    let update_ops = env_usize("CORION_BENCH_UPDATE_OPS", 600);
    let out_dir = std::env::var("CORION_BENCH_OUT").unwrap_or_else(|_| ".".into());

    // ---- Experiment 1: hierarchy ingest ------------------------------
    let modes: Vec<ModeResult> = ["autocommit", "transaction", "make_many"]
        .into_iter()
        .map(|m| measure_mode(m, objects, runs))
        .collect();
    for m in &modes {
        println!(
            "[ingest] {:<12} {:>8} ns/op  {:>12.0} ops/s  {:>8.1} WAL bytes/op",
            m.name, m.median_ns_per_op, m.ops_per_sec, m.wal_bytes_per_op
        );
    }
    let auto = &modes[0];
    let txn_speedup = modes[1].ops_per_sec / auto.ops_per_sec;
    let many_speedup = modes[2].ops_per_sec / auto.ops_per_sec;
    println!(
        "[ingest] speedup vs autocommit: transaction {txn_speedup:.1}x, \
         make_many {many_speedup:.1}x"
    );

    let machine = json_machine();
    let txn_json = format!(
        "{{\n  \"experiment\": \"hierarchy_ingest\",\n  {machine},\n  \"objects\": {objects},\n  \
         \"runs\": {runs},\n  \"modes\": {{\n{}\n  }},\n  \
         \"speedup_transaction_vs_autocommit\": {txn_speedup:.2},\n  \
         \"speedup_make_many_vs_autocommit\": {many_speedup:.2},\n  \
         \"floor_batched_vs_autocommit\": 2.0\n}}\n",
        modes.iter().map(json_mode).collect::<Vec<_>>().join(",\n")
    );
    std::fs::write(format!("{out_dir}/BENCH_txn.json"), &txn_json).unwrap();

    // ---- Experiment 2: delta logging on an update-heavy mix ----------
    let mut full_times = Vec::new();
    let mut delta_times = Vec::new();
    let (mut full_bytes, mut delta_bytes, mut mix_ops) = (0usize, 0usize, 0usize);
    for _ in 0..runs {
        let (ns, b, n) = run_update_mix(update_ops, false);
        full_times.push(ns / n as u128);
        full_bytes = b;
        mix_ops = n;
        let (ns, b, _) = run_update_mix(update_ops, true);
        delta_times.push(ns / n as u128);
        delta_bytes = b;
    }
    let full_per_op = full_bytes as f64 / mix_ops as f64;
    let delta_per_op = delta_bytes as f64 / mix_ops as f64;
    let reduction = full_per_op / delta_per_op;
    println!(
        "[update-mix] full-image {full_per_op:.1} WAL bytes/op, delta {delta_per_op:.1} \
         WAL bytes/op ({reduction:.1}x reduction)"
    );

    let wal_json = format!(
        "{{\n  \"experiment\": \"update_mix_delta_logging\",\n  {machine},\n  \"ops\": {mix_ops},\n  \
         \"runs\": {runs},\n  \"full_image\": {{ \"median_ns_per_op\": {}, \
         \"wal_bytes_per_op\": {full_per_op:.1} }},\n  \
         \"delta\": {{ \"median_ns_per_op\": {}, \"wal_bytes_per_op\": {delta_per_op:.1} }},\n  \
         \"wal_bytes_reduction_factor\": {reduction:.2}\n}}\n",
        median(full_times),
        median(delta_times),
    );
    std::fs::write(format!("{out_dir}/BENCH_wal.json"), &wal_json).unwrap();

    // ---- Floors ------------------------------------------------------
    let best = if txn_speedup >= many_speedup {
        &modes[1]
    } else {
        &modes[2]
    };
    let best_speedup = best.ops_per_sec / auto.ops_per_sec;
    assert!(
        best_speedup >= 2.0,
        "regression: batched ingest must be >= 2x autocommit ops/s, got {best_speedup:.2}x \
         ({} {:.0} ops/s vs autocommit {:.0} ops/s)",
        best.name,
        best.ops_per_sec,
        auto.ops_per_sec
    );
    assert!(
        reduction >= 2.0,
        "regression: delta logging must cut WAL bytes/op by >= 2x, got {reduction:.2}x"
    );
    println!(
        "[write_throughput] floors held: {best_speedup:.1}x ingest ({} {:.0} ops/s vs \
         autocommit {:.0} ops/s), {reduction:.1}x WAL",
        best.name, best.ops_per_sec, auto.ops_per_sec
    );
}
