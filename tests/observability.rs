//! End-to-end observability: the acceptance tests for the `corion-obs`
//! metrics registry and tracing facade as wired into the real engine.
//!
//! Covers, in order: (1) a crash-matrix-style soak proving the WAL
//! append/flush/recovery counters are live after repeated armed crashes
//! and recoveries; (2) line-by-line validation of the Prometheus text
//! exposition; (3) span events from §3 traversals and the autocommit path
//! reaching a global subscriber; (4) snapshot text round-trip and merge
//! semantics on live engine data; (5) one latency sample per public §3
//! message.

use std::sync::Arc;

use corion::obs::{clear_subscriber, set_subscriber, CollectingSubscriber, MetricsSnapshot};
use corion::storage::{CP_COMMIT_DONE, CRASH_POINTS};
use corion::{ClassBuilder, CompositeSpec, Database, DbError, Domain, Filter, Oid, Value};

/// Part/Assembly schema: a dependent-shared set attribute plus a string
/// payload — the same shape the crash matrix uses, so every armed crash
/// exercises multi-page atomic batches.
fn parts_db() -> (Database, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::new();
    let part = db
        .define_class(ClassBuilder::new("Part").attr("text", Domain::String))
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
    let mut parts = Vec::new();
    for i in 0..9 {
        parts.push(
            db.make(part, vec![("text", Value::Str(format!("p{i}")))], vec![])
                .unwrap(),
        );
    }
    let mut asms = Vec::new();
    for a in 0..3 {
        let members: Vec<Value> = (0..3).map(|k| Value::Ref(parts[a * 3 + k])).collect();
        asms.push(
            db.make(asm, vec![("parts", Value::Set(members))], vec![])
                .unwrap(),
        );
    }
    (db, parts, asms)
}

/// Run a mixed read/write workload so that every instrumented subsystem
/// records at least once: traversals, predicates, an attribute write
/// (WAL commit), and a checkpoint.
fn soak(db: &mut Database, parts: &[Oid], asms: &[Oid]) {
    for _ in 0..2 {
        for &a in asms {
            db.components_of(a, &Filter::all()).unwrap();
            db.roots_of(a).unwrap();
        }
        for &p in parts {
            db.parents_of(p, &Filter::all()).unwrap();
            db.ancestors_of(p, &Filter::all()).unwrap();
            db.component_of(p, asms[0]).unwrap();
        }
    }
    db.set_attr(parts[0], "text", Value::Str("rewritten".into()))
        .unwrap();
    db.checkpoint().unwrap();
}

// ---------------------------------------------------------------------
// (1) Crash-matrix soak — the WAL/recovery counters are live
// ---------------------------------------------------------------------

/// Arm every named crash point in the commit protocol once, crash an
/// atomic batch there, recover, and then assert the snapshot shows the
/// whole WAL lifecycle: appends, flushes, commits, aborts, recoveries,
/// recovered pages, and checkpoints all nonzero — with the latency
/// histograms agreeing with their companion counters.
#[test]
fn crash_matrix_soak_shows_nonzero_wal_and_recovery_counters() {
    let (mut db, parts, asms) = parts_db();
    soak(&mut db, &parts, &asms);

    let mut recoveries = 0u64;
    for &point in CRASH_POINTS {
        db.arm_crash_point(point, 1);
        let result = db.set_attr(parts[1], "text", Value::Str("x".repeat(9000)));
        let fired = db.crash_point_remaining(point).is_none();
        db.heal_crash_points();
        if !fired {
            // This point is not on the set_attr path; nothing to recover.
            result.unwrap();
            continue;
        }
        // Past the durability point the commit answers `Ok` on a
        // degraded store; before it, the crash is a storage error.
        assert!(
            matches!(result, Err(DbError::Storage(_))) != (point == CP_COMMIT_DONE),
            "crash at {point} answered {result:?}"
        );
        db.recover().unwrap();
        recoveries += 1;
        // The recovered engine keeps serving instrumented reads.
        db.components_of(asms[0], &Filter::all()).unwrap();
    }
    assert!(recoveries > 0, "no commit-protocol crash point fired");

    let snap = db.metrics_snapshot();
    for name in [
        "corion_wal_append_records_total",
        "corion_wal_append_bytes_total",
        "corion_wal_flushes_total",
        "corion_wal_checkpoints_total",
        "corion_storage_commits_total",
        "corion_storage_aborts_total",
        "corion_storage_recoveries_total",
        "corion_storage_recovered_pages_total",
        "corion_atomic_commits_total",
        "corion_atomic_aborts_total",
    ] {
        assert!(snap.counter(name) > 0, "{name} stayed zero after the soak");
    }
    assert_eq!(snap.counter("corion_storage_recoveries_total"), recoveries);
    // Latency histograms observe once per counted operation.
    for (histogram, counter) in [
        ("corion_wal_flush_latency_ns", "corion_wal_flushes_total"),
        (
            "corion_storage_recovery_latency_ns",
            "corion_storage_recoveries_total",
        ),
        (
            "corion_wal_checkpoint_latency_ns",
            "corion_wal_checkpoints_total",
        ),
    ] {
        assert_eq!(
            snap.histogram(histogram).expect(histogram).count,
            snap.counter(counter),
            "{histogram} disagrees with {counter}"
        );
    }
    for histogram in [
        "corion_components_of_latency_ns",
        "corion_parents_of_latency_ns",
        "corion_ancestors_of_latency_ns",
        "corion_predicate_latency_ns",
        "corion_atomic_latency_ns",
    ] {
        assert!(
            snap.histogram(histogram).expect(histogram).count > 0,
            "{histogram} recorded nothing"
        );
    }
}

// ---------------------------------------------------------------------
// (2) Prometheus exposition — parses line by line
// ---------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// Validate one Prometheus sample line: `name value` or
/// `name_bucket{le="<bound>"} value`.
fn assert_sample_line(line: &str) {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line without a value: {line:?}");
    });
    assert!(
        value.parse::<i64>().is_ok(),
        "unparseable sample value in {line:?}"
    );
    if let Some((name, labels)) = series.split_once('{') {
        assert!(valid_metric_name(name), "bad metric name in {line:?}");
        assert!(
            name.ends_with("_bucket"),
            "only bucket series carry labels, got {line:?}"
        );
        let le = labels
            .strip_suffix('}')
            .and_then(|l| l.strip_prefix("le=\""))
            .and_then(|l| l.strip_suffix('"'))
            .unwrap_or_else(|| panic!("malformed le label in {line:?}"));
        assert!(
            le == "+Inf" || le.parse::<u64>().is_ok(),
            "unparseable le bound in {line:?}"
        );
    } else {
        assert!(valid_metric_name(series), "bad metric name in {line:?}");
    }
}

#[test]
fn prometheus_rendering_parses_line_by_line() {
    let (mut db, parts, asms) = parts_db();
    soak(&mut db, &parts, &asms);

    let text = db.render_prometheus();
    let mut samples = 0usize;
    let mut type_lines = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            assert!(valid_metric_name(name), "bad name in TYPE line {line:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric type in {line:?}"
            );
            assert_eq!(it.next(), None, "trailing tokens in {line:?}");
            type_lines += 1;
        } else {
            assert_sample_line(line);
            samples += 1;
        }
    }
    let snap = db.metrics_snapshot();
    assert_eq!(
        type_lines,
        snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
        "one TYPE line per registered metric"
    );
    assert!(samples > type_lines, "histograms expand to several samples");
    // Spot-check cumulative bucket semantics: the +Inf bucket equals the
    // series count for a histogram we know recorded something.
    let h = snap
        .histogram("corion_components_of_latency_ns")
        .expect("components_of histogram");
    let inf_line = format!(
        "corion_components_of_latency_ns_bucket{{le=\"+Inf\"}} {}",
        h.count
    );
    assert!(
        text.lines().any(|l| l == inf_line),
        "missing cumulative +Inf bucket sample: {inf_line:?}"
    );
}

// ---------------------------------------------------------------------
// (3) Tracing — engine operations reach the global subscriber
// ---------------------------------------------------------------------

#[test]
fn engine_spans_reach_a_global_subscriber() {
    let collector = Arc::new(CollectingSubscriber::new());
    set_subscriber(collector.clone());
    let (mut db, parts, asms) = parts_db();
    db.components_of(asms[0], &Filter::all()).unwrap();
    db.parents_of(parts[0], &Filter::all()).unwrap();
    db.set_attr(parts[0], "text", Value::Str("traced".into()))
        .unwrap();
    clear_subscriber();

    let events = collector.take();
    // Other tests in this binary may run concurrently and emit spans of
    // their own while the subscriber is installed, so assert presence of
    // paired enter/exit events rather than an exact sequence.
    for name in ["components_of", "parents_of", "atomic", "commit_atomic"] {
        for phase in ["enter", "exit"] {
            assert!(
                events.iter().any(|e| e.name == name && e.phase == phase),
                "no {phase} event for span {name:?} (got {} events)",
                events.len()
            );
        }
    }
    // Spans carry their subsystem as the target.
    assert!(events
        .iter()
        .all(|e| matches!(e.target.as_str(), "core" | "storage" | "lock")));
}

// ---------------------------------------------------------------------
// (4) Snapshot round-trip and merge on live engine data
// ---------------------------------------------------------------------

#[test]
fn live_snapshot_text_round_trips_and_merges() {
    let (mut db, parts, asms) = parts_db();
    soak(&mut db, &parts, &asms);

    let snap = db.metrics_snapshot();
    let parsed = MetricsSnapshot::parse_text(&snap.to_text()).expect("round-trip parse");
    assert_eq!(snap, parsed, "to_text/parse_text must be an identity");

    // Merging a snapshot into itself doubles counters and histogram mass,
    // and leaves gauges at the last-written value.
    let mut doubled = snap.clone();
    doubled.merge(&snap).expect("merge of identical layouts");
    assert_eq!(
        doubled.counter("corion_wal_append_records_total"),
        2 * snap.counter("corion_wal_append_records_total")
    );
    assert_eq!(
        doubled.gauge("corion_shard_count"),
        snap.gauge("corion_shard_count")
    );
    assert!(snap.gauge("corion_shard_count") > 0);
    let before = snap.histogram("corion_atomic_latency_ns").unwrap();
    let after = doubled.histogram("corion_atomic_latency_ns").unwrap();
    assert_eq!(after.count, 2 * before.count);
    assert_eq!(after.sum, 2 * before.sum);
    assert_eq!(
        after.buckets.iter().sum::<u64>(),
        2 * before.buckets.iter().sum::<u64>()
    );
}

// ---------------------------------------------------------------------
// (5) One latency sample per public §3 message
// ---------------------------------------------------------------------

/// Every §3 message is an adapter over the one walk: whatever it calls
/// inside, it records exactly one sample in its own histogram
/// (`roots_of` used to record two — its own and the nested
/// `ancestors_of` one — and the `*-component-of` predicates likewise).
#[test]
fn each_public_traversal_call_records_one_latency_sample() {
    let (db, parts, asms) = parts_db();
    let (p, a) = (parts[0], asms[0]);
    let all = Filter::all();
    let samples = |name: &str| db.metrics_snapshot().histogram(name).map_or(0, |h| h.count);
    let calls: [(&str, &str, &dyn Fn()); 8] = [
        ("components_of", "corion_components_of_latency_ns", &|| {
            db.components_of(a, &all).unwrap();
        }),
        ("parents_of", "corion_parents_of_latency_ns", &|| {
            db.parents_of(p, &all).unwrap();
        }),
        ("ancestors_of", "corion_ancestors_of_latency_ns", &|| {
            db.ancestors_of(p, &all).unwrap();
        }),
        ("roots_of", "corion_ancestors_of_latency_ns", &|| {
            db.roots_of(p).unwrap();
        }),
        ("component_of", "corion_predicate_latency_ns", &|| {
            db.component_of(p, a).unwrap();
        }),
        ("child_of", "corion_predicate_latency_ns", &|| {
            db.child_of(p, a).unwrap();
        }),
        (
            "exclusive_component_of",
            "corion_predicate_latency_ns",
            &|| {
                db.exclusive_component_of(p, a).unwrap();
            },
        ),
        (
            "shared_component_of",
            "corion_predicate_latency_ns",
            &|| {
                assert!(db.shared_component_of(p, a).unwrap());
            },
        ),
    ];
    const HISTOGRAMS: [&str; 4] = [
        "corion_components_of_latency_ns",
        "corion_parents_of_latency_ns",
        "corion_ancestors_of_latency_ns",
        "corion_predicate_latency_ns",
    ];
    for (message, histogram, call) in calls {
        let before = HISTOGRAMS.map(samples);
        call();
        let after = HISTOGRAMS.map(samples);
        for ((name, before), after) in HISTOGRAMS.iter().zip(before).zip(after) {
            assert_eq!(
                after - before,
                u64::from(*name == histogram),
                "{message}: samples recorded in {name}"
            );
        }
    }
}
