//! Graceful degradation: a permanent fault after the commit point must
//! leave the engine *read-only*, not dead.
//!
//! Two scenarios. A batch's commit record reaches the WAL and the commit
//! then faults before it closes (`CP_COMMIT_DONE`) — the commit is durable,
//! so it still answers `Ok`; or commits succeed and a later checkpoint's
//! page write-back fails on the page device (a [`FaultyDevice`] write that
//! persists nothing). Either way the disk is behind the log, but the
//! buffer pool still pins the committed after-images — so every §3
//! traversal, predicate, and plain read keeps answering the *committed*
//! state, while every mutation fails fast with the typed
//! [`DbError::ReadOnly`] until [`Database::recover`] replays the log and
//! promotes the engine back to `Healthy`.

use std::sync::Arc;

use corion::storage::{DeviceMetrics, FaultyDevice, MemLog, SimDisk, CP_COMMIT_DONE};
use corion::{
    ClassBuilder, CompositeSpec, Database, DbConfig, DbError, Domain, Filter, HealthState, Value,
};

fn build() -> (Database, corion::ClassId, corion::ClassId) {
    let mut db = Database::new();
    let (part, asm) = schema(&mut db);
    (db, part, asm)
}

/// Part/Assembly schema: a dependent-shared set attribute plus a string.
fn schema(db: &mut Database) -> (corion::ClassId, corion::ClassId) {
    let part = db
        .define_class(ClassBuilder::new("Part").attr("text", Domain::String))
        .unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ))
        .unwrap();
    (part, asm)
}

#[test]
fn post_commit_fault_degrades_to_read_only_and_recovers() {
    let (mut db, part, asm) = build();
    let p1 = db
        .make(part, vec![("text", Value::Str("one".into()))], vec![])
        .unwrap();
    let p2 = db
        .make(part, vec![("text", Value::Str("two".into()))], vec![])
        .unwrap();
    let a = db
        .make(
            asm,
            vec![("parts", Value::Set(vec![Value::Ref(p1), Value::Ref(p2)]))],
            vec![],
        )
        .unwrap();
    assert_eq!(db.health(), HealthState::Healthy);

    // The faulting batch: an attribute write that dies after its commit
    // record is durable, before the batch closes. Durable means `Ok`: the
    // fault is what the *next* operation hears about.
    db.arm_crash_point(CP_COMMIT_DONE, 1);
    db.set_attr(p1, "text", Value::Str("updated".into()))
        .unwrap();
    db.heal_crash_points();
    assert_eq!(db.health(), HealthState::Degraded);

    // --- Reads: everything §3 offers still answers, with committed data.
    // The commit was durable before the fault, so the pool serves the
    // *post*-state of the faulting batch.
    assert_eq!(
        db.get_attr(p1, "text").unwrap(),
        Value::Str("updated".into()),
        "degraded reads serve the committed after-image"
    );
    assert_eq!(db.get_attr(p2, "text").unwrap(), Value::Str("two".into()));
    assert_eq!(db.get(a).unwrap().oid, a);
    let mut components = db.components_of(a, &Filter::all()).unwrap();
    components.sort();
    assert_eq!(components, {
        let mut v = vec![p1, p2];
        v.sort();
        v
    });
    assert_eq!(db.parents_of(p1, &Filter::all()).unwrap(), vec![a]);
    assert_eq!(db.ancestors_of(p2, &Filter::all()).unwrap(), vec![a]);
    assert_eq!(db.roots_of(a).unwrap(), vec![a]);
    assert!(db.compositep(asm, None).unwrap());
    assert!(db.component_of(p1, a).unwrap());
    assert!(db.child_of(p2, a).unwrap());
    assert!(db.exists(p1) && db.exists(a));

    // --- Mutations: every write path fails fast with the typed error.
    let read_only = |r: Result<(), DbError>, what: &str| {
        assert!(
            matches!(r, Err(DbError::ReadOnly)),
            "{what} must report DbError::ReadOnly while degraded"
        );
    };
    read_only(db.make(part, vec![], vec![]).map(|_| ()), "make");
    read_only(
        db.set_attr(p2, "text", Value::Str("nope".into())),
        "set_attr",
    );
    read_only(db.delete(p2).map(|_| ()), "delete");
    read_only(
        db.make_component(p2, a, "parts").map(|_| ()),
        "make_component",
    );
    read_only(
        db.remove_component(p2, a, "parts").map(|_| ()),
        "remove_component",
    );
    read_only(db.checkpoint(), "checkpoint");
    // The typed error is self-describing and permanent (retrying without
    // recovery cannot help).
    assert!(!DbError::ReadOnly.is_retryable());

    // And the reads above did not flip any state.
    assert_eq!(db.health(), HealthState::Degraded);

    // --- Recovery promotes back to Healthy and writes flow again.
    db.recover().unwrap();
    assert_eq!(db.health(), HealthState::Healthy);
    assert_eq!(
        db.get_attr(p1, "text").unwrap(),
        Value::Str("updated".into()),
        "the committed batch survives recovery"
    );
    db.set_attr(p2, "text", Value::Str("writable again".into()))
        .unwrap();
    let fresh = db.make(part, vec![], vec![]).unwrap();
    assert!(db.exists(fresh));
    db.verify_integrity().unwrap();
}

#[test]
fn checkpoint_writeback_fault_degrades_to_read_only_and_recovers() {
    // The in-memory devices, with the page device behind a fault injector;
    // nothing is written to the directory.
    let dir = std::env::temp_dir().join(format!("corion_degraded_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let disk = FaultyDevice::new(SimDisk::new(), DeviceMetrics::detached());
    let mut db = Database::with_devices(
        &dir,
        DbConfig::default(),
        Arc::new(disk.clone()),
        Arc::new(MemLog::new()),
    )
    .unwrap();
    let (part, asm) = schema(&mut db);
    let p1 = db
        .make(part, vec![("text", Value::Str("one".into()))], vec![])
        .unwrap();
    let a = db
        .make(
            asm,
            vec![("parts", Value::Set(vec![Value::Ref(p1)]))],
            vec![],
        )
        .unwrap();
    db.checkpoint().unwrap();
    // Committed and acknowledged; the page has not been written since.
    db.set_attr(p1, "text", Value::Str("updated".into()))
        .unwrap();
    let log = db.wal_stats().durable_bytes;

    // The checkpoint's first write-back persists nothing and fails.
    disk.arm_torn_write(0, 0);
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "got {err}");
    assert_eq!(disk.injected().torn_writes, 1);
    disk.heal_faults();
    assert_eq!(db.health(), HealthState::Degraded);
    assert_eq!(
        db.wal_stats().durable_bytes,
        log,
        "a failed write-back must not truncate the log"
    );

    // Reads serve the committed update from the frame the fault left
    // dirty; mutations (and a second checkpoint) are refused.
    assert_eq!(
        db.get_attr(p1, "text").unwrap(),
        Value::Str("updated".into())
    );
    assert_eq!(db.components_of(a, &Filter::all()).unwrap(), vec![p1]);
    assert!(matches!(
        db.set_attr(p1, "text", Value::Str("nope".into())),
        Err(DbError::ReadOnly)
    ));
    assert!(matches!(db.checkpoint(), Err(DbError::ReadOnly)));

    db.recover().unwrap();
    assert_eq!(db.health(), HealthState::Healthy);
    assert_eq!(
        db.get_attr(p1, "text").unwrap(),
        Value::Str("updated".into())
    );
    db.checkpoint().unwrap();
    db.verify_integrity().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_health_is_visible_in_the_metrics_gauge() {
    let (mut db, part, _) = build();
    let p = db.make(part, vec![], vec![]).unwrap();
    assert_eq!(
        db.metrics_snapshot().gauges.get("corion_db_health"),
        Some(&0)
    );
    db.arm_crash_point(CP_COMMIT_DONE, 1);
    db.set_attr(p, "text", Value::Str("x".into())).unwrap();
    db.heal_crash_points();
    assert_eq!(db.health(), HealthState::Degraded);
    assert_eq!(
        db.metrics_snapshot().gauges.get("corion_db_health"),
        Some(&1)
    );
    db.recover().unwrap();
    assert_eq!(
        db.metrics_snapshot().gauges.get("corion_db_health"),
        Some(&0)
    );
}

#[test]
fn crash_while_degraded_poisons_then_recovery_still_heals() {
    let (mut db, part, _) = build();
    let p = db
        .make(part, vec![("text", Value::Str("v".into()))], vec![])
        .unwrap();
    db.arm_crash_point(CP_COMMIT_DONE, 1);
    db.set_attr(p, "text", Value::Str("w".into())).unwrap();
    db.heal_crash_points();
    assert_eq!(db.health(), HealthState::Degraded);

    // Losing the volatile state while degraded is strictly worse: reads
    // are no longer trustworthy either.
    db.simulate_crash();
    assert_eq!(db.health(), HealthState::Poisoned);
    assert!(db.get(p).is_err(), "poisoned state refuses reads");

    // But the WAL has the committed batch: recovery restores everything.
    db.recover().unwrap();
    assert_eq!(db.health(), HealthState::Healthy);
    assert_eq!(db.get_attr(p, "text").unwrap(), Value::Str("w".into()));
    db.verify_integrity().unwrap();
}
