//! Full transaction semantics: §7 composite locking + engine-level
//! rollback. Locks make conflicting transactions take turns; dropping the
//! transaction's write set makes aborts restore the exact before state.

use std::sync::Arc;

use corion::lock::protocol::composite_lockset;
use corion::{
    ClassBuilder, CompositeSpec, Database, Domain, LockIntent, LockManager, Transaction, Value,
};
use parking_lot::Mutex;

#[test]
fn aborted_update_leaves_no_trace() {
    let mut db = Database::new();
    let part = db
        .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
        .unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let p = db.make(part, vec![("n", Value::Int(1))], vec![]).unwrap();
    let a = db
        .make(
            asm,
            vec![("parts", Value::Set(vec![Value::Ref(p)]))],
            vec![],
        )
        .unwrap();

    let lm = LockManager::shared();
    let txn = Transaction::begin(lm.clone());
    composite_lockset(&db, a, LockIntent::Write)
        .acquire(&lm, txn.id())
        .unwrap();
    db.begin_transaction().unwrap();
    // The transaction rips the assembly apart…
    db.set_attr(p, "n", Value::Int(99)).unwrap();
    let extra = db.make(part, vec![], vec![]).unwrap();
    db.make_component(extra, a, "parts").unwrap();
    db.delete(a).unwrap(); // cascades into p and extra
    assert!(!db.exists(a) && !db.exists(p));
    // …then aborts.
    db.abort_transaction().unwrap();
    txn.abort();
    assert!(db.exists(a) && db.exists(p));
    assert!(!db.exists(extra));
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(1));
    assert_eq!(
        db.get_attr(a, "parts").unwrap(),
        Value::Set(vec![Value::Ref(p)])
    );
    db.verify_integrity().unwrap();
}

#[test]
fn serialised_writers_alternate_commit_and_abort() {
    // Two threads run read-modify-write transactions on one composite
    // object; even-numbered rounds abort. The final counter equals the
    // number of committed rounds — locks serialise, aborts leave nothing.
    let mut db = Database::new();
    let counter_class = db
        .define_class(ClassBuilder::new("Counter").attr("n", Domain::Integer))
        .unwrap();
    let c = db
        .make(counter_class, vec![("n", Value::Int(0))], vec![])
        .unwrap();
    let db = Arc::new(Mutex::new(db));
    let lm = LockManager::shared();

    let mut handles = Vec::new();
    for worker in 0..2 {
        let db = db.clone();
        let lm = lm.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..20 {
                let txn = Transaction::begin(lm.clone());
                // Lock first (2PL), then mutate under the engine mutex.
                let set = corion::lock::protocol::direct_lockset(c, true);
                set.acquire(&lm, txn.id()).unwrap();
                let mut db = db.lock();
                db.begin_transaction().unwrap();
                let Value::Int(n) = db.get_attr(c, "n").unwrap() else {
                    panic!()
                };
                db.set_attr(c, "n", Value::Int(n + 1)).unwrap();
                let abort = (worker + round) % 2 == 0;
                if abort {
                    db.abort_transaction().unwrap();
                    drop(db);
                    txn.abort();
                } else {
                    db.commit_transaction().unwrap();
                    drop(db);
                    txn.commit();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let db = db.lock();
    let committed = 2 * 20 / 2; // half the rounds commit
    assert_eq!(db.get_attr(c, "n").unwrap(), Value::Int(committed));
}

#[test]
fn failed_make_is_already_atomic_without_undo() {
    // A `make` rejected half-way (multi-parent violation) takes itself
    // back out of an open transaction, which stays usable.
    let mut db = Database::new();
    let part = db.define_class(ClassBuilder::new("Part")).unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let a1 = db.make(asm, vec![], vec![]).unwrap();
    let a2 = db.make(asm, vec![], vec![]).unwrap();
    db.begin_transaction().unwrap();
    assert!(db
        .make(part, vec![], vec![(a1, "parts"), (a2, "parts")])
        .is_err());
    assert_eq!(db.instances_of(part, false).len(), 0);
    let kept = db.make(part, vec![], vec![(a1, "parts")]).unwrap();
    db.commit_transaction().unwrap();
    assert_eq!(db.instances_of(part, false), vec![kept]);
    db.verify_integrity().unwrap();
}

// ---------------------------------------------------------------------
// Public transactions: N mutations, one durability point
// ---------------------------------------------------------------------

mod public_txn {
    use corion::storage::StoreConfig;
    use corion::{
        ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError, Domain, MakeSpec,
        ParentRef, Value,
    };

    /// Part/Assembly schema in one shared segment.
    fn schema() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let part = db
            .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
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
        (db, part, asm)
    }

    #[test]
    fn a_transaction_pays_one_flush_for_all_its_mutations() {
        let (mut db, part, asm) = schema();
        let a = db.make(asm, vec![], vec![]).unwrap();
        let flushes_before = db.wal_stats().flushes;
        let begins_before = db.metrics_snapshot().counter("corion_txn_begins_total");
        let oids = db
            .transaction(|db| {
                (0..10)
                    .map(|i| db.make(part, vec![("n", Value::Int(i))], vec![(a, "parts")]))
                    .collect::<Result<Vec<_>, _>>()
            })
            .unwrap();
        // The durability point: ten mutations, exactly one WAL flush.
        assert_eq!(db.wal_stats().flushes, flushes_before + 1);
        for (i, &o) in oids.iter().enumerate() {
            assert_eq!(db.get_attr(o, "n").unwrap(), Value::Int(i as i64));
            assert!(db.child_of(o, a).unwrap());
        }
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("corion_txn_begins_total"), begins_before + 1);
        assert_eq!(snap.counter("corion_txn_commits_total"), 1);
        assert_eq!(snap.counter("corion_txn_ops_total"), 10);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn abort_restores_maps_attributes_and_the_serial_counter() {
        let (mut db, part, asm) = schema();
        let p = db.make(part, vec![("n", Value::Int(1))], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        let objects_before = db.object_count();

        db.begin_transaction().unwrap();
        db.set_attr(p, "n", Value::Int(99)).unwrap();
        let ephemeral = db.make(part, vec![("n", Value::Int(7))], vec![]).unwrap();
        db.delete(a).unwrap(); // cascades into the dependent p
        assert!(!db.exists(a) && !db.exists(p));
        db.abort_transaction().unwrap();

        // Every map entry, attribute value and the OID serial are back.
        assert!(db.exists(a) && db.exists(p));
        assert!(!db.exists(ephemeral));
        assert_eq!(db.object_count(), objects_before);
        assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(1));
        assert_eq!(
            db.get_attr(a, "parts").unwrap(),
            Value::Set(vec![Value::Ref(p)])
        );
        assert!(db.child_of(p, a).unwrap());
        // Rolled-back creations don't burn OIDs: the next make reuses the
        // serial the aborted one consumed.
        let reused = db.make(part, vec![("n", Value::Int(8))], vec![]).unwrap();
        assert_eq!(reused, ephemeral);
        assert_eq!(db.metrics_snapshot().counter("corion_txn_aborts_total"), 1);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn checkpoints_defer_until_the_transaction_closes() {
        // A tiny checkpoint threshold plus full-image logging would trip
        // the auto-checkpoint on nearly every write — but never inside an
        // open transaction, which writes nothing until it commits.
        let (mut db, part) = {
            let mut db = Database::with_config(DbConfig {
                store: StoreConfig {
                    wal_checkpoint_bytes: 4096,
                    delta_pages: false,
                    ..StoreConfig::default()
                },
                ..DbConfig::default()
            });
            let part = db
                .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
                .unwrap();
            (db, part)
        };
        let p = db.make(part, vec![("n", Value::Int(0))], vec![]).unwrap();
        let checkpoints_at_begin = db.wal_stats().checkpoints;
        db.begin_transaction().unwrap();
        for i in 0..64 {
            db.set_attr(p, "n", Value::Int(i)).unwrap();
            assert_eq!(
                db.wal_stats().checkpoints,
                checkpoints_at_begin,
                "auto-checkpoint fired inside an open transaction"
            );
        }
        // An explicit checkpoint is refused outright.
        assert!(matches!(
            db.checkpoint(),
            Err(DbError::TransactionState { .. })
        ));
        db.commit_transaction().unwrap();
        // The deferred work flushes at commit; the threshold (far exceeded
        // by 64 full images) trips on the way out.
        assert!(db.wal_stats().checkpoints > checkpoints_at_begin);
        assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(63));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn a_crash_mid_transaction_recovers_to_the_pre_transaction_state() {
        let (mut db, part, asm) = schema();
        let p = db.make(part, vec![("n", Value::Int(1))], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();

        db.begin_transaction().unwrap();
        db.set_attr(p, "n", Value::Int(99)).unwrap();
        let ghost = db.make(part, vec![("n", Value::Int(7))], vec![]).unwrap();
        db.simulate_crash();
        db.recover().unwrap();

        // The transaction's writes never left its overlay, so the crash
        // erased it wholesale.
        assert!(!db.in_transaction());
        assert!(!db.exists(ghost));
        assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(1));
        assert!(db.child_of(p, a).unwrap());
        db.verify_integrity().unwrap();
        // And the engine accepts new work, including fresh transactions.
        db.transaction(|db| db.make(part, vec![("n", Value::Int(2))], vec![]))
            .unwrap();
    }

    #[test]
    fn make_many_builds_a_clustered_hierarchy_in_one_flush() {
        let (mut db, part, asm) = schema();
        let flushes_before = db.wal_stats().flushes;
        let mut specs = vec![MakeSpec::new(asm)];
        for i in 0..30 {
            specs.push(
                MakeSpec::new(part)
                    .value("n", Value::Int(i))
                    .parent(ParentRef::Created(0), "parts"),
            );
        }
        let oids = db.make_many(&specs).unwrap();
        assert_eq!(oids.len(), 31);
        assert_eq!(db.wal_stats().flushes, flushes_before + 1);
        let root = oids[0];
        for &child in &oids[1..] {
            assert!(db.child_of(child, root).unwrap());
        }
        // Clustering (§2.3): every child was placed near its first parent,
        // so the whole hierarchy packs into a handful of pages.
        let segment = db.segment_of(asm).unwrap();
        let pages = db.pages_of(segment).unwrap();
        assert!(
            pages.len() <= 4,
            "31 clustered objects should pack tightly, used {} pages",
            pages.len()
        );
        db.verify_integrity().unwrap();
    }

    #[test]
    fn make_many_rejects_forward_references_without_side_effects() {
        let (mut db, part, asm) = schema();
        let specs = vec![
            MakeSpec::new(part)
                .value("n", Value::Int(0))
                .parent(ParentRef::Created(1), "parts"), // not created yet
            MakeSpec::new(asm),
        ];
        let err = db.make_many(&specs).unwrap_err();
        assert!(matches!(err, DbError::TransactionState { .. }), "{err:?}");
        assert_eq!(db.object_count(), 0);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn a_failing_spec_rolls_the_whole_ingest_back() {
        let (mut db, part, asm) = schema();
        let specs = vec![
            MakeSpec::new(asm),
            MakeSpec::new(part)
                .value("n", Value::Int(0))
                .parent(ParentRef::Created(0), "parts"),
            // Unknown attribute: fails after two objects already exist.
            MakeSpec::new(part).value("bogus", Value::Int(1)),
        ];
        assert!(matches!(
            db.make_many(&specs),
            Err(DbError::NoSuchAttribute { .. })
        ));
        assert_eq!(db.object_count(), 0, "partial ingest leaked objects");
        assert_eq!(db.metrics_snapshot().counter("corion_txn_aborts_total"), 1);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn transaction_control_errors_are_typed_and_total() {
        let (mut db, part, _) = schema();
        // No transaction open.
        assert!(matches!(
            db.commit_transaction(),
            Err(DbError::TransactionState { .. })
        ));
        assert!(matches!(
            db.abort_transaction(),
            Err(DbError::TransactionState { .. })
        ));
        // No nesting.
        db.begin_transaction().unwrap();
        assert!(matches!(
            db.begin_transaction(),
            Err(DbError::TransactionState { .. })
        ));
        // No DDL inside a transaction (the catalog is outside the WAL's
        // crash scope).
        assert!(matches!(
            db.define_class(ClassBuilder::new("Late")),
            Err(DbError::TransactionState { .. })
        ));
        // Nothing that needs committed state, either.
        assert!(matches!(db.dump(), Err(DbError::TransactionState { .. })));
        assert!(matches!(db.repair(), Err(DbError::TransactionState { .. })));
        db.abort_transaction().unwrap();
        // The engine is unharmed by the whole gauntlet.
        db.make(part, vec![("n", Value::Int(1))], vec![]).unwrap();
        db.verify_integrity().unwrap();
    }
}
