//! Multi-threaded tests of the §7 locking protocols: serialisation of
//! conflicting composite accesses, parallelism of disjoint ones, deadlock
//! victim selection, and a stress test that audits mutual exclusion with a
//! per-composite-object "owner" cell.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use corion::lock::protocol::composite_lockset;
use corion::workload::Fleet;
use corion::{
    ClassBuilder, CompositeSpec, Database, Domain, LockIntent, LockManager, LockMode, Lockable,
    Oid, Transaction, Value,
};

#[test]
fn writers_on_the_same_composite_object_are_serialised() {
    let mut db = Database::new();
    let fleet = Fleet::generate(&mut db, 1, 2).unwrap();
    let v = fleet.vehicles[0];
    let set = Arc::new(composite_lockset(&db, v, LockIntent::Write));
    let lm = LockManager::shared();
    let in_cs = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (lm, set, in_cs, max_seen) =
                (lm.clone(), set.clone(), in_cs.clone(), max_seen.clone());
            thread::spawn(move || {
                for _ in 0..25 {
                    let txn = Transaction::begin(lm.clone());
                    set.acquire(&lm, txn.id()).unwrap();
                    // Critical section: assert we are alone.
                    assert!(!in_cs.swap(true, Ordering::SeqCst), "two writers inside");
                    max_seen.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(Duration::from_micros(50));
                    in_cs.store(false, Ordering::SeqCst);
                    txn.commit();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(max_seen.load(Ordering::SeqCst), 100);
}

#[test]
fn writers_on_different_composite_objects_run_in_parallel() {
    // Two writers on different vehicles must both be inside their critical
    // sections at the same time at least once — the paper's headline
    // concurrency win ("multiple users … as long as they update different
    // composite objects").
    let mut db = Database::new();
    let fleet = Fleet::generate(&mut db, 2, 2).unwrap();
    let sets: Vec<_> = fleet
        .vehicles
        .iter()
        .map(|&v| Arc::new(composite_lockset(&db, v, LockIntent::Write)))
        .collect();
    let lm = LockManager::shared();
    let inside = Arc::new(AtomicU64::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..2)
        .map(|i| {
            let lm = lm.clone();
            let set = sets[i].clone();
            let inside = inside.clone();
            let overlapped = overlapped.clone();
            thread::spawn(move || {
                for _ in 0..50 {
                    let txn = Transaction::begin(lm.clone());
                    set.acquire(&lm, txn.id()).unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    if now == 2 {
                        overlapped.store(true, Ordering::SeqCst);
                    }
                    thread::sleep(Duration::from_micros(100));
                    inside.fetch_sub(1, Ordering::SeqCst);
                    txn.commit();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        overlapped.load(Ordering::SeqCst),
        "disjoint writers overlapped"
    );
}

#[test]
fn deadlock_victim_aborts_and_system_progresses() {
    let lm = LockManager::shared();
    let a = Lockable::Instance(Oid::new(corion::ClassId(0), 1));
    let b = Lockable::Instance(Oid::new(corion::ClassId(0), 2));

    let t1 = lm.begin();
    let t2 = lm.begin();
    lm.try_lock(t1, a, LockMode::X).unwrap();
    lm.try_lock(t2, b, LockMode::X).unwrap();

    let lm1 = lm.clone();
    let h = thread::spawn(move || lm1.lock(t1, b, LockMode::X));
    thread::sleep(Duration::from_millis(30));
    // Closing the cycle: one of the two must be told to abort.
    let r2 = lm.lock(t2, a, LockMode::X);
    assert!(r2.is_err(), "t2 is the victim");
    lm.release_all(t2);
    h.join().unwrap().unwrap();
    lm.release_all(t1);
    // Everything is free again.
    let t3 = lm.begin();
    lm.try_lock(t3, a, LockMode::X).unwrap();
    lm.try_lock(t3, b, LockMode::X).unwrap();
}

#[test]
fn reader_writer_mix_on_shared_hierarchy_admits_no_writer_reader_overlap() {
    // Documents share Sections: by the Figure 8 matrix a writer excludes
    // both other writers *and* shared-path readers on the Section class.
    let mut db = Database::new();
    let section = db.define_class(ClassBuilder::new("Sec")).unwrap();
    let doc = db
        .define_class(ClassBuilder::new("Doc").attr_composite(
            "sections",
            Domain::SetOf(Box::new(Domain::Class(section))),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ))
        .unwrap();
    let s = db.make(section, vec![], vec![]).unwrap();
    let d1 = db
        .make(
            doc,
            vec![("sections", Value::Set(vec![Value::Ref(s)]))],
            vec![],
        )
        .unwrap();
    let d2 = db
        .make(
            doc,
            vec![("sections", Value::Set(vec![Value::Ref(s)]))],
            vec![],
        )
        .unwrap();
    let read1 = Arc::new(composite_lockset(&db, d1, LockIntent::Read));
    let write2 = Arc::new(composite_lockset(&db, d2, LockIntent::Write));
    let lm = LockManager::shared();

    let writing = Arc::new(AtomicBool::new(false));
    let reading = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for _ in 0..3 {
        let (lm, read1, writing, reading, violations) = (
            lm.clone(),
            read1.clone(),
            writing.clone(),
            reading.clone(),
            violations.clone(),
        );
        handles.push(thread::spawn(move || {
            for _ in 0..30 {
                let txn = Transaction::begin(lm.clone());
                read1.acquire(&lm, txn.id()).unwrap();
                reading.fetch_add(1, Ordering::SeqCst);
                if writing.load(Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_micros(30));
                reading.fetch_sub(1, Ordering::SeqCst);
                txn.commit();
            }
        }));
    }
    {
        let (lm, write2, writing, reading, violations) = (
            lm.clone(),
            write2.clone(),
            writing.clone(),
            reading.clone(),
            violations.clone(),
        );
        handles.push(thread::spawn(move || {
            for _ in 0..30 {
                let txn = Transaction::begin(lm.clone());
                write2.acquire(&lm, txn.id()).unwrap();
                writing.store(true, Ordering::SeqCst);
                if reading.load(Ordering::SeqCst) > 0 {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_micros(30));
                writing.store(false, Ordering::SeqCst);
                txn.commit();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "writer never overlapped a reader"
    );
}

#[test]
fn grant_counts_reflect_protocol_economy() {
    // Composite locking acquires O(1 + classes) locks per access; the
    // per-object baseline acquires O(components). Replay the same mix under
    // both and compare counts — the B3 benchmark asserts the same shape
    // with Criterion timings.
    let mut db = Database::new();
    let fleet = Fleet::generate(&mut db, 4, 8).unwrap();
    let composite_lm = LockManager::new();
    let per_object_lm = LockManager::new();
    for &v in &fleet.vehicles {
        let t = composite_lm.begin();
        composite_lockset(&db, v, LockIntent::Read)
            .try_acquire(&composite_lm, t)
            .unwrap();
        composite_lm.release_all(t);

        let t = per_object_lm.begin();
        corion::lock::protocol::per_object_lockset(&mut db, v, false)
            .unwrap()
            .try_acquire(&per_object_lm, t)
            .unwrap();
        per_object_lm.release_all(t);
    }
    let composite = composite_lm.grant_count();
    let per_object = per_object_lm.grant_count();
    assert!(
        composite * 2 < per_object,
        "composite locking should need far fewer locks: {composite} vs {per_object}"
    );
}

// ---------------------------------------------------------------------
// Shared-read traversal engine: `&self` reads from many threads at once
// ---------------------------------------------------------------------

use corion::workload::{DagParams, GeneratedDag};
use corion::Filter;

mod reference;

fn traversal_dag(seed: u64) -> (Database, Vec<Oid>) {
    let mut db = Database::new();
    let dag = GeneratedDag::generate(
        &mut db,
        DagParams {
            depth: 4,
            fanout: 3,
            roots: 3,
            share_fraction: 0.4,
            dependent_fraction: 0.5,
            seed,
        },
    )
    .unwrap();
    let all = dag.all();
    (db, all)
}

#[test]
fn many_readers_traverse_one_database_concurrently() {
    let (db, all) = traversal_dag(7);
    // Oracle answers computed single-threaded, by the reference walk.
    let expected_components: Vec<Vec<Oid>> = all
        .iter()
        .map(|&o| reference::components_of(&db, o, &Filter::all()).unwrap())
        .collect();
    let expected_ancestors: Vec<Vec<Oid>> = all
        .iter()
        .map(|&o| reference::ancestors_of(&db, o, &Filter::all()).unwrap())
        .collect();
    let db = &db;
    thread::scope(|s| {
        for t in 0..8 {
            let (all, expected_components, expected_ancestors) =
                (&all, &expected_components, &expected_ancestors);
            s.spawn(move || {
                // Each thread walks the whole DAG, offset so threads hit
                // the same objects at different moments.
                for i in 0..all.len() {
                    let i = (i + t * 5) % all.len();
                    let o = all[i];
                    assert_eq!(
                        db.components_of(o, &Filter::all()).unwrap(),
                        expected_components[i]
                    );
                    assert_eq!(
                        db.ancestors_of(o, &Filter::all()).unwrap(),
                        expected_ancestors[i]
                    );
                    assert_eq!(db.roots_of(o).unwrap(), reference::roots_of(db, o).unwrap());
                }
            });
        }
    });
}

#[test]
fn batch_traversals_fan_out_and_match_sequential_results() {
    let (db, all) = traversal_dag(11);
    for filter in [
        Filter::all(),
        Filter::all().exclusive(),
        Filter::all().level(2),
    ] {
        let batch = db.components_of_many(&all, &filter);
        assert_eq!(batch.len(), all.len());
        for (&o, got) in all.iter().zip(&batch) {
            assert_eq!(
                got.as_ref().unwrap(),
                &reference::components_of(&db, o, &filter).unwrap()
            );
        }
        let batch = db.ancestors_of_many(&all, &filter);
        for (&o, got) in all.iter().zip(&batch) {
            assert_eq!(
                got.as_ref().unwrap(),
                &reference::ancestors_of(&db, o, &filter).unwrap()
            );
        }
    }
}

/// (Named for the traversal cache's generation counter, which is gone;
/// what must hold is unchanged: no reader sees a pre-write answer.)
#[test]
fn no_stale_reads_across_a_generation_bump() {
    let (mut db, all) = traversal_dag(13);
    let roots: Vec<Oid> = all
        .iter()
        .copied()
        .filter(|&o| db.parents_of(o, &Filter::all()).unwrap().is_empty())
        .collect();
    let victim_root = roots[0];
    let doomed = db.components_of(victim_root, &Filter::all()).unwrap();

    // Phase 1: many readers walk the whole DAG.
    {
        let db = &db;
        thread::scope(|s| {
            for _ in 0..4 {
                let all = &all;
                s.spawn(move || {
                    for &o in all {
                        db.components_of(o, &Filter::all()).unwrap();
                        db.ancestors_of(o, &Filter::all()).unwrap();
                    }
                });
            }
        });
    }

    // Phase 2: a writer deletes one root (the exclusive &mut borrow means
    // no reader can still be running — the type system is the lock).
    let deleted = db.delete(victim_root).unwrap();

    // Phase 3: readers must see the post-delete hierarchy everywhere.
    let db = &db;
    let survivors: Vec<Oid> = all.iter().copied().filter(|o| db.exists(*o)).collect();
    thread::scope(|s| {
        for _ in 0..4 {
            let (survivors, deleted) = (&survivors, &deleted);
            s.spawn(move || {
                for &o in survivors {
                    let comps = db.components_of(o, &Filter::all()).unwrap();
                    for d in deleted {
                        assert!(
                            !comps.contains(d),
                            "stale read: deleted {d} in components of {o}"
                        );
                    }
                    assert_eq!(
                        comps,
                        reference::components_of(db, o, &Filter::all()).unwrap()
                    );
                    let anc = db.ancestors_of(o, &Filter::all()).unwrap();
                    assert_eq!(anc, reference::ancestors_of(db, o, &Filter::all()).unwrap());
                }
            });
        }
    });
    for d in &doomed {
        if !db.exists(*d) {
            assert!(db.components_of(*d, &Filter::all()).is_err());
        }
    }
}
