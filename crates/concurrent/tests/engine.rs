//! Engine-level concurrency tests: genuine writer overlap on disjoint
//! composites, snapshot isolation, strict 2PL conflict behaviour, and
//! recovery fencing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use corion_concurrent::ConcurrentDb;
use corion_core::{ClassBuilder, ClassId, CompositeSpec, DbError, Domain, Oid, Value};

/// Assembly --exclusive/dependent--> set-of Part, plus a string on each.
fn setup(cdb: &ConcurrentDb) -> (ClassId, ClassId) {
    cdb.with_exclusive(|db| {
        let part = db
            .define_class(ClassBuilder::new("Part").attr("tag", Domain::String))
            .unwrap();
        let asm = db
            .define_class(
                ClassBuilder::new("Asm")
                    .attr("label", Domain::String)
                    .attr_composite(
                        "parts",
                        Domain::SetOf(Box::new(Domain::Class(part))),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    ),
            )
            .unwrap();
        (part, asm)
    })
}

fn mk_root(cdb: &ConcurrentDb, asm: ClassId, label: &str) -> Oid {
    cdb.run_write(|t| t.make(asm, vec![("label", Value::Str(label.into()))], vec![]))
        .unwrap()
}

#[test]
fn disjoint_composite_writers_overlap_in_time() {
    // Acceptance criterion: two writer threads on disjoint composites
    // commit concurrently — no serialization through a single `&mut`.
    // Txn A opens, writes, and *stays open* while txn B runs an entire
    // transaction (ops + commit) to completion on another thread.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root_a = mk_root(&cdb, asm, "A");
    let root_b = mk_root(&cdb, asm, "B");

    let mut txn_a = cdb.begin_write();
    txn_a
        .make(
            part,
            vec![("tag", Value::Str("a1".into()))],
            vec![(root_a, "parts")],
        )
        .unwrap();

    // While A is open (holding X on root_a and IXO on Part), B must be
    // able to run start-to-finish on root_b.
    let cdb2 = cdb.clone();
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let r = cdb2.run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("b1".into()))],
                vec![(root_b, "parts")],
            )
        });
        tx.send(()).unwrap();
        r.unwrap()
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("writer B must not block behind open writer A on a disjoint composite");
    let b_part = handle.join().unwrap();

    txn_a.commit().unwrap();
    cdb.with_read(|db| {
        assert!(db.exists(b_part));
        assert_eq!(db.components_of_snapshot_free(root_a).len(), 1);
    });
}

/// Helper used by the test above via `with_read`.
trait ComponentsFree {
    fn components_of_snapshot_free(&self, root: Oid) -> Vec<Oid>;
}
impl ComponentsFree for corion_core::Database {
    fn components_of_snapshot_free(&self, root: Oid) -> Vec<Oid> {
        self.get(root)
            .map(|o| o.attrs.iter().flat_map(|v| v.refs()).collect::<Vec<_>>())
            .unwrap_or_default()
    }
}

#[test]
fn same_root_writers_serialize() {
    // Two transactions on the SAME root conflict at the root instance
    // (X vs X): the second blocks until the first commits.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let mut txn_a = cdb.begin_write();
    txn_a.make(part, vec![], vec![(root, "parts")]).unwrap();

    let started = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicBool::new(false));
    let cdb2 = cdb.clone();
    let (s2, f2) = (Arc::clone(&started), Arc::clone(&finished));
    let handle = thread::spawn(move || {
        s2.store(true, Ordering::SeqCst);
        cdb2.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
            .unwrap();
        f2.store(true, Ordering::SeqCst);
    });

    while !started.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    thread::sleep(Duration::from_millis(100));
    assert!(
        !finished.load(Ordering::SeqCst),
        "same-root writer must block until the first commits"
    );
    txn_a.commit().unwrap();
    handle.join().unwrap();
    assert!(finished.load(Ordering::SeqCst));
    cdb.with_read(|db| {
        let root_obj = db.get(root).unwrap();
        let n: usize = root_obj.attrs.iter().map(|v| v.refs().len()).sum();
        assert_eq!(n, 2);
    });
}

#[test]
fn snapshots_are_stable_and_never_see_partial_state() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let p0 = cdb
        .run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("v0".into()))],
                vec![(root, "parts")],
            )
        })
        .unwrap();

    let snap = cdb.begin_read();
    assert_eq!(snap.get_attr(p0, "tag").unwrap(), Value::Str("v0".into()));

    // A multi-op transaction mutates tag AND adds a sibling.
    cdb.run_write(|t| {
        t.set_attr(p0, "tag", Value::Str("v1".into()))?;
        t.make(
            part,
            vec![("tag", Value::Str("new".into()))],
            vec![(root, "parts")],
        )
    })
    .unwrap();

    // The pinned snapshot still sees the old world, completely.
    assert_eq!(snap.get_attr(p0, "tag").unwrap(), Value::Str("v0".into()));
    assert_eq!(snap.components_of(root).unwrap().len(), 1);
    // A fresh snapshot sees the new world, completely.
    let now = cdb.begin_read();
    assert_eq!(now.get_attr(p0, "tag").unwrap(), Value::Str("v1".into()));
    assert_eq!(now.components_of(root).unwrap().len(), 2);
    assert!(now.lsn() > snap.lsn());
}

#[test]
fn snapshot_reads_do_not_block_on_an_open_writer() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let p = cdb
        .run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("x".into()))],
                vec![(root, "parts")],
            )
        })
        .unwrap();

    let snap = cdb.begin_read();
    // Writer holds X on root + IXO on Part and stays open.
    let mut txn = cdb.begin_write();
    txn.set_attr(p, "tag", Value::Str("y".into())).unwrap();

    // Snapshot reads of the same objects complete immediately (they
    // take no lock-manager locks).
    let (tx, rx) = mpsc::channel();
    let cdb2 = cdb.clone();
    let handle = thread::spawn(move || {
        let snap2 = cdb2.begin_read();
        let v = snap2.get_attr(p, "tag").unwrap();
        tx.send(v).unwrap();
    });
    let v = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("snapshot read must not block behind an open writer");
    assert_eq!(v, Value::Str("x".into()));
    handle.join().unwrap();
    assert_eq!(snap.get_attr(p, "tag").unwrap(), Value::Str("x".into()));
    txn.abort();
}

#[test]
fn in_transaction_reads_share_the_latch_with_other_readers() {
    // A transaction's traversal runs over its own view — overlay, then
    // base — under the *shared* latch, so it completes while another
    // thread sits inside `with_read`. (It used to mount the overlay in
    // the engine under the exclusive latch and would wait here.)
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let (inside_tx, inside_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let parked = {
        let cdb = cdb.clone();
        thread::spawn(move || {
            cdb.with_read(|_db| {
                inside_tx.send(()).unwrap();
                // Parked holding the shared latch until told otherwise.
                let _ = release_rx.recv_timeout(Duration::from_secs(30));
            })
        })
    };
    inside_rx.recv().unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let traversal = {
        let cdb = cdb.clone();
        thread::spawn(move || {
            let mut txn = cdb.begin_write();
            let fresh = txn
                .make(
                    part,
                    vec![("tag", Value::Str("p".into()))],
                    vec![(root, "parts")],
                )
                .unwrap();
            let below = txn
                .with_view(&[root], |mut v| corion_core::view::subtree_of(&mut v, root))
                .unwrap();
            done_tx.send((fresh, below)).unwrap();
            txn.abort();
        })
    };
    let finished = done_rx.recv_timeout(Duration::from_secs(10));
    release_tx.send(()).unwrap();
    parked.join().unwrap();
    traversal.join().unwrap();
    let (fresh, below) = finished.expect("the in-transaction traversal waited for a reader");
    assert_eq!(below, vec![root, fresh], "and it sees its own writes");
}

#[test]
fn aborted_transactions_leave_no_trace() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let mut txn = cdb.begin_write();
    let ghost = txn.make(part, vec![], vec![(root, "parts")]).unwrap();
    txn.abort();

    cdb.with_read(|db| assert!(!db.exists(ghost)));
    let snap = cdb.begin_read();
    assert!(!snap.exists(ghost).unwrap());
    assert_eq!(snap.components_of(root).unwrap().len(), 0);
}

#[test]
fn recover_fences_live_snapshots_and_transactions() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");

    let snap = cdb.begin_read();
    let mut txn = cdb.begin_write();
    txn.make(part, vec![], vec![(root, "parts")]).unwrap();

    cdb.recover().unwrap();

    assert!(matches!(
        snap.get(root),
        Err(DbError::TransactionState { .. })
    ));
    assert!(matches!(
        snap.subtree_of(root),
        Err(DbError::TransactionState { .. })
    ));
    assert!(matches!(
        txn.make(part, vec![], vec![(root, "parts")]),
        Err(DbError::TransactionState { .. })
    ));
    // New work proceeds normally.
    cdb.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
        .unwrap();
}

#[test]
fn a_fenced_snapshot_does_not_release_a_newer_pin_at_the_same_lsn() {
    let cdb = ConcurrentDb::new();
    let (_, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "before");

    let a = cdb.begin_read();
    cdb.recover().unwrap();
    let b = cdb.begin_read();
    assert_eq!(a.lsn(), b.lsn(), "recovery kept every commit");
    drop(a);
    assert_eq!(cdb.pinned_snapshots(), 1, "the fenced snapshot unpinned B");

    cdb.run_write(|t| t.set_attr(root, "label", Value::Str("after".into())))
        .unwrap();
    cdb.vacuum();
    assert_eq!(
        b.get_attr(root, "label").unwrap(),
        Value::Str("before".into()),
        "vacuum reclaimed the version B pinned"
    );
    drop(b);
    assert_eq!(cdb.pinned_snapshots(), 0);
}

#[test]
fn mvcc_and_txn_metrics_are_recorded() {
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let snap = cdb.begin_read();
    cdb.run_write(|t| t.make(part, vec![], vec![(root, "parts")]))
        .unwrap();
    drop(snap);

    let m = cdb.metrics_snapshot();
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert!(counter("corion_mvcc_txn_commits_total") >= 2);
    assert!(counter("corion_mvcc_versions_published_total") >= 1);
    assert!(counter("corion_mvcc_snapshots_total") >= 1);
    assert!(counter("corion_lock_acquires_total") >= 1);
}

#[test]
fn a_traversal_spanning_latch_batches_is_whole_and_counted_once() {
    // 600 leaves under one root: the walk re-takes the engine latch twice
    // on the way (every 256 objects) and must still list everything, with
    // a commit landing while the snapshot is pinned.
    const LEAVES: usize = 600;
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let leaves: Vec<Oid> = cdb
        .run_write(|t| {
            (0..LEAVES)
                .map(|_| t.make(part, vec![], vec![(root, "parts")]))
                .collect()
        })
        .unwrap();
    let snap = cdb.begin_read();
    cdb.run_write(|t| t.delete(leaves[300])).unwrap();

    let counter = |name: &str| {
        let m = cdb.metrics_snapshot();
        m.counters.get(name).copied().unwrap_or(0)
    };
    let before = [
        counter("corion_mvcc_snapshot_traversals_total"),
        counter("corion_mvcc_snapshot_objects_visited_total"),
        counter("corion_mvcc_snapshot_records_read_total"),
    ];
    let mut got = snap.subtree_of(root).unwrap();
    assert_eq!(got[0], root, "discovery order starts at the root");
    got.sort();
    let mut want = leaves.clone();
    want.push(root);
    want.sort();
    assert_eq!(got, want, "the pinned view still has the deleted leaf");
    assert_eq!(
        counter("corion_mvcc_snapshot_traversals_total") - before[0],
        1
    );
    assert_eq!(
        counter("corion_mvcc_snapshot_objects_visited_total") - before[1],
        LEAVES as u64 + 1
    );
    assert_eq!(
        counter("corion_mvcc_snapshot_records_read_total") - before[2],
        1,
        "only the root has a composite attribute; leaves are not read"
    );
    assert_eq!(cdb.begin_read().subtree_of(root).unwrap().len(), LEAVES);
}

#[test]
fn a_corrupt_leaf_page_fails_get_but_not_a_traversal_through_it() {
    // The documented consequence of the schema-aware leaf skip: a leaf's
    // record is not read by a walk, so rot in it surfaces where the leaf
    // itself is read and nowhere else.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    let leaf = cdb
        .run_write(|t| {
            t.make(
                part,
                vec![("tag", Value::Str("x".repeat(64)))],
                vec![(root, "parts")],
            )
        })
        .unwrap();
    cdb.vacuum();
    cdb.with_exclusive(|db| {
        db.checkpoint().unwrap();
        let pages = db.pages_of(db.segment_of(part).unwrap()).unwrap();
        for page in pages {
            db.corrupt_page_byte(page, 40, 0xff).unwrap();
        }
    });
    let snap = cdb.begin_read();
    assert!(snap.get(leaf).is_err(), "the leaf's own record is rotten");
    assert_eq!(snap.subtree_of(root).unwrap(), vec![root, leaf]);
    assert_eq!(snap.components_of(root).unwrap(), vec![leaf]);
}

#[test]
fn vacuum_reclaims_unpinned_versions() {
    let cdb = ConcurrentDb::new();
    let (_, asm) = setup(&cdb);
    let root = mk_root(&cdb, asm, "R");
    for i in 0..10 {
        cdb.run_write(|t| t.set_attr(root, "label", Value::Str(format!("v{i}"))))
            .unwrap();
    }
    let reclaimed = cdb.vacuum();
    assert!(reclaimed > 0, "unpinned version chains must be reclaimed");
    // After vacuum with no pins, reads still answer from the base.
    let snap = cdb.begin_read();
    assert_eq!(
        snap.get_attr(root, "label").unwrap(),
        Value::Str("v9".into())
    );
}

#[test]
fn barrier_stress_smoke_disjoint_roots() {
    // 4 threads, each owning its own root, hammering concurrently.
    let cdb = ConcurrentDb::new();
    let (part, asm) = setup(&cdb);
    let roots: Vec<Oid> = (0..4)
        .map(|i| mk_root(&cdb, asm, &format!("R{i}")))
        .collect();
    let barrier = Arc::new(Barrier::new(roots.len()));

    let handles: Vec<_> = roots
        .iter()
        .map(|&root| {
            let cdb = cdb.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..20 {
                    cdb.run_write(|t| {
                        let p = t.make(
                            part,
                            vec![("tag", Value::Str(format!("p{i}")))],
                            vec![(root, "parts")],
                        )?;
                        t.set_attr(p, "tag", Value::Str(format!("p{i}')")))
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    cdb.with_read(|db| {
        for &root in &roots {
            let n: usize = db
                .get(root)
                .unwrap()
                .attrs
                .iter()
                .map(|v| v.refs().len())
                .sum();
            assert_eq!(n, 20);
        }
    });
}
