//! Deadlock regression tests for the concurrent engine: a guaranteed
//! two-transaction cycle built from a root-lock order inversion, the
//! detector's exactly-one-victim guarantee, the typed retryable error,
//! and end-to-end progress of the [`ConcurrentDb::run_write`] retry
//! loop under sustained lock-order inversion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use corion::{ClassBuilder, ClassId, CompositeSpec, ConcurrentDb, DbError, Domain, Oid, Value};

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

/// Drive two transactions into a guaranteed waits-for cycle:
///
/// * thread 1 X-locks root `a` (by writing it), then — after the barrier
///   — tries to write root `b`;
/// * thread 2 X-locks root `b`, then tries to write root `a`.
///
/// The barrier sits between the first and second acquisition on both
/// sides, so each thread's second request must wait on the other's
/// granted first lock: a 2-cycle, every schedule, no timing luck.
/// Returns each thread's terminal result (first error or success)
/// without any retry.
fn run_inversion(cdb: &ConcurrentDb, a: Oid, b: Oid) -> (Result<(), DbError>, Result<(), DbError>) {
    let barrier = Arc::new(Barrier::new(2));
    let spawn = |first: Oid, second: Oid, name: &'static str| {
        let cdb = cdb.clone();
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || -> Result<(), DbError> {
            let mut txn = cdb.begin_write();
            txn.set_attr(first, "label", Value::Str(format!("{name}-first")))?;
            barrier.wait();
            let r = txn.set_attr(second, "label", Value::Str(format!("{name}-second")));
            match r {
                Ok(()) => {
                    txn.commit()?;
                    Ok(())
                }
                Err(e) => {
                    txn.abort();
                    Err(e)
                }
            }
        })
    };
    let h1 = spawn(a, b, "t1");
    let h2 = spawn(b, a, "t2");
    (h1.join().unwrap(), h2.join().unwrap())
}

#[test]
fn root_lock_order_inversion_aborts_exactly_one_victim() {
    let cdb = ConcurrentDb::new();
    let (_part, asm) = setup(&cdb);
    let a = mk_root(&cdb, asm, "a");
    let b = mk_root(&cdb, asm, "b");

    let (r1, r2) = run_inversion(&cdb, a, b);

    let deadlocks = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(DbError::Deadlock { .. })))
        .count();
    assert_eq!(deadlocks, 1, "exactly one victim, got t1={r1:?} t2={r2:?}");
    // The survivor completed its whole transaction.
    assert_eq!(
        [&r1, &r2].iter().filter(|r| r.is_ok()).count(),
        1,
        "the non-victim must commit, got t1={r1:?} t2={r2:?}"
    );

    // The victim's error is the typed, retryable kind and names a cycle.
    let victim_err = if r1.is_err() { r1 } else { r2 }.unwrap_err();
    assert!(victim_err.is_retryable(), "deadlock must invite a retry");
    assert!(!victim_err.is_transient(), "but it is not a storage fault");
    match &victim_err {
        DbError::Deadlock { cycle } => {
            assert!(!cycle.is_empty(), "the cycle diagnostic must be populated")
        }
        other => panic!("expected DbError::Deadlock, got {other:?}"),
    }

    // The victim's locks are gone: a fresh transaction can write both
    // roots immediately.
    cdb.run_write(|t| {
        t.set_attr(a, "label", Value::Str("after".into()))?;
        t.set_attr(b, "label", Value::Str("after".into()))
    })
    .unwrap();
}

#[test]
fn deadlock_metrics_count_the_victim() {
    let cdb = ConcurrentDb::new();
    let (_part, asm) = setup(&cdb);
    let a = mk_root(&cdb, asm, "a");
    let b = mk_root(&cdb, asm, "b");
    let before = cdb
        .metrics_snapshot()
        .counters
        .get("corion_mvcc_txn_deadlocks_total")
        .copied()
        .unwrap_or(0);
    let _ = run_inversion(&cdb, a, b);
    let after = cdb
        .metrics_snapshot()
        .counters
        .get("corion_mvcc_txn_deadlocks_total")
        .copied()
        .unwrap_or(0);
    assert_eq!(after, before + 1, "one victim, one deadlock tick");
}

#[test]
fn retry_loop_makes_progress_under_sustained_inversion() {
    // Both threads run the inverted-order update through `run_write`,
    // which absorbs deadlock-victim aborts and retries. Every iteration
    // must eventually succeed on both sides — the retry loop plus
    // victim-release guarantees global progress.
    let cdb = ConcurrentDb::new();
    let (_part, asm) = setup(&cdb);
    let a = mk_root(&cdb, asm, "a");
    let b = mk_root(&cdb, asm, "b");
    const ROUNDS: u64 = 15;
    let completed = Arc::new(AtomicU64::new(0));

    let spawn = |first: Oid, second: Oid, name: &'static str| {
        let cdb = cdb.clone();
        let completed = Arc::clone(&completed);
        thread::spawn(move || {
            for i in 0..ROUNDS {
                cdb.run_write(|t| {
                    t.set_attr(first, "label", Value::Str(format!("{name}-{i}")))?;
                    t.set_attr(second, "label", Value::Str(format!("{name}-{i}")))
                })
                .unwrap();
                completed.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let h1 = spawn(a, b, "t1");
    let h2 = spawn(b, a, "t2");
    h1.join().unwrap();
    h2.join().unwrap();
    assert_eq!(completed.load(Ordering::SeqCst), 2 * ROUNDS);

    // Both roots carry a final value from the last round of one thread:
    // the inversion never corrupted either composite.
    cdb.with_read(|db| {
        for &r in &[a, b] {
            let v = db.get_attr(r, "label").unwrap();
            let s = match v {
                Value::Str(s) => s,
                other => panic!("label must be a string, got {other:?}"),
            };
            let last = format!("{}", ROUNDS - 1);
            assert!(
                s.ends_with(&last),
                "final label {s} must come from the last round"
            );
        }
    });
}

#[test]
fn victim_transaction_handle_fails_fast_afterwards() {
    // After an abort-as-victim, the handle is done: further operations
    // and commit all fail with TransactionState, and abort is idempotent.
    let cdb = ConcurrentDb::new();
    let (_part, asm) = setup(&cdb);
    let a = mk_root(&cdb, asm, "a");
    let b = mk_root(&cdb, asm, "b");

    let barrier = Arc::new(Barrier::new(2));
    let cdb2 = cdb.clone();
    let barrier2 = Arc::clone(&barrier);
    let holder = thread::spawn(move || {
        let mut txn = cdb2.begin_write();
        txn.set_attr(b, "label", Value::Str("held".into())).unwrap();
        barrier2.wait();
        // Close the cycle from this side; either this blocks until the
        // main thread's victim releases, or it becomes the victim itself.
        let r = txn.set_attr(a, "label", Value::Str("held-2".into()));
        match r {
            Ok(()) => {
                txn.commit().unwrap();
                true
            }
            Err(_) => {
                txn.abort();
                false
            }
        }
    });

    let mut txn = cdb.begin_write();
    txn.set_attr(a, "label", Value::Str("mine".into())).unwrap();
    barrier.wait();
    let mine = txn.set_attr(b, "label", Value::Str("mine-2".into()));
    let other_won = holder.join().unwrap();
    match mine {
        Err(DbError::Deadlock { .. }) => {
            assert!(other_won, "if this side was the victim the other committed");
            // The handle is dead now.
            assert!(matches!(
                txn.set_attr(a, "label", Value::Str("zombie".into())),
                Err(DbError::TransactionState { .. })
            ));
            txn.abort();
            txn.abort(); // idempotent
            assert!(matches!(
                txn.commit(),
                Err(DbError::TransactionState { .. })
            ));
        }
        Ok(()) => {
            assert!(!other_won, "if this side won the other was the victim");
            txn.commit().unwrap();
        }
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn client_with_txn_absorbs_barrier_forced_inversions_through_the_wire() {
    // The same 2-cycle as `run_inversion`, driven through two `Client`s:
    // each round's first attempt parks both sessions between their first
    // and second root, so the server must pick a victim; the victim sees
    // the retryable `Deadlock` wire error and `with_txn` retries it
    // (pausing from the third attempt on) while the survivor commits.
    use corion::{AuthStore, Client, ErrorCode, Server, ServerConfig};

    let cdb = ConcurrentDb::new();
    let (_part, asm) = setup(&cdb);
    let a = mk_root(&cdb, asm, "a");
    let b = mk_root(&cdb, asm, "b");
    let server = Server::start(cdb.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    const ROUNDS: u64 = 10;
    // Two parties between the locks; two more at the end of a round, so
    // the survivor cannot start the next round's first lock while the
    // victim still retries this one.
    let between = Arc::new(Barrier::new(2));
    let round_end = Arc::new(Barrier::new(2));
    let victims = Arc::new(AtomicU64::new(0));

    let spawn = |first: Oid, second: Oid, name: &'static str| {
        let between = Arc::clone(&between);
        let round_end = Arc::clone(&round_end);
        let victims = Arc::clone(&victims);
        thread::spawn(move || {
            let mut client = Client::connect(addr, 0).unwrap();
            for i in 0..ROUNDS {
                let mut attempt = 0;
                client
                    .with_txn(8, |c| {
                        attempt += 1;
                        c.set_attr(first, "label", Value::Str(format!("{name}-{i}")))?;
                        if attempt == 1 {
                            between.wait();
                        }
                        c.set_attr(second, "label", Value::Str(format!("{name}-{i}")))
                            .inspect_err(|e| {
                                assert_eq!(e.code(), Some(ErrorCode::Deadlock), "{e}");
                                assert!(e.is_retryable());
                                victims.fetch_add(1, Ordering::SeqCst);
                            })
                    })
                    .unwrap();
                round_end.wait();
            }
        })
    };
    let h1 = spawn(a, b, "t1");
    let h2 = spawn(b, a, "t2");
    h1.join().unwrap();
    h2.join().unwrap();

    // At least the forced victim of each round. More when a retry
    // re-takes its first root before the parked survivor wakes and the
    // cycle closes again — the alternation the pause exists to break.
    assert!(victims.load(Ordering::SeqCst) >= ROUNDS);
    cdb.with_read(|db| {
        for &r in &[a, b] {
            match db.get_attr(r, "label").unwrap() {
                Value::Str(s) => assert!(s.ends_with(&format!("-{}", ROUNDS - 1)), "{s}"),
                other => panic!("label must be a string, got {other:?}"),
            }
        }
    });
    server.shutdown();
}
