//! Linearizability stress harness for the concurrent engine.
//!
//! N writer threads hammer a set of shared composite trees with random
//! operations (`make` under a root, parentless `make`, `set_attr`,
//! `delete`, `make_component`, and a `set_attr` the Make-Component Rule
//! must refuse half-way) through real [`corion::WriteTxn`]s, with
//! deadlock-victim retry. Every committed transaction logs its commit
//! LSN and the concrete operations it performed (actual OIDs minted) —
//! a refused operation is not one of them: the oracle never hears of it,
//! so it has to have been a no-op.
//!
//! Afterwards a **single-threaded oracle** replays the logged operations
//! in commit-LSN order against a fresh [`corion::Database`] — minting
//! the identical OIDs via `force_next_serial` — and the test asserts:
//!
//! 1. **Final-state equality**: the concurrent engine's committed base
//!    state equals the oracle's, object-for-object and byte-for-byte
//!    (strict 2PL + commit-LSN ordering ⇒ the log is a serialization).
//! 2. **Snapshot consistency**: every snapshot pinned *during* the run
//!    equals the oracle's replay of the prefix of transactions with
//!    commit LSN ≤ the snapshot's — snapshots never observe partial
//!    commits or torn prefixes.
//!
//! Schedule count and seeding are environment-controlled so CI can run
//! a wide sweep while the default test stays fast, and any failure is
//! replayable:
//!
//! * `CORION_LIN_SCHEDULES` — number of randomized schedules (default 8)
//! * `CORION_LIN_SEED` — run exactly one schedule with this seed
//! * `CORION_LIN_THREADS` — writer threads per schedule (default 4; CI
//!   also runs an 8-thread sweep to exercise the shared-latch execution
//!   path)
//!
//! On failure the harness prints the seed to rerun.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use corion::storage::Lsn;
use corion::{
    ClassBuilder, ClassId, CompositeSpec, ConcurrentDb, Database, DbError, Domain, Object, Oid,
    Snapshot, Value,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const ROOTS: usize = 3;
const TXNS_PER_THREAD: usize = 10;
const PINNED_SNAPSHOTS: usize = 8;

/// One committed operation, with the concrete OIDs the live run used.
#[derive(Debug, Clone)]
enum LoggedOp {
    /// `make` — `parent` is `None` for a parentless (free) part.
    Make {
        parent: Option<Oid>,
        serial: u64,
        tag: String,
        result: Oid,
    },
    SetLabel {
        root: Oid,
        value: String,
    },
    SetTag {
        part: Oid,
        value: String,
    },
    Delete {
        target: Oid,
    },
    Attach {
        child: Oid,
        parent: Oid,
    },
}

/// The schedule log: every committed transaction's LSN and operations.
type CommitLog = Arc<Mutex<Vec<(Lsn, Vec<LoggedOp>)>>>;

fn define_schema(db: &mut Database) -> (ClassId, ClassId) {
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
                        dependent: false,
                    },
                ),
        )
        .unwrap();
    (part, asm)
}

fn encode(obj: &Object) -> Vec<u8> {
    let mut buf = Vec::new();
    obj.encode(&mut buf);
    buf
}

/// Byte-exact dump of every live instance of the given classes.
fn fingerprint_db(db: &Database, classes: &[ClassId]) -> BTreeMap<Oid, Vec<u8>> {
    let mut out = BTreeMap::new();
    for &c in classes {
        for oid in db.instances_of(c, false) {
            out.insert(oid, encode(&db.get(oid).unwrap()));
        }
    }
    out
}

/// Same dump through a pinned snapshot.
fn fingerprint_snapshot(snap: &Snapshot, classes: &[ClassId]) -> BTreeMap<Oid, Vec<u8>> {
    let mut out = BTreeMap::new();
    for &c in classes {
        for oid in snap.instances_of(c, false).unwrap() {
            out.insert(oid, encode(&snap.get(oid).unwrap()));
        }
    }
    out
}

/// Replay the committed prefix with LSN ≤ `upto` in LSN order against a
/// fresh single-threaded engine, minting the recorded OIDs.
fn oracle_replay(log: &[(Lsn, Vec<LoggedOp>)], upto: Lsn) -> (Database, ClassId, ClassId) {
    let mut db = Database::new();
    let (part, asm) = define_schema(&mut db);
    let mut ordered: Vec<&(Lsn, Vec<LoggedOp>)> = log.iter().filter(|(l, _)| *l <= upto).collect();
    ordered.sort_by_key(|(l, _)| *l);
    for (lsn, ops) in ordered {
        for op in ops {
            match op {
                LoggedOp::Make {
                    parent,
                    serial,
                    tag,
                    result,
                } => {
                    db.force_next_serial(*serial);
                    let class = if result.class == part { part } else { asm };
                    let values = if class == part {
                        vec![("tag", Value::Str(tag.clone()))]
                    } else {
                        vec![("label", Value::Str(tag.clone()))]
                    };
                    let parents = match parent {
                        Some(p) => vec![(*p, "parts")],
                        None => vec![],
                    };
                    let got = db.make(class, values, parents).unwrap_or_else(|e| {
                        panic!("oracle replay of {op:?} at lsn {lsn} failed: {e}")
                    });
                    assert_eq!(got, *result, "oracle minted a different oid at lsn {lsn}");
                }
                LoggedOp::SetLabel { root, value } => {
                    db.set_attr(*root, "label", Value::Str(value.clone()))
                        .unwrap_or_else(|e| panic!("oracle replay of {op:?} failed: {e}"));
                }
                LoggedOp::SetTag { part, value } => {
                    db.set_attr(*part, "tag", Value::Str(value.clone()))
                        .unwrap_or_else(|e| panic!("oracle replay of {op:?} failed: {e}"));
                }
                LoggedOp::Delete { target } => {
                    db.delete(*target)
                        .unwrap_or_else(|e| panic!("oracle replay of {op:?} failed: {e}"));
                }
                LoggedOp::Attach { child, parent } => {
                    db.make_component(*child, *parent, "parts")
                        .unwrap_or_else(|e| panic!("oracle replay of {op:?} failed: {e}"));
                }
            }
        }
    }
    (db, part, asm)
}

/// The components of `root` as this transaction sees them (its own
/// overlay included), via the locking read path.
fn parts_of(txn: &mut corion::WriteTxn, root: Oid) -> Result<Vec<Oid>, DbError> {
    txn.with_view(&[root], |db| {
        let class = db.catalog().class(root.class)?;
        let obj = db.get(root)?;
        let mut out = Vec::new();
        for (def, value) in class.attrs.iter().zip(obj.attrs.iter()) {
            if def.composite.is_some() {
                out.extend(value.refs());
            }
        }
        Ok(out)
    })
}

/// A parentless Part instance, if any (transaction view).
fn free_part(txn: &mut corion::WriteTxn, part: ClassId, pick: u64) -> Result<Option<Oid>, DbError> {
    txn.with_view(&[], |db| {
        let free: Vec<Oid> = db
            .instances_of(part, false)
            .into_iter()
            .filter(|&o| {
                db.get(o)
                    .map(|obj| obj.composite_parents().is_empty())
                    .unwrap_or(false)
            })
            .collect();
        if free.is_empty() {
            Ok(None)
        } else {
            Ok(Some(free[(pick as usize) % free.len()]))
        }
    })
}

/// What one transaction intends to do (targets resolved at run time).
#[derive(Clone, Copy)]
enum PlanKind {
    MakeUnderRoot,
    MakeFree,
    SetLabel,
    SetTag,
    DeletePart,
    AttachFree,
    /// Rewrite the root's `parts` to adopt a free part *and* a part some
    /// other root owns exclusively: the engine attaches one, is refused
    /// on the other, and must leave nothing behind.
    AdoptOwned,
}

/// Run one transaction attempt; `Ok(Some(ops))` on commit-worthy
/// execution, `Ok(None)` when the schedule made the op semantically
/// impossible (abort, skip this transaction).
fn run_txn_once(
    cdb: &ConcurrentDb,
    part: ClassId,
    roots: &[Oid],
    plans: &[(PlanKind, usize, u64, String)],
) -> Result<Option<(Lsn, Vec<LoggedOp>)>, DbError> {
    let mut txn = cdb.begin_write();
    let mut logged = Vec::new();
    for (kind, root_idx, pick, text) in plans {
        let root = roots[*root_idx];
        let r: Result<(), DbError> = match kind {
            PlanKind::MakeUnderRoot => txn
                .make(
                    part,
                    vec![("tag", Value::Str(text.clone()))],
                    vec![(root, "parts")],
                )
                .map(|oid| {
                    logged.push(LoggedOp::Make {
                        parent: Some(root),
                        serial: oid.serial,
                        tag: text.clone(),
                        result: oid,
                    });
                }),
            PlanKind::MakeFree => txn
                .make(part, vec![("tag", Value::Str(text.clone()))], vec![])
                .map(|oid| {
                    logged.push(LoggedOp::Make {
                        parent: None,
                        serial: oid.serial,
                        tag: text.clone(),
                        result: oid,
                    });
                }),
            PlanKind::SetLabel => txn
                .set_attr(root, "label", Value::Str(text.clone()))
                .map(|()| {
                    logged.push(LoggedOp::SetLabel {
                        root,
                        value: text.clone(),
                    });
                }),
            PlanKind::SetTag => {
                let comps = parts_of(&mut txn, root)?;
                if comps.is_empty() {
                    continue; // nothing to retag under this root
                }
                let target = comps[(*pick as usize) % comps.len()];
                txn.set_attr(target, "tag", Value::Str(text.clone()))
                    .map(|()| {
                        logged.push(LoggedOp::SetTag {
                            part: target,
                            value: text.clone(),
                        });
                    })
            }
            PlanKind::DeletePart => {
                let comps = parts_of(&mut txn, root)?;
                if comps.is_empty() {
                    continue;
                }
                let target = comps[(*pick as usize) % comps.len()];
                txn.delete(target).map(|_| {
                    logged.push(LoggedOp::Delete { target });
                })
            }
            PlanKind::AttachFree => {
                let Some(child) = free_part(&mut txn, part, *pick)? else {
                    continue; // no orphan to adopt right now
                };
                // The scan locked no part: a concurrent commit may have
                // adopted `child` into this very root since, making the
                // attach a no-op — an empty write set, which shares the
                // watermark's LSN. Under the root's read lock the answer
                // holds until commit.
                if parts_of(&mut txn, root)?.contains(&child) {
                    continue;
                }
                txn.make_component(child, root, "parts").map(|()| {
                    logged.push(LoggedOp::Attach {
                        child,
                        parent: root,
                    });
                })
            }
            PlanKind::AdoptOwned => {
                let other = roots[(*root_idx + 1) % roots.len()];
                let owned = parts_of(&mut txn, other)?;
                let (Some(free), false) = (free_part(&mut txn, part, *pick)?, owned.is_empty())
                else {
                    continue;
                };
                let mut wanted = parts_of(&mut txn, root)?;
                wanted.extend([free, owned[(*pick as usize) % owned.len()]]);
                let wanted = Value::Set(wanted.into_iter().map(Value::Ref).collect());
                match txn.set_attr(root, "parts", wanted) {
                    Ok(()) => panic!("{other} owns that part exclusively: adopting it must fail"),
                    Err(e) if e.is_retryable() => Err(e),
                    // Refused, nothing logged; the transaction goes on.
                    Err(_) => Ok(()),
                }
            }
        };
        if let Err(e) = r {
            txn.abort();
            return Err(e);
        }
    }
    let lsn = txn.commit()?;
    if logged.is_empty() {
        // A transaction whose every op was skipped commits an empty
        // write set: it gets no fresh LSN (the watermark is returned)
        // and contributes nothing to the serialization.
        return Ok(None);
    }
    Ok(Some((lsn, logged)))
}

fn run_schedule(seed: u64) {
    let cdb = ConcurrentDb::new();
    let (part, asm) = cdb.with_exclusive(define_schema);
    let log: CommitLog = Arc::new(Mutex::new(Vec::new()));

    // Roots go through the same logged-commit machinery as everything
    // else so the oracle rebuilds them identically.
    let mut roots = Vec::new();
    for i in 0..ROOTS {
        // Roots are Asm instances: make them directly (the plan enum only
        // mints Parts), logging by hand.
        let mut txn = cdb.begin_write();
        let oid = txn
            .make(
                asm,
                vec![("label", Value::Str(format!("root-{i}")))],
                vec![],
            )
            .unwrap();
        let lsn = txn.commit().unwrap();
        log.lock().unwrap().push((
            lsn,
            vec![LoggedOp::Make {
                parent: None,
                serial: oid.serial,
                tag: format!("root-{i}"),
                result: oid,
            }],
        ));
        roots.push(oid);
    }

    // Snapshot pinner: pins up to PINNED_SNAPSHOTS consistent views at
    // staggered moments while the writers run.
    let done = Arc::new(AtomicBool::new(false));
    let pinner = {
        let cdb = cdb.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut pinned = Vec::new();
            while pinned.len() < PINNED_SNAPSHOTS && !done.load(Ordering::SeqCst) {
                pinned.push(cdb.begin_read());
                thread::sleep(Duration::from_millis(2));
            }
            pinned
        })
    };

    let writers: Vec<_> = (0..threads_from_env())
        .map(|t| {
            let cdb = cdb.clone();
            let roots = roots.clone();
            let log = Arc::clone(&log);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37 + t as u64));
                for txn_no in 0..TXNS_PER_THREAD {
                    // Draw this transaction's plan.
                    let n_ops = rng.gen_range(1..=2usize);
                    let plans: Vec<(PlanKind, usize, u64, String)> = (0..n_ops)
                        .map(|op_no| {
                            let kind = match rng.gen_range(0..14u32) {
                                0..=3 => PlanKind::MakeUnderRoot,
                                4 => PlanKind::MakeFree,
                                5..=6 => PlanKind::SetLabel,
                                7..=8 => PlanKind::SetTag,
                                9..=10 => PlanKind::DeletePart,
                                11 => PlanKind::AttachFree,
                                _ => PlanKind::AdoptOwned,
                            };
                            (
                                kind,
                                rng.gen_range(0..ROOTS),
                                rng.gen::<u64>(),
                                format!("t{t}-x{txn_no}-o{op_no}"),
                            )
                        })
                        .collect();
                    // Execute with deadlock retry; give up on semantic
                    // errors (the colliding schedule made the op invalid —
                    // the transaction aborted, nothing was logged).
                    let mut attempts = 0;
                    loop {
                        match run_txn_once(&cdb, part, &roots, &plans) {
                            Ok(Some(entry)) => {
                                log.lock().unwrap().push(entry);
                                break;
                            }
                            Ok(None) => break,
                            Err(e) if e.is_retryable() && attempts < 64 => {
                                attempts += 1;
                                thread::yield_now();
                            }
                            Err(_) => break,
                        }
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    let pinned = pinner.join().unwrap();

    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();

    // Commit LSNs are unique: the log is a total order.
    let mut lsns: Vec<Lsn> = log.iter().map(|(l, _)| *l).collect();
    lsns.sort();
    let n = lsns.len();
    lsns.dedup();
    if lsns.len() != n {
        let mut seen = std::collections::HashSet::new();
        for (l, ops) in &log {
            if !seen.insert(*l) {
                let twins: Vec<_> = log.iter().filter(|(x, _)| x == l).collect();
                panic!("duplicate commit LSN {l}: {twins:?} (second was {ops:?})");
            }
        }
    }

    // 1. Final-state equality against the full oracle replay.
    let (oracle, o_part, o_asm) = oracle_replay(&log, Lsn::MAX);
    assert_eq!((o_part, o_asm), (part, asm), "oracle schema diverged");
    let expected = fingerprint_db(&oracle, &[asm, part]);
    let actual = cdb.with_read(|db| fingerprint_db(db, &[asm, part]));
    assert_eq!(
        actual, expected,
        "concurrent final state is not the LSN-order serialization"
    );

    // 2. Every pinned snapshot equals the oracle's prefix replay.
    for snap in &pinned {
        let (prefix, _, _) = oracle_replay(&log, snap.lsn());
        let expected = fingerprint_db(&prefix, &[asm, part]);
        let actual = fingerprint_snapshot(snap, &[asm, part]);
        assert_eq!(
            actual,
            expected,
            "snapshot at lsn {} does not match its commit-prefix",
            snap.lsn()
        );
    }
}

/// Writer threads per schedule (`CORION_LIN_THREADS`, default 4).
fn threads_from_env() -> usize {
    std::env::var("CORION_LIN_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

fn schedules_from_env() -> Vec<u64> {
    if let Ok(seed) = std::env::var("CORION_LIN_SEED") {
        let seed: u64 = seed.parse().expect("CORION_LIN_SEED must be a u64");
        return vec![seed];
    }
    let n: u64 = std::env::var("CORION_LIN_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    (0..n).map(|i| 0xC0_51_0D ^ (i * 0x9E37_79B9)).collect()
}

#[test]
fn randomized_schedules_are_linearizable() {
    for seed in schedules_from_env() {
        let r = panic::catch_unwind(AssertUnwindSafe(|| run_schedule(seed)));
        if let Err(payload) = r {
            eprintln!(
                "linearizability failure — rerun just this schedule with CORION_LIN_SEED={seed}"
            );
            panic::resume_unwind(payload);
        }
    }
}

#[test]
fn deterministic_replay_mode_smoke() {
    // The CORION_LIN_SEED path must work even when the env var is not
    // set: run one named schedule directly (the seed printed by a CI
    // failure feeds straight into run_schedule).
    run_schedule(424242);
}
