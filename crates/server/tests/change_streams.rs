//! The change stream, in process: what a commit releases, to whom, and
//! what it costs when nobody listens.
//!
//! Two properties carry the stream's contract (DESIGN.md §15):
//!
//! * **Content** — whatever route wrote a batch (autocommit `Database`
//!   calls, `Database::transaction`, `WriteTxn`, `make_many`, cascades,
//!   orphan handling, relocating and chaining rewrites, `repair()`), the
//!   change set released for it maps to exactly
//!   `diff_objects(all objects before, all objects after)`, and work that
//!   never became durable releases nothing.
//! * **No gaps** — a subscriber sees every commit made while it was
//!   attached, once, in commit order, however commits, checkpoints (which
//!   rewrite the log) and other subscribers' attaches and detaches
//!   interleave.
//!
//! And one property ties the stream to the committers: the LSN a commit
//! answers is the `commit_lsn` of the event that carried its writes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use corion_concurrent::{ChangeSink, ConcurrentDb, WriteTxn};
use corion_core::{
    AttributeDef, ChangeSet, ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError,
    DbResult, Domain, MakeSpec, Object, Oid, OrphanPolicy, ParentRef, ReverseRef, Value,
};
use corion_obs::Registry;
use corion_protocol::Delta;
use corion_server::metrics::ServerMetrics;
use corion_server::stream::{deltas_of, diff_objects, ChangeStreams, StreamEvent};
use corion_storage::{Lsn, StoreConfig};
use parking_lot::Mutex;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// World
// ---------------------------------------------------------------------

/// `Node (n: int, text: string, kids: set-of Node — shared, dependent —,
/// buddy: Node)`, four seed nodes; and `Leaf (n: int)`, in no hierarchy,
/// for the one step that needs two writers to hold locks side by side
/// (shared composite references admit one writer per class, §7).
fn node_db(config: DbConfig) -> (ConcurrentDb, ClassId) {
    let mut db = Database::with_config(config);
    let node = db
        .define_class(
            ClassBuilder::new("Node")
                .attr("n", Domain::Integer)
                .attr("text", Domain::String),
        )
        .unwrap();
    db.add_attribute(
        node,
        AttributeDef::composite(
            "kids",
            Domain::SetOf(Box::new(Domain::Class(node))),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ),
    )
    .unwrap();
    db.add_attribute(node, AttributeDef::plain("buddy", Domain::Class(node)))
        .unwrap();
    for i in 0..4 {
        db.make(node, vec![("n", Value::Int(i))], vec![]).unwrap();
    }
    db.define_class(ClassBuilder::new("Leaf").attr("n", Domain::Integer))
        .unwrap();
    (ConcurrentDb::from_database(db), node)
}

/// Every live object's stored image (both classes).
fn all_objects(db: &ConcurrentDb, node: ClassId) -> BTreeMap<Oid, Object> {
    db.with_read(|d| {
        let leaf = d.class_by_name("Leaf").unwrap();
        [node, leaf]
            .into_iter()
            .flat_map(|class| d.instances_of(class, false))
            .map(|oid| (oid, d.get(oid).unwrap()))
            .collect()
    })
}

/// A sink that keeps what it is handed.
#[derive(Default)]
struct Recorder(Mutex<Vec<ChangeSet>>);

impl ChangeSink for Recorder {
    fn deliver(&self, _db: &Database, set: ChangeSet) {
        self.0.lock().push(set);
    }
}

// ---------------------------------------------------------------------
// Operations, and the two interpreters (engine calls / `WriteTxn` calls)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Make(i64),
    MakeChild {
        parent: usize,
    },
    SetInt {
        obj: usize,
        v: i64,
    },
    /// Past the free space of a shared page the record relocates; past
    /// 4 KiB it becomes an overflow chain. Neither may show in an event.
    Grow {
        obj: usize,
        len: usize,
    },
    /// Cascades through dependent kids (Deletion Rule).
    Delete {
        obj: usize,
    },
    Attach {
        child: usize,
        parent: usize,
    },
    /// Orphan policy applies to the detached child.
    Detach {
        child: usize,
        parent: usize,
    },
    SetBuddy {
        obj: usize,
        target: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<i64>().prop_map(Op::Make),
        4 => (0..64usize).prop_map(|parent| Op::MakeChild { parent }),
        3 => (0..64usize, any::<i64>()).prop_map(|(obj, v)| Op::SetInt { obj, v }),
        3 => (0..64usize, 0..9000usize).prop_map(|(obj, len)| Op::Grow { obj, len }),
        2 => (0..64usize).prop_map(|obj| Op::Delete { obj }),
        3 => (0..64usize, 0..64usize).prop_map(|(child, parent)| Op::Attach { child, parent }),
        3 => (0..64usize, 0..64usize).prop_map(|(child, parent)| Op::Detach { child, parent }),
        1 => (0..64usize, 0..64usize).prop_map(|(obj, target)| Op::SetBuddy { obj, target }),
    ]
}

fn pick(live: &[Oid], i: usize) -> Option<Oid> {
    (!live.is_empty()).then(|| live[i % live.len()])
}

/// Semantic rejections (cycles, topology rules, a target deleted earlier
/// in the same group) are part of the semantics; the property must hold
/// whatever they leave behind.
fn apply_db(d: &mut Database, node: ClassId, op: &Op) {
    let live = d.instances_of(node, false);
    let p = |i| pick(&live, i);
    let _ = match *op {
        Op::Make(v) => d.make(node, vec![("n", Value::Int(v))], vec![]).map(drop),
        Op::MakeChild { parent } => p(parent).map_or(Ok(()), |o| {
            d.make(node, vec![], vec![(o, "kids")]).map(drop)
        }),
        Op::SetInt { obj, v } => p(obj).map_or(Ok(()), |o| d.set_attr(o, "n", Value::Int(v))),
        Op::Grow { obj, len } => p(obj).map_or(Ok(()), |o| {
            d.set_attr(o, "text", Value::Str("g".repeat(len)))
        }),
        Op::Delete { obj } => p(obj).map_or(Ok(()), |o| d.delete(o).map(drop)),
        Op::Attach { child, parent } => match (p(child), p(parent)) {
            (Some(c), Some(q)) => d.make_component(c, q, "kids"),
            _ => Ok(()),
        },
        Op::Detach { child, parent } => match (p(child), p(parent)) {
            (Some(c), Some(q)) => d.remove_component(c, q, "kids"),
            _ => Ok(()),
        },
        Op::SetBuddy { obj, target } => match (p(obj), p(target)) {
            (Some(o), Some(t)) => d.set_attr(o, "buddy", Value::Ref(t)),
            _ => Ok(()),
        },
    };
}

/// The same operation through a write transaction. `live` is the
/// committed population at begin (a transaction's own makes are not
/// addressed by later operations of the group).
fn apply_txn(t: &mut WriteTxn, node: ClassId, live: &[Oid], op: &Op) -> DbResult<()> {
    let p = |i| pick(live, i);
    let done = match *op {
        Op::Make(v) => t.make(node, vec![("n", Value::Int(v))], vec![]).map(drop),
        Op::MakeChild { parent } => p(parent).map_or(Ok(()), |o| {
            t.make(node, vec![], vec![(o, "kids")]).map(drop)
        }),
        Op::SetInt { obj, v } => p(obj).map_or(Ok(()), |o| t.set_attr(o, "n", Value::Int(v))),
        Op::Grow { obj, len } => p(obj).map_or(Ok(()), |o| {
            t.set_attr(o, "text", Value::Str("g".repeat(len)))
        }),
        Op::Delete { obj } => p(obj).map_or(Ok(()), |o| t.delete(o).map(drop)),
        Op::Attach { child, parent } => match (p(child), p(parent)) {
            (Some(c), Some(q)) => t.make_component(c, q, "kids"),
            _ => Ok(()),
        },
        Op::Detach { child, parent } => match (p(child), p(parent)) {
            (Some(c), Some(q)) => t.remove_component(c, q, "kids"),
            _ => Ok(()),
        },
        Op::SetBuddy { obj, target } => match (p(obj), p(target)) {
            (Some(o), Some(q)) => t.set_attr(o, "buddy", Value::Ref(q)),
            _ => Ok(()),
        },
    };
    match done {
        // Only these end the transaction; a semantic rejection does not.
        Err(e @ (DbError::Deadlock { .. } | DbError::TransactionState { .. })) => Err(e),
        _ => Ok(()),
    }
}

/// One storage batch (or none), by route.
#[derive(Debug, Clone)]
enum Step {
    /// An autocommit engine call under `with_exclusive`.
    Auto(Op),
    /// `Database::transaction`, committed or rolled back.
    CoreTxn {
        ops: Vec<Op>,
        commit: bool,
    },
    /// A `WriteTxn`, committed or aborted.
    Write {
        ops: Vec<Op>,
        commit: bool,
    },
    /// Two `WriteTxn`s forced into a lock cycle: one victim, one commit.
    Deadlock,
    /// `make_many`: a root, `kids` children under it, the root under an
    /// existing node.
    MakeMany {
        under: usize,
        kids: usize,
    },
    /// Reverse-reference rot through the raw surgery hook.
    Rot {
        obj: usize,
        ghost: u64,
    },
    Repair,
    Checkpoint,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let group = || prop::collection::vec(op_strategy(), 1..4);
    prop_oneof![
        8 => op_strategy().prop_map(Step::Auto),
        3 => (group(), any::<bool>()).prop_map(|(ops, commit)| Step::CoreTxn { ops, commit }),
        5 => (group(), any::<bool>()).prop_map(|(ops, commit)| Step::Write { ops, commit }),
        1 => Just(Step::Deadlock),
        2 => (0..64usize, 0..4usize).prop_map(|(under, kids)| Step::MakeMany { under, kids }),
        1 => (0..64usize, 1..1000u64).prop_map(|(obj, ghost)| Step::Rot { obj, ghost }),
        1 => Just(Step::Repair),
        1 => Just(Step::Checkpoint),
    ]
}

/// Runs the guaranteed two-cycle of `tests/deadlock.rs` on `a` and `b`:
/// each thread writes one, meets the other at the barrier, writes the
/// other. Exactly one is the victim.
fn run_inversion(db: &ConcurrentDb, a: Oid, b: Oid) {
    let barrier = Barrier::new(2);
    let outcomes = std::thread::scope(|s| {
        let spawn = |first: Oid, second: Oid, v: i64| {
            let barrier = &barrier;
            s.spawn(move || -> DbResult<()> {
                let mut txn = db.begin_write();
                txn.set_attr(first, "n", Value::Int(v))?;
                barrier.wait();
                txn.set_attr(second, "n", Value::Int(v))?;
                txn.commit().map(drop)
            })
        };
        let (t1, t2) = (spawn(a, b, 1), spawn(b, a, 2));
        [t1.join().unwrap(), t2.join().unwrap()]
    });
    let victims = outcomes
        .iter()
        .filter(|r| matches!(r, Err(DbError::Deadlock { .. })))
        .count();
    assert_eq!(victims, 1, "{outcomes:?}");
    assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 1);
}

/// The harness: runs one batch at a time and checks what was released
/// against the reference diff.
struct World {
    db: ConcurrentDb,
    node: ClassId,
    sink: Arc<Recorder>,
    /// All objects as of the last log sync — the state the next released
    /// set is a diff against.
    durable: BTreeMap<Oid, Object>,
    last_lsn: Lsn,
    sets_seen: usize,
}

impl World {
    fn new(config: DbConfig) -> World {
        let (db, node) = node_db(config);
        let sink = Arc::new(Recorder::default());
        db.set_change_sink(Arc::clone(&sink) as Arc<dyn ChangeSink>);
        let last_lsn = db.with_read(|d| {
            d.set_change_capture(true);
            d.durable_commit_lsn()
        });
        World {
            durable: all_objects(&db, node),
            db,
            node,
            sink,
            last_lsn,
            sets_seen: 0,
        }
    }

    fn flushes(&self) -> u64 {
        self.db.with_read(|d| d.wal_stats().flushes)
    }

    /// Runs `f` — at most one storage batch — and checks the release.
    fn batch(&mut self, what: &Step, f: impl FnOnce(&ConcurrentDb, ClassId)) -> Result<(), String> {
        let flushes = self.flushes();
        f(&self.db, self.node);
        let synced = self.flushes() - flushes;
        let released: Vec<ChangeSet> = std::mem::take(&mut *self.sink.0.lock());
        if synced == 0 {
            // Aborted, or rejected before any write: nothing is durable,
            // so nothing is out.
            return match released.is_empty() {
                true => Ok(()),
                false => Err(format!(
                    "{what:?}: released {released:?} without a log sync"
                )),
            };
        }
        if synced > 1 {
            return Err(format!("{what:?}: {synced} log syncs in one batch"));
        }
        let now = all_objects(&self.db, self.node);
        let want = diff_objects(&self.durable, &now);
        let got: Vec<Vec<Delta>> = released.iter().map(|s| deltas_of(&s.changes)).collect();
        let want_sets: Vec<Vec<Delta>> = if want.is_empty() { vec![] } else { vec![want] };
        if got != want_sets {
            return Err(format!(
                "{what:?}: released {got:?}, reference {want_sets:?}"
            ));
        }
        for set in &released {
            if set.commit_lsn <= self.last_lsn {
                return Err(format!(
                    "{what:?}: commit LSN {} after {}",
                    set.commit_lsn, self.last_lsn
                ));
            }
            self.last_lsn = set.commit_lsn;
        }
        self.sets_seen += released.len();
        self.durable = now;
        Ok(())
    }

    fn run(&mut self, step: &Step) -> Result<(), String> {
        match step {
            Step::Auto(op) => self.batch(step, |db, node| {
                db.with_exclusive(|d| apply_db(d, node, op));
            }),
            Step::CoreTxn { ops, commit } => self.batch(step, |db, node| {
                let _ = db.with_exclusive(|d| {
                    d.transaction(|d| {
                        ops.iter().for_each(|op| apply_db(d, node, op));
                        match commit {
                            true => Ok(()),
                            false => Err(DbError::TransactionState {
                                reason: "the test rolls this one back".into(),
                            }),
                        }
                    })
                });
            }),
            Step::Write { ops, commit } => self.batch(step, |db, node| {
                let live = db.with_read(|d| d.instances_of(node, false));
                let mut txn = db.begin_write();
                if ops
                    .iter()
                    .try_for_each(|op| apply_txn(&mut txn, node, &live, op))
                    .is_err()
                {
                    return;
                }
                match commit {
                    true => drop(txn.commit()),
                    false => txn.abort(),
                }
            }),
            Step::Deadlock => {
                let leaf = self.db.with_read(|d| d.class_by_name("Leaf")).unwrap();
                let mut leaves = Vec::new();
                for _ in 0..2 {
                    self.batch(step, |db, _| {
                        leaves.push(db.run_write(|t| t.make(leaf, vec![], vec![])).unwrap());
                    })?;
                }
                self.batch(step, |db, _| run_inversion(db, leaves[0], leaves[1]))
            }
            Step::MakeMany { under, kids } => self.batch(step, |db, node| {
                db.with_exclusive(|d| {
                    let live = d.instances_of(node, false);
                    let mut root = MakeSpec::new(node).value("n", Value::Int(7));
                    if let Some(parent) = pick(&live, *under) {
                        root = root.parent(ParentRef::Existing(parent), "kids");
                    }
                    let mut specs = vec![root];
                    specs.extend(
                        (0..*kids)
                            .map(|_| MakeSpec::new(node).parent(ParentRef::Created(0), "kids")),
                    );
                    d.make_many(&specs).unwrap();
                });
            }),
            Step::Rot { obj, ghost } => self.batch(step, |db, node| {
                db.with_exclusive(|d| {
                    let live = d.instances_of(node, false);
                    if let Some(oid) = pick(&live, *obj) {
                        let mut image = d.get(oid).unwrap();
                        let ghost = Oid::new(node, 1_000_000 + ghost);
                        image
                            .reverse_refs
                            .push(ReverseRef::new(ghost, false, false));
                        d.raw_overwrite_object(&image).unwrap();
                    }
                });
            }),
            Step::Repair => self.batch(step, |db, _| {
                db.with_exclusive(|d| d.repair().map(drop)).unwrap();
            }),
            Step::Checkpoint => self.batch(step, |db, _| {
                db.with_exclusive(|d| d.checkpoint()).unwrap();
            }),
        }
    }
}

fn config(orphans_survive: bool) -> DbConfig {
    DbConfig {
        orphan_policy: match orphans_survive {
            true => OrphanPolicy::KeepOrphans,
            false => OrphanPolicy::DeleteDependentOrphans,
        },
        ..DbConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Invariant (c) of DESIGN.md §15, and (a) for aborted work: one set
    /// per durable batch that changed an object, equal to the reference
    /// diff of the states around it, whatever route wrote it.
    #[test]
    fn released_change_sets_equal_the_reference_diff_on_every_route(
        steps in prop::collection::vec(step_strategy(), 1..14),
        orphans_survive in any::<bool>(),
    ) {
        let mut world = World::new(config(orphans_survive));
        for step in &steps {
            if let Err(why) = world.run(step) {
                prop_assert!(false, "{why}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// No gaps
// ---------------------------------------------------------------------

/// An engine that checkpoints by itself every few commits, its stream
/// wired to a fresh `ChangeStreams`.
fn streamed_db(
    queue_depth: usize,
    wal_checkpoint_bytes: usize,
) -> (
    ConcurrentDb,
    ClassId,
    Arc<ChangeStreams>,
    Arc<ServerMetrics>,
) {
    let (db, node) = node_db(DbConfig {
        store: StoreConfig {
            wal_checkpoint_bytes,
            ..StoreConfig::default()
        },
        ..DbConfig::default()
    });
    let metrics = Arc::new(ServerMetrics::new(&Registry::new()));
    let streams = ChangeStreams::new(queue_depth, Arc::clone(&metrics));
    db.set_change_sink(Arc::clone(&streams) as Arc<dyn ChangeSink>);
    (db, node, streams, metrics)
}

/// Commits one `make` and returns the commit's own LSN.
fn commit(db: &ConcurrentDb, node: ClassId, n: i64) -> Lsn {
    let mut txn = db.begin_write();
    txn.make(node, vec![("n", Value::Int(n))], vec![]).unwrap();
    txn.commit().unwrap()
}

fn lsns(events: impl IntoIterator<Item = StreamEvent>) -> Vec<Lsn> {
    events.into_iter().map(|e| e.commit_lsn).collect()
}

#[derive(Debug, Clone)]
enum Traffic {
    Commit,
    Checkpoint,
    Attach,
    Detach(usize),
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// "No gaps while connected" (docs/PROTOCOL.md §5), invariant (b): each
    /// subscriber sees every commit with `start_lsn < lsn ≤` its last
    /// event, once, in order — across explicit checkpoints, the automatic
    /// one a zero threshold forces after *every* commit, and other
    /// subscribers coming and going.
    #[test]
    fn every_subscriber_sees_every_commit_made_while_it_was_attached(
        traffic in prop::collection::vec(
            prop_oneof![
                6 => Just(Traffic::Commit),
                1 => Just(Traffic::Checkpoint),
                2 => Just(Traffic::Attach),
                1 => (0..8usize).prop_map(Traffic::Detach),
            ],
            1..60,
        ),
    ) {
        let (db, node, streams, metrics) = streamed_db(4096, 0);
        let mut committed: Vec<Lsn> = Vec::new();
        let mut attached = Vec::new();
        let checkpoints = || db.with_read(|d| d.wal_stats().checkpoints);
        let before = checkpoints();
        let check = |sub: corion_server::stream::Subscription, committed: &[Lsn]| {
            let want: Vec<Lsn> = committed.iter().copied().filter(|&l| l > sub.start_lsn).collect();
            prop_assert_eq!(lsns(sub.events.try_iter()), want, "start_lsn {}", sub.start_lsn);
            Ok(())
        };
        for (i, t) in traffic.iter().enumerate() {
            match t {
                Traffic::Commit => committed.push(commit(&db, node, i as i64)),
                Traffic::Checkpoint => db.with_exclusive(|d| d.checkpoint()).unwrap(),
                Traffic::Attach => attached.push(streams.subscribe(&db)),
                Traffic::Detach(at) if !attached.is_empty() => {
                    let sub = attached.swap_remove(at % attached.len());
                    check(sub, &committed)?;
                }
                Traffic::Detach(_) => {}
            }
            prop_assert_eq!(streams.subscriber_count(), attached.len());
            prop_assert_eq!(metrics.streams_active.get(), attached.len() as i64);
        }
        for sub in attached {
            check(sub, &committed)?;
        }
        prop_assert!(committed.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(
            checkpoints() - before >= committed.len() as u64,
            "the log was to be rewritten after every commit"
        );
    }
}

/// One step of the commit-LSN property below.
#[derive(Debug, Clone)]
enum Route {
    /// A `WriteTxn` running these operations, committed.
    Txn(Vec<Op>),
    /// A `WriteTxn` that writes nothing, committed.
    Empty,
    /// An autocommit engine call under `with_exclusive` (the DDL and
    /// maintenance route).
    Exclusive(Op),
    Checkpoint,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One LSN domain (DESIGN.md §14.4): the LSN `WriteTxn::commit`
    /// answers — the wire's `OkLsn` — is the store's durable commit LSN and
    /// the `commit_lsn` of the one event that carried its writes, on a log
    /// rewritten after every commit and with `with_exclusive` batches in
    /// between, which advance the watermark too. A commit that wrote
    /// nothing logs nothing and answers the watermark.
    #[test]
    fn every_commit_lsn_is_the_commit_lsn_of_its_event(
        traffic in prop::collection::vec(
            prop_oneof![
                6 => prop::collection::vec(op_strategy(), 1..4).prop_map(Route::Txn),
                1 => Just(Route::Empty),
                2 => op_strategy().prop_map(Route::Exclusive),
                1 => Just(Route::Checkpoint),
            ],
            1..40,
        ),
    ) {
        let (db, node, streams, _) = streamed_db(4096, 0);
        let sub = streams.subscribe(&db);
        let durable = || db.with_read(|d| d.durable_commit_lsn());
        for route in &traffic {
            let before = db.visible_lsn();
            match route {
                Route::Txn(ops) => {
                    let live = db.with_read(|d| d.instances_of(node, false));
                    let mut txn = db.begin_write();
                    for op in ops {
                        apply_txn(&mut txn, node, &live, op).unwrap();
                    }
                    let lsn = txn.commit().unwrap();
                    prop_assert_eq!(lsn, durable());
                    match lsns(sub.events.try_iter())[..] {
                        [] => {}
                        [event] => prop_assert_eq!(event, lsn, "{:?}", ops),
                        ref more => prop_assert!(false, "{:?}: one commit, events {:?}", ops, more),
                    }
                }
                Route::Empty => {
                    prop_assert_eq!(db.begin_write().commit().unwrap(), before);
                    prop_assert_eq!(sub.events.try_iter().count(), 0);
                }
                Route::Exclusive(op) => {
                    db.with_exclusive(|d| apply_db(d, node, op));
                    for event in lsns(sub.events.try_iter()) {
                        prop_assert!(before < event && event <= durable());
                    }
                }
                Route::Checkpoint => db.with_exclusive(|d| d.checkpoint()).unwrap(),
            }
            prop_assert_eq!(db.visible_lsn(), durable(), "after {:?}", route);
        }
    }
}

/// The attach race (invariant (b) under real concurrency): one thread
/// commits in a loop — the 8 KiB log checkpointing itself under it — while
/// another subscribes 200 times. An attach takes the shared latch, so it
/// falls between two commits: each stream must begin at the successor
/// commit of its `start_lsn` and run on from there with none skipped, none
/// repeated.
#[test]
fn a_stream_starts_at_the_successor_of_its_start_lsn_under_concurrent_commits() {
    let (db, node, streams, _) = streamed_db(4096, 8 << 10);
    let stop = AtomicBool::new(false);
    let (committed, streams_seen) = std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let mut committed = vec![db.with_read(|d| d.durable_commit_lsn())];
            let mut n = 0;
            while !stop.load(Ordering::SeqCst) {
                n += 1;
                committed.push(commit(&db, node, n));
            }
            committed
        });
        let mut seen = Vec::new();
        for _ in 0..200 {
            let sub = streams.subscribe(&db);
            let mut events = Vec::new();
            while events.len() < 3 {
                let event = sub.events.recv_timeout(Duration::from_secs(10));
                events.push(event.expect("the committer never stops").commit_lsn);
            }
            seen.push((sub.start_lsn, events));
        }
        stop.store(true, Ordering::SeqCst);
        (committer.join().unwrap(), seen)
    });
    assert!(
        db.with_read(|d| d.wal_stats().checkpoints) >= 5,
        "the log was rewritten under the streams' feet"
    );
    for (start_lsn, events) in streams_seen {
        let at = committed
            .binary_search(&start_lsn)
            .unwrap_or_else(|_| panic!("start_lsn {start_lsn} is not a commit LSN"));
        assert_eq!(
            events[..],
            committed[at + 1..at + 1 + events.len()],
            "stream from {start_lsn}"
        );
    }
}

/// Invariant (e): a subscriber that never reads costs every committer one
/// failed `try_send` and then nothing; it is cut loose with the lag flag
/// (the session turns that into `SlowConsumer`) while the commits, and a
/// subscriber that does read, carry on.
#[test]
fn a_slow_subscriber_is_cut_loose_without_stalling_commits_or_its_neighbour() {
    let (db, node, streams, metrics) = streamed_db(4, 1 << 20);
    let slow = streams.subscribe(&db);
    let healthy = streams.subscribe(&db);
    let mut committed = Vec::new();
    let mut read = Vec::new();
    for n in 0..50 {
        // Commits from this very thread: a blocking send anywhere under
        // the latch would hang the test right here.
        committed.push(commit(&db, node, n));
        read.extend(lsns(healthy.events.try_iter()));
    }
    assert_eq!(read, committed);
    assert!(slow.lagged.load(Ordering::SeqCst));
    assert_eq!(
        lsns(slow.events.try_iter()),
        committed[..4],
        "what fit the queue"
    );
    assert!(slow.events.recv().is_err(), "then the disconnect");
    assert_eq!(metrics.stream_lagged.get(), 1);
    assert_eq!(
        (streams.subscriber_count(), metrics.streams_active.get()),
        (1, 1)
    );
}

/// Invariant (d): with nobody subscribed a commit captures nothing — no
/// change set, no emit time, and not one page fetch more than an engine
/// that has no sink at all. The pool's fetch counters (`buffer_stats()`:
/// hits + misses) stand in for "before-image reads": the registry has no
/// per-read buffer counter. A third engine with a subscriber captures every
/// rewrite and still fetches no page more: the apply hands capture the
/// record its update displaced, so nobody reads a before-image.
#[test]
fn zero_subscribers_means_no_capture_no_before_image_read_no_emit() {
    fn rewrites(db: &ConcurrentDb, node: ClassId) -> u64 {
        let targets = db.with_read(|d| d.instances_of(node, false));
        let before = db.with_read(|d| d.buffer_stats());
        for n in 0..200 {
            let oid = targets[n % targets.len()];
            db.run_write(|t| t.set_attr(oid, "n", Value::Int(1000 + n as i64)))
                .unwrap();
        }
        let after = db.with_read(|d| d.buffer_stats());
        (after.hits + after.misses) - (before.hits + before.misses)
    }
    let (bare, node) = node_db(DbConfig::default());
    let bare_fetches = rewrites(&bare, node);

    let (idle, node, idle_streams, idle_metrics) = streamed_db(4096, 1 << 20);
    drop(idle_streams.subscribe(&idle)); // came and went before the traffic
    assert_eq!(rewrites(&idle, node), bare_fetches);
    assert_eq!(idle_metrics.stream_batches.get(), 0);
    assert_eq!(idle_metrics.stream_emit.count(), 0);

    let (watched, node, streams, metrics) = streamed_db(4096, 1 << 20);
    let sub = streams.subscribe(&watched);
    assert_eq!(
        rewrites(&watched, node),
        bare_fetches,
        "no before-image read for a rewrite"
    );
    assert_eq!(sub.events.try_iter().count(), 200);
    assert_eq!(metrics.stream_emit.count(), 200);
}
