//! Property-based recovery equivalence.
//!
//! The contract under test: every public mutation is one atomic batch, so
//! for any operation sequence and any crash position,
//!
//! ```text
//! recover(crash(ops)) == replay(committed_prefix(ops))
//! ```
//!
//! where the committed prefix is exactly what the failing operation
//! answered: everything through it when it answered `Ok` (the fault came
//! past the durability point and degraded the store), everything before it
//! when it answered `Err` on a store left healthy (rolled back). Only a
//! log-device fault at the durability point — a torn or failed append —
//! leaves the answer in doubt, and then recovery may land on either side —
//! never anything in between.
//!
//! The fault is one of three, drawn per case: a named crash point, the
//! log device tearing its n-th append, or the page device failing its k-th
//! write (keeping a prefix of it). Both engines write through
//! [`FaultyDevice`] wrappers: over the in-memory devices, recovered in
//! process; over real files, recovered by a reopen.
//!
//! Commits do not write pages, so for most of a sequence the disk is
//! *behind* the log. `Abort` ops (a transaction rolled back over pages
//! earlier commits left dirty) and `Checkpoint` ops (the write-back that
//! catches the disk up, itself a fault target) keep that gap in play.
//! `Retype` ops are schema messages: the catalog is part of the state
//! compared, and it commits with the instances the message rewrites.
//!
//! The oracle is a twin database replaying the same deterministic
//! operations with no faults armed — the same style as the reference
//! traversal walks (`tests/reference`): recompute the answer the slow,
//! safe way and demand equality.

use std::path::PathBuf;
use std::sync::Arc;

use corion::core::evolution::{AttrTypeChange, Maintenance};
use corion::storage::{
    BlockDevice, DeviceMetrics, FaultyDevice, FileDisk, FileWal, LogDevice, MemLog, SimDisk,
    CRASH_POINTS,
};
use corion::{
    AttributeDef, ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError, Domain,
    HealthState, Oid, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Deterministic op interpreter
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// New root node with an integer payload.
    Create(i64),
    /// New node created straight into an existing parent's `kids`.
    CreateChild { parent: usize },
    /// Overwrite the integer attribute.
    SetInt { obj: usize, v: i64 },
    /// Grow the string attribute (sizes past a page force relocation and
    /// overflow chains — multi-page batches).
    Grow { obj: usize, len: usize },
    /// Cascading delete.
    Delete { obj: usize },
    /// Bottom-up attach (may be rejected by cycle/topology rules).
    Attach { child: usize, parent: usize },
    /// Detach with orphan cascade.
    Detach { child: usize, parent: usize },
    /// Weak reference write.
    SetBuddy { obj: usize, target: usize },
    /// A transaction that rewrites both attributes (a long string
    /// relocates) and rolls back: logically a no-op, physically a rewind
    /// of every frame it touched to the last *committed* image.
    Abort { obj: usize, v: i64, len: usize },
    /// Write every dirty page back and truncate the log.
    Checkpoint,
    /// A schema message: `kids` made dependent or independent with
    /// immediate maintenance, so the catalog and every kid's reverse
    /// reference change in one batch (rejected when it is already so).
    Retype { dependent: bool },
}

/// The one fault a case injects.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `CRASH_POINTS[idx]` fires on its `countdown`-th hit.
    Point { idx: usize, countdown: u64 },
    /// The log device tears the append after `appends` clean ones,
    /// keeping its first `keep` bytes.
    LogTear { appends: u64, keep: usize },
    /// The page device fails the write after `writes` clean ones (a
    /// checkpoint write-back or an eviction), keeping its first `keep`
    /// bytes.
    PageWrite { writes: u64, keep: usize },
}

/// Faults whose countdowns land inside a run: a crash point below
/// `reach` hits, a log tear below `reach / 2` appends (at most one per
/// op), a page-write fault below `reach / 4` writes (only checkpoints and
/// evictions write pages). Each crash point is drawn about as often as
/// each device fault.
fn fault_strategy(reach: u64) -> impl Strategy<Value = Fault> {
    prop_oneof![
        3 => (0..CRASH_POINTS.len(), 1..reach)
            .prop_map(|(idx, countdown)| Fault::Point { idx, countdown }),
        1 => (0..reach / 2, 0..4096usize)
            .prop_map(|(appends, keep)| Fault::LogTear { appends, keep }),
        1 => (0..reach / 4, 0..4096usize)
            .prop_map(|(writes, keep)| Fault::PageWrite { writes, keep }),
    ]
}

/// An engine under test plus the handles of the fault-injecting devices it
/// writes through, and its directory (which, for the file-backed engine,
/// holds its files).
struct Faulty<D, L> {
    db: Database,
    disk: FaultyDevice<D>,
    log: FaultyDevice<L>,
    dir: PathBuf,
}

fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "corion_recprop_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

impl<D, L> Faulty<D, L>
where
    D: BlockDevice + 'static,
    L: LogDevice + 'static,
{
    /// Opens an engine over `disk` and `log` wrapped in fault injectors,
    /// with the `Node` world built.
    fn open(dir: PathBuf, disk: D, log: L) -> (Self, ClassId) {
        let dm = DeviceMetrics::detached();
        let disk = FaultyDevice::new(disk, dm.clone());
        let log = FaultyDevice::new(log, dm);
        let mut db = Database::with_devices(
            &dir,
            DbConfig::default(),
            Arc::new(disk.clone()),
            Arc::new(log.clone()),
        )
        .unwrap();
        let node = node_schema(&mut db);
        (Faulty { db, disk, log, dir }, node)
    }

    fn arm(&self, fault: Fault) {
        match fault {
            Fault::Point { idx, countdown } => {
                self.db.arm_crash_point(CRASH_POINTS[idx], countdown)
            }
            Fault::LogTear { appends, keep } => self.log.arm_torn_write(appends, keep),
            Fault::PageWrite { writes, keep } => self.disk.arm_torn_write(writes, keep),
        }
    }

    fn heal(&self) {
        self.db.heal_crash_points();
        self.disk.heal_faults();
        self.log.heal_faults();
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<i64>().prop_map(Op::Create),
        3 => (0..64usize).prop_map(|parent| Op::CreateChild { parent }),
        3 => (0..64usize, any::<i64>()).prop_map(|(obj, v)| Op::SetInt { obj, v }),
        2 => (0..64usize, 0..6000usize).prop_map(|(obj, len)| Op::Grow { obj, len }),
        2 => (0..64usize).prop_map(|obj| Op::Delete { obj }),
        3 => (0..64usize, 0..64usize)
            .prop_map(|(child, parent)| Op::Attach { child, parent }),
        2 => (0..64usize, 0..64usize)
            .prop_map(|(child, parent)| Op::Detach { child, parent }),
        1 => (0..64usize, 0..64usize)
            .prop_map(|(obj, target)| Op::SetBuddy { obj, target }),
        2 => (0..64usize, any::<i64>(), 0..6000usize)
            .prop_map(|(obj, v, len)| Op::Abort { obj, v, len }),
        2 => Just(Op::Checkpoint),
        1 => any::<bool>().prop_map(|dependent| Op::Retype { dependent }),
    ]
}

fn node_db() -> (Database, ClassId) {
    let mut db = Database::new();
    let node = node_schema(&mut db);
    (db, node)
}

/// Defines the `Node` schema and seed population inside an existing
/// engine, so the same deterministic world can be built on the in-memory
/// backend or on file-backed devices.
fn node_schema(db: &mut Database) -> ClassId {
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
    // Seed population so early ops have targets.
    for i in 0..4 {
        db.make(node, vec![("n", Value::Int(i))], vec![]).unwrap();
    }
    node
}

/// Applies one op. Semantic rejections (cycles, topology, missing targets)
/// are part of the deterministic semantics and count as success; only a
/// storage failure — the injected crash — propagates as `Err`.
fn apply(db: &mut Database, node: ClassId, op: &Op) -> Result<(), DbError> {
    let live: Vec<Oid> = db.instances_of(node, false);
    let pick = |i: usize| -> Option<Oid> {
        if live.is_empty() {
            None
        } else {
            Some(live[i % live.len()])
        }
    };
    let result = match op {
        Op::Create(v) => db
            .make(node, vec![("n", Value::Int(*v))], vec![])
            .map(|_| ()),
        Op::CreateChild { parent } => match pick(*parent) {
            Some(p) => db.make(node, vec![], vec![(p, "kids")]).map(|_| ()),
            None => Ok(()),
        },
        Op::SetInt { obj, v } => match pick(*obj) {
            Some(o) => db.set_attr(o, "n", Value::Int(*v)),
            None => Ok(()),
        },
        Op::Grow { obj, len } => match pick(*obj) {
            Some(o) => db.set_attr(o, "text", Value::Str("g".repeat(*len))),
            None => Ok(()),
        },
        Op::Delete { obj } => match pick(*obj) {
            Some(o) => db.delete(o).map(|_| ()),
            None => Ok(()),
        },
        Op::Attach { child, parent } => match (pick(*child), pick(*parent)) {
            (Some(c), Some(p)) => db.make_component(c, p, "kids"),
            _ => Ok(()),
        },
        Op::Detach { child, parent } => match (pick(*child), pick(*parent)) {
            (Some(c), Some(p)) => db.remove_component(c, p, "kids"),
            _ => Ok(()),
        },
        Op::SetBuddy { obj, target } => match (pick(*obj), pick(*target)) {
            (Some(o), Some(t)) => db.set_attr(o, "buddy", Value::Ref(t)),
            _ => Ok(()),
        },
        Op::Abort { obj, v, len } => match pick(*obj) {
            Some(o) => db.begin_transaction().and_then(|()| {
                let wrote = db
                    .set_attr(o, "n", Value::Int(*v))
                    .and_then(|()| db.set_attr(o, "text", Value::Str("a".repeat(*len))));
                let aborted = db.abort_transaction();
                wrote.and(aborted)
            }),
            None => Ok(()),
        },
        Op::Checkpoint => db.checkpoint(),
        Op::Retype { dependent } => {
            let change = match dependent {
                true => AttrTypeChange::ToDependent,
                false => AttrTypeChange::ToIndependent,
            };
            db.change_attribute_type(node, "kids", change, Maintenance::Immediate)
        }
    };
    match result {
        Ok(()) => Ok(()),
        Err(e @ DbError::Storage(_)) => Err(e),
        Err(_) => Ok(()), // semantic rejection: deterministic no-op-with-compensation
    }
}

/// Logical content: the `Node` class's attribute list, and the OID and
/// encoded image of every live object, sorted (physical placement
/// excluded — recovery may relocate).
type Fingerprint = (Vec<String>, Vec<(Oid, Vec<u8>)>);

fn fingerprint(db: &Database, node: ClassId) -> Fingerprint {
    let attrs = db.class(node).unwrap().attrs.iter();
    let attrs = attrs
        .map(|a| format!("{} {:?} {:?}", a.name, a.domain, a.composite))
        .collect();
    let mut out = Vec::new();
    for oid in db.instances_of(node, false) {
        let obj = db.get(oid).unwrap();
        let mut buf = Vec::new();
        obj.encode(&mut buf);
        out.push((oid, buf));
    }
    out.sort();
    (attrs, out)
}

/// The oracle: a fresh twin replaying `ops` with no faults armed.
fn replay(ops: &[Op]) -> Fingerprint {
    let (mut db, node) = node_db();
    for op in ops {
        apply(&mut db, node, op).expect("oracle replay sees no faults");
    }
    fingerprint(&db, node)
}

/// Where a faulted run stopped: the op, whether it answered `Ok`, and
/// whether the store was left healthy.
struct Stop {
    at: usize,
    ok: bool,
    healthy: bool,
}

/// Applies `ops` until one answers `Err` or leaves the store unhealthy
/// (a degraded store refuses the writes after it).
fn run_until_fault(db: &mut Database, node: ClassId, ops: &[Op]) -> Result<Option<Stop>, String> {
    for (at, op) in ops.iter().enumerate() {
        let result = apply(db, node, op);
        if let Err(e) = &result {
            if !matches!(e, DbError::Storage(_)) {
                return Err(format!("only storage faults abort the run: {e}"));
            }
        }
        let healthy = db.health() == HealthState::Healthy;
        if result.is_err() || !healthy {
            return Ok(Some(Stop {
                at,
                ok: result.is_ok(),
                healthy,
            }));
        }
    }
    Ok(None)
}

/// The states recovery may land on after `stop`: exactly the answered one,
/// or — for an `Err` that left the store degraded or poisoned, the answer
/// in doubt — either side of the op.
fn allowed(ops: &[Op], stop: &Stop) -> Vec<Fingerprint> {
    let pre = || replay(&ops[..stop.at]);
    let post = || replay(&ops[..=stop.at]);
    match (stop.ok, stop.healthy) {
        (true, _) => vec![post()],
        (false, true) => vec![pre()],
        (false, false) => vec![pre(), post()],
    }
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn recovery_equals_replay_of_committed_prefix(
        ops in prop::collection::vec(op_strategy(), 1..30),
        fault in fault_strategy(40),
    ) {
        let (mut fx, node) = Faulty::open(fresh_dir("sim"), SimDisk::new(), MemLog::new());
        // Arm once for the whole sequence: the countdown decides which
        // operation (if any) the fault lands in.
        fx.arm(fault);

        let stop = run_until_fault(&mut fx.db, node, &ops).map_err(TestCaseError::fail)?;
        fx.heal();
        let db = &mut fx.db;

        match stop {
            Some(stop) => {
                let allowed = allowed(&ops, &stop);
                if stop.healthy {
                    // Rolled back in place: the engine already holds it.
                    prop_assert!(allowed.contains(&fingerprint(db, node)));
                }
                db.recover().unwrap();
                let recovered = fingerprint(db, node);
                prop_assert!(
                    allowed.contains(&recovered),
                    "fault {:?} in op {} ({:?}, answered ok={}) recovered to another state: \
                     {} objects vs allowed {:?}",
                    fault, stop.at, ops[stop.at], stop.ok, recovered.1.len(),
                    allowed.iter().map(|a| a.1.len()).collect::<Vec<_>>()
                );
                db.verify_integrity().unwrap();
                // The recovered engine keeps working.
                db.make(node, vec![], vec![]).unwrap();
            }
            None => {
                // The countdown outlived the run: everything committed.
                // Crashing now and recovering must reproduce the full
                // replay — recover(crash(ops)) == replay(ops).
                db.simulate_crash();
                db.recover().unwrap();
                let recovered = fingerprint(db, node);
                let full = replay(&ops);
                prop_assert_eq!(recovered, full, "post-crash recovery diverged from replay");
                db.verify_integrity().unwrap();
            }
        }
        let dir = fx.dir.clone();
        drop(fx);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// The same property on real files
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The in-memory property above proves batch atomicity against the
    /// simulated disk; this one proves it against real files. Recovery is
    /// not `recover()` on the surviving engine but a *drop and reopen of
    /// the directory* — the committed prefix must be on the media. The
    /// oracle stays the in-memory twin: OIDs and object images are purely
    /// logical, so both backends must agree byte-for-byte.
    #[test]
    fn file_backed_recovery_equals_replay_of_committed_prefix(
        ops in prop::collection::vec(op_strategy(), 1..20),
        fault in fault_strategy(24),
    ) {
        let dir = fresh_dir("file");
        let dm = DeviceMetrics::detached();
        let (mut fx, node) = Faulty::open(
            dir.clone(),
            FileDisk::open(&dir, dm.clone()).unwrap(),
            FileWal::open(&dir, dm).unwrap(),
        );
        fx.arm(fault);

        let stop = run_until_fault(&mut fx.db, node, &ops).map_err(TestCaseError::fail)?;
        fx.heal();

        // The process "dies": the engine and its device handles go away,
        // and a new engine opens the directory from what is on the media.
        drop(fx);
        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        let recovered = fingerprint(&db, node);

        match stop {
            Some(stop) => {
                let allowed = allowed(&ops, &stop);
                prop_assert!(
                    allowed.contains(&recovered),
                    "file-backed fault {:?} in op {} ({:?}, answered ok={}) reopened to \
                     another state: {} objects vs allowed {:?}",
                    fault, stop.at, ops[stop.at], stop.ok, recovered.1.len(),
                    allowed.iter().map(|a| a.1.len()).collect::<Vec<_>>()
                );
            }
            None => {
                let full = replay(&ops);
                prop_assert_eq!(recovered, full, "file-backed reopen diverged from replay");
            }
        }
        db.verify_integrity().unwrap();
        db.make(node, vec![], vec![]).unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
