//! Deterministic crash matrix over the WAL + recovery path.
//!
//! For every engine operation that runs as one atomic batch (attribute
//! write with relocation, cascading delete, make-component, multi-parent
//! `make`, orphan-cascading remove-component, and the schema messages
//! `define_class`, an immediate type change, `drop_attribute` and
//! `drop_class`, whose catalog commits with their instance maintenance),
//! for every named crash point
//! in the commit protocol, and for every countdown until the point stops
//! firing: crash there, [`Database::recover`], and assert the database
//! equals exactly what the operation answered — the post-batch state for
//! `Ok` (the batch is durable), the pre-batch state for `Err` on a store
//! left healthy (it was rolled back). The state compared is the catalog
//! (class names and attribute lists) and every object. Log-device tears and EIO at the
//! commit (through [`FaultyDevice`](corion::storage::FaultyDevice), the
//! one device fault injector) and a WAL bit-flip check cover the
//! corrupted-log variants, where the answer is in doubt and recovery may
//! land on either side — never on a hybrid.
//!
//! Everything here is deterministic: the crash points are named and
//! counted, the scenarios allocate OIDs in a fixed order, and the post
//! oracle is simply a twin database running the same operation with no
//! faults armed.

use std::sync::Arc;

use corion::core::evolution::{AttrTypeChange, Maintenance};
use corion::obs::Registry;
use corion::storage::{
    DeviceMetrics, FaultyDevice, MemLog, ObjectStore, SimDisk, StoreConfig, CP_PAGE_WRITE,
    CRASH_POINTS,
};
use corion::{
    ClassBuilder, ClassId, CompositeSpec, ConcurrentDb, Database, DbConfig, DbError, DbResult,
    Domain, HealthState, Oid, Value,
};

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// The logical content of the database: the catalog's class names with
/// their effective attribute lists, and every live object's OID and
/// encoded image, sorted. Physical placement is deliberately excluded —
/// recovery may relocate records; OIDs are the stable names.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    classes: Vec<(String, Vec<String>)>,
    objects: Vec<(Oid, Vec<u8>)>,
}

impl Fingerprint {
    /// Live objects.
    fn len(&self) -> usize {
        self.objects.len()
    }
}

fn fingerprint(db: &Database) -> Fingerprint {
    let mut classes = Vec::new();
    let mut objects = Vec::new();
    for class in db.catalog().all_classes() {
        let c = db.class(class).unwrap();
        let attrs = c
            .attrs
            .iter()
            .map(|a| format!("{} {:?} {:?}", a.name, a.domain, a.composite))
            .collect();
        classes.push((c.name.clone(), attrs));
        for oid in db.instances_of(class, false) {
            let obj = db.get(oid).unwrap();
            let mut buf = Vec::new();
            obj.encode(&mut buf);
            objects.push((oid, buf));
        }
    }
    classes.sort();
    objects.sort();
    Fingerprint { classes, objects }
}

/// The exact answer: the state an engine must hold — at once and after
/// recovery — once an operation answered `result`. `Ok` means durable;
/// `Err` on a store still healthy means rolled back. Anything else is not
/// an answer these sweeps can produce.
fn answered<'a, T: std::fmt::Debug>(
    db: &Database,
    result: &DbResult<T>,
    pre: &'a Fingerprint,
    post: &'a Fingerprint,
    what: &str,
) -> &'a Fingerprint {
    match (result, db.health()) {
        (Ok(_), _) => post,
        (Err(DbError::Storage(_)), HealthState::Healthy) => pre,
        (other, health) => panic!("{what}: answered {other:?} on a {health} store"),
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One crash-test scenario: a deterministic builder and the single atomic
/// operation under test. The builder populates an engine handed to it, so
/// the same scenario runs against the in-memory simulated disk and the
/// file-backed device stack unchanged.
struct Scenario {
    name: &'static str,
    build: fn(&mut Database) -> Vec<Oid>,
    op: fn(&mut Database, &[Oid]) -> DbResult<()>,
    /// Whether the op dirties a page, so that [`CP_PAGE_WRITE`] fires:
    /// every op but `define_class`, whose batch is a segment and a schema.
    writes_pages: bool,
}

impl Scenario {
    /// Whether `point` must fire at least once in a sweep of this op.
    fn must_fire(&self, point: &str) -> bool {
        self.writes_pages || point != CP_PAGE_WRITE
    }
}

/// Parts held by assemblies through the dependent `parts` attribute: three
/// assemblies of three parts each. Returns the assemblies.
fn held_parts(db: &mut Database) -> Vec<Oid> {
    let (part, asm) = parts_schema(db);
    (0..3)
        .map(|a| {
            let members = (0..3)
                .map(|k| {
                    let text = Value::Str(format!("p{a}{k}"));
                    Value::Ref(db.make(part, vec![("text", text)], vec![]).unwrap())
                })
                .collect();
            db.make(asm, vec![("parts", Value::Set(members))], vec![])
                .unwrap()
        })
        .collect()
}

/// Part/Assembly schema shared by most scenarios: a dependent-shared set
/// attribute (cascades when the last parent goes) plus a plain string.
fn parts_schema(db: &mut Database) -> (corion::ClassId, corion::ClassId) {
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
    (part, asm)
}

fn parts_db() -> (Database, corion::ClassId, corion::ClassId) {
    let mut db = Database::new();
    let (part, asm) = parts_schema(&mut db);
    (db, part, asm)
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "set_attr_with_relocation",
            build: |db| {
                let (part, _) = parts_schema(db);
                let mut oids = Vec::new();
                for i in 0..8 {
                    oids.push(
                        db.make(part, vec![("text", Value::Str(format!("p{i}")))], vec![])
                            .unwrap(),
                    );
                }
                oids
            },
            // Growing far past one page forces relocation plus an overflow
            // chain: several pages dirty in one batch.
            op: |db, oids| db.set_attr(oids[3], "text", Value::Str("x".repeat(9000))),
            writes_pages: true,
        },
        Scenario {
            name: "delete_cascade",
            build: |db| {
                let (part, asm) = parts_schema(db);
                // Three assemblies each holding three parts; parts 0..3 are
                // shared between asm 0 and asm 1, so deleting asm 0 detaches
                // them while deleting asm 2 cascades into its own parts.
                let mut parts = Vec::new();
                for i in 0..9 {
                    parts.push(
                        db.make(part, vec![("text", Value::Str(format!("p{i}")))], vec![])
                            .unwrap(),
                    );
                }
                let mut asms = Vec::new();
                for a in 0..3 {
                    let members: Vec<Value> =
                        (0..3).map(|k| Value::Ref(parts[a * 3 + k])).collect();
                    asms.push(
                        db.make(asm, vec![("parts", Value::Set(members))], vec![])
                            .unwrap(),
                    );
                }
                asms
            },
            op: |db, asms| db.delete(asms[2]).map(|_| ()),
            writes_pages: true,
        },
        Scenario {
            name: "make_component",
            build: |db| {
                let (part, asm) = parts_schema(db);
                let p = db.make(part, vec![], vec![]).unwrap();
                let a = db.make(asm, vec![], vec![]).unwrap();
                vec![p, a]
            },
            op: |db, oids| db.make_component(oids[0], oids[1], "parts"),
            writes_pages: true,
        },
        Scenario {
            name: "make_with_parents",
            build: |db| {
                let (_part, asm) = parts_schema(db);
                let a1 = db.make(asm, vec![], vec![]).unwrap();
                let a2 = db.make(asm, vec![], vec![]).unwrap();
                vec![a1, a2]
            },
            op: |db, oids| {
                let part = db.class_by_name("Part").unwrap();
                db.make(part, vec![], vec![(oids[0], "parts"), (oids[1], "parts")])
                    .map(|_| ())
            },
            writes_pages: true,
        },
        Scenario {
            name: "remove_component_orphan_cascade",
            build: |db| {
                let (part, asm) = parts_schema(db);
                let p = db.make(part, vec![], vec![]).unwrap();
                let a = db
                    .make(
                        asm,
                        vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                        vec![],
                    )
                    .unwrap();
                vec![p, a]
            },
            // Removing the only dependent parent deletes the orphan too.
            op: |db, oids| db.remove_component(oids[0], oids[1], "parts"),
            writes_pages: true,
        },
        // Schema messages: the catalog commits with the instances.
        Scenario {
            name: "define_class",
            build: held_parts,
            op: |db, _| {
                db.define_class(ClassBuilder::new("Widget").attr("w", Domain::String))
                    .map(drop)
            },
            writes_pages: false,
        },
        Scenario {
            name: "change_attribute_type_immediate",
            build: held_parts,
            // Every part's reverse reference is rewritten.
            op: |db, _| {
                let asm = db.class_by_name("Asm").unwrap();
                db.change_attribute_type(
                    asm,
                    "parts",
                    AttrTypeChange::ToIndependent,
                    Maintenance::Immediate,
                )
            },
            writes_pages: true,
        },
        Scenario {
            name: "drop_attribute",
            build: held_parts,
            // The assemblies are rewritten and their dependent parts deleted.
            op: |db, _| {
                let asm = db.class_by_name("Asm").unwrap();
                db.drop_attribute(asm, "parts")
            },
            writes_pages: true,
        },
        Scenario {
            name: "drop_class",
            build: held_parts,
            // The assemblies are deleted, and their parts with them.
            op: |db, _| {
                let asm = db.class_by_name("Asm").unwrap();
                db.drop_class(asm)
            },
            writes_pages: true,
        },
    ]
}

/// The post-batch oracle: the same scenario run to completion on a twin
/// in-memory database with no faults armed. OID allocation and object
/// encoding are purely logical, so the oracle holds for the file-backed
/// sweeps too.
fn post_oracle(s: &Scenario) -> Fingerprint {
    let mut db = Database::new();
    let oids = (s.build)(&mut db);
    (s.op)(&mut db, &oids).unwrap();
    fingerprint(&db)
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

/// Runs one scenario with a crash armed at `point` on its `countdown`-th
/// hit. Returns `false` once the countdown outlives the operation (the
/// point never fired — the sweep for this point is exhausted).
fn crash_once(s: &Scenario, point: &'static str, countdown: u64, post: &Fingerprint) -> bool {
    let mut db = Database::new();
    let oids = (s.build)(&mut db);
    let pre = fingerprint(&db);
    db.arm_crash_point(point, countdown);
    let result = (s.op)(&mut db, &oids);
    let fired = db.crash_point_remaining(point).is_none();
    db.heal_crash_points();
    if !fired {
        assert!(
            result.is_ok(),
            "{}: op failed without the crash point firing: {result:?}",
            s.name
        );
        return false;
    }
    let what = format!("{}: crash at {point}#{countdown}", s.name);
    let want = answered(&db, &result, &pre, post, &what);
    assert!(
        fingerprint(&db) == *want,
        "{what}: the engine disagrees with its answer"
    );
    let report = db
        .recover()
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let after = fingerprint(&db);
    assert!(
        after == *want,
        "{what}: answered {result:?} but recovered to another state \
         ({} objects; pre {}, post {}; report {report:?})",
        after.len(),
        pre.len(),
        post.len()
    );
    db.verify_integrity().unwrap_or_else(|e| {
        panic!(
            "{}: integrity audit failed after {point}#{countdown}: {e}",
            s.name
        )
    });
    // The recovered engine must accept new work.
    let part = db.class_by_name("Part").unwrap();
    let fresh = db.make(part, vec![], vec![]).unwrap();
    assert!(db.exists(fresh));
    true
}

#[test]
fn every_crash_point_recovers_to_pre_or_post_state() {
    for s in scenarios() {
        let post = post_oracle(&s);
        for &point in CRASH_POINTS {
            let mut fired_at_least_once = false;
            for countdown in 1..=512u64 {
                if !crash_once(&s, point, countdown, &post) {
                    // Countdown outlived the op: sweep of this point done.
                    assert!(
                        countdown > 1 || !fired_at_least_once,
                        "countdown sweep went backwards"
                    );
                    break;
                }
                fired_at_least_once = true;
                assert!(countdown < 512, "{}: {point} fired 512 times", s.name);
            }
            // Commit-protocol points fire in every scenario (each op
            // commits exactly one batch); page-write points fire whenever
            // the op writes at all — which every scenario does.
            assert!(
                fired_at_least_once || !s.must_fire(point),
                "{}: crash point {point} never fired",
                s.name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Torn log appends
// ---------------------------------------------------------------------

/// A recovered store over the in-memory page device and a fault-injecting
/// in-memory log, plus the handle that arms the log.
fn store_over_faulty_log() -> (ObjectStore, FaultyDevice<MemLog>) {
    let log = FaultyDevice::new(MemLog::new(), DeviceMetrics::detached());
    let mut st = ObjectStore::with_devices(
        StoreConfig::default(),
        &Registry::new(),
        Arc::new(SimDisk::new()),
        Arc::new(log.clone()),
        None,
    );
    st.recover().unwrap();
    (st, log)
}

#[test]
fn committed_batch_after_torn_recovery_survives_second_recovery() {
    // Recovery cuts a torn tail and numbers on from the last commit it
    // kept. A batch committed after that must survive a second recovery:
    // numbering past the discarded records would leave an LSN gap that
    // the second scan stops at. Every tear point of one commit's append.
    let (mut probe, _) = store_over_faulty_log();
    let seg = probe.create_segment().unwrap();
    let a = probe.insert(seg, b"A", None).unwrap();
    let before = probe.wal_stats().durable_bytes;
    probe.update(a, b"B").unwrap();
    let batch_bytes = probe.wal_stats().durable_bytes - before;

    for keep in 0..batch_bytes {
        let (mut st, log) = store_over_faulty_log();
        let seg = st.create_segment().unwrap();
        let a = st.insert(seg, b"A", None).unwrap();
        log.arm_torn_write(0, keep);
        assert!(
            st.update(a, b"B").is_err(),
            "keep={keep}: the tear surfaces"
        );
        assert_eq!(log.injected().torn_writes, 1, "keep={keep}");
        log.heal_faults();
        let rep1 = st.recover().unwrap();
        let c = st.insert(seg, b"C", None).unwrap();
        st.simulate_crash();
        let rep2 = st.recover().unwrap();
        assert!(
            !rep2.torn_tail,
            "keep={keep}/{batch_bytes}: second recovery saw torn tail (rep1={rep1:?}, rep2={rep2:?})"
        );
        assert_eq!(st.read(c).unwrap(), b"C", "keep={keep}: committed C lost");
    }
}

// ---------------------------------------------------------------------
// Bit rot
// ---------------------------------------------------------------------

#[test]
fn wal_bit_flip_truncates_tail_instead_of_replaying_garbage() {
    // Commit two batches, flip one byte inside the *second* batch's
    // records, crash, recover: the checksum must reject the corrupted
    // record and truncate the log there, recovering batch one only —
    // never garbage.
    let (mut db, part, _) = parts_db();
    let a = db
        .make(part, vec![("text", Value::Str("one".into()))], vec![])
        .unwrap();
    let cut = db.wal_stats().durable_bytes;
    let b = db
        .make(part, vec![("text", Value::Str("two".into()))], vec![])
        .unwrap();
    let end = db.wal_stats().durable_bytes;
    assert!(end > cut);

    // Flip a byte in the middle of the second batch's log region.
    db.corrupt_wal_byte(cut + (end - cut) / 2, 0x40).unwrap();
    db.simulate_crash();
    let report = db.recover().unwrap();
    assert!(
        report.torn_tail,
        "corruption must be detected as a torn tail: {report:?}"
    );
    // Batch one survived; batch two was truncated away with the corruption.
    assert!(db.exists(a), "first committed batch must survive bit rot");
    assert!(
        !db.exists(b),
        "corrupted batch must be discarded, not replayed"
    );
    assert_eq!(
        db.get_attr(a, "text").unwrap(),
        Value::Str("one".into()),
        "surviving object must carry its committed value"
    );
    db.verify_integrity().unwrap();
    // And the truncated log is consistent: recovery is idempotent.
    let again = db.recover().unwrap();
    assert!(!again.torn_tail, "second recovery sees a clean log");
    assert!(db.exists(a));
}

// ---------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------

/// Parts schema plus one committed assembly for the transaction sweep.
fn txn_db() -> (Database, ClassId, Oid) {
    let (mut db, part, asm) = parts_db();
    let a = db.make(asm, vec![], vec![]).unwrap();
    (db, part, a)
}

/// The multi-operation transaction under test: four `make`s joined to one
/// assembly plus an attribute rewrite — five logical operations, one batch.
fn txn_op(db: &mut Database, part: ClassId, a: Oid) -> DbResult<()> {
    db.transaction(|db| {
        let mut last = None;
        for i in 0..4 {
            last = Some(db.make(
                part,
                vec![("text", Value::Str(format!("t{i}")))],
                vec![(a, "parts")],
            )?);
        }
        db.set_attr(last.unwrap(), "text", Value::Str("rewritten".into()))
    })
}

#[test]
fn transaction_crashes_recover_to_pre_or_post_transaction_state() {
    // A transaction is one batch, written when it commits (until then its
    // operations touch only its overlay, so every armed point is met
    // there): wherever the commit pipeline crashes, recovery must land on
    // the state the commit answered — post for `Ok`, pre for `Err` — never
    // on a prefix of the transaction's operations.
    let post = {
        let (mut db, part, a) = txn_db();
        txn_op(&mut db, part, a).unwrap();
        fingerprint(&db)
    };
    for &point in CRASH_POINTS {
        let mut fired_at_least_once = false;
        for countdown in 1..=512u64 {
            let (mut db, part, a) = txn_db();
            let pre = fingerprint(&db);
            db.arm_crash_point(point, countdown);
            let result = txn_op(&mut db, part, a);
            let fired = db.crash_point_remaining(point).is_none();
            db.heal_crash_points();
            if !fired {
                result.unwrap();
                break;
            }
            fired_at_least_once = true;
            let what = format!("txn: crash at {point}#{countdown}");
            let want = answered(&db, &result, &pre, &post, &what);
            assert!(!db.in_transaction(), "crash must close the transaction");
            assert!(
                fingerprint(&db) == *want,
                "{what}: the engine disagrees with its answer"
            );
            db.recover().unwrap();
            let after = fingerprint(&db);
            assert!(
                after == *want,
                "{what}: answered {result:?} but recovered to another state \
                 ({} objects; pre {}, post {})",
                after.len(),
                pre.len(),
                post.len()
            );
            db.verify_integrity().unwrap();
            assert!(countdown < 512, "txn: {point} fired 512 times");
        }
        assert!(fired_at_least_once, "txn: crash point {point} never fired");
    }
}

// ---------------------------------------------------------------------
// File-backed devices: the same matrix against real files
// ---------------------------------------------------------------------

/// The in-memory sweeps above prove batch atomicity against the simulated
/// disk; this module re-runs the crash matrix with the storage substrate
/// on real files — a [`FileDisk`]/[`FileWal`] pair behind fault-injecting
/// [`FaultyDevice`] wrappers — and recovers by *reopening the directory in
/// a fresh engine*, so the committed prefix must actually be on the
/// media, not in any surviving memory. Device-level faults (torn log
/// appends, EIO, torn page writes, lying fsync, a crash inside the
/// checkpoint-compaction rename) get their own sweeps here, each ending
/// in such a reopen.
mod file_backed {
    use super::*;
    use corion::storage::{BlockDevice, FileDisk, FileWal, ReplaceCrash, StorageError};
    use corion::{ErrorClass, ErrorCode};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A file-backed engine plus the shared-state fault handles the store
    /// writes through. Dropping the fixture closes the engine; the files
    /// stay behind for the reopen.
    struct Fixture {
        db: Database,
        disk: FaultyDevice<FileDisk>,
        log: FaultyDevice<FileWal>,
        dir: PathBuf,
    }

    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "corion_cmfile_{}_{tag}_{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_fixture(tag: &str) -> Fixture {
        open_fixture_with(tag, DbConfig::default())
    }

    fn open_fixture_with(tag: &str, config: DbConfig) -> Fixture {
        let dir = fresh_dir(tag);
        let dm = DeviceMetrics::detached();
        let disk = FaultyDevice::new(FileDisk::open(&dir, dm.clone()).unwrap(), dm.clone());
        let log = FaultyDevice::new(FileWal::open(&dir, dm.clone()).unwrap(), dm);
        let db =
            Database::with_devices(&dir, config, Arc::new(disk.clone()), Arc::new(log.clone()))
                .unwrap();
        Fixture { db, disk, log, dir }
    }

    /// Drops the crashed engine and its device handles, then opens the
    /// directory in a brand-new engine — the moral equivalent of the
    /// process dying and restarting. `Database::open` takes the lock,
    /// replays the committed WAL prefix, schema records included.
    fn reopen(fx: Fixture) -> (Database, PathBuf) {
        let Fixture { db, disk, log, dir } = fx;
        drop(db);
        drop(disk);
        drop(log);
        let db = Database::open(&dir, DbConfig::default())
            .unwrap_or_else(|e| panic!("reopening {} failed: {e}", dir.display()));
        (db, dir)
    }

    /// Post-recovery invariants shared by every file-backed sweep: the
    /// state is one of `allowed` (exactly the answered one, or either side
    /// of an answer in doubt), integrity holds, and the reopened engine
    /// accepts new work.
    fn assert_recovered(db: &mut Database, what: &str, allowed: &[&Fingerprint]) {
        let after = fingerprint(db);
        assert!(
            allowed.contains(&&after),
            "{what}: reopen landed on another state ({} objects; allowed {:?})",
            after.len(),
            allowed.iter().map(|a| a.len()).collect::<Vec<_>>()
        );
        db.verify_integrity()
            .unwrap_or_else(|e| panic!("{what}: integrity audit failed after reopen: {e}"));
        let part = db.class_by_name("Part").unwrap();
        let fresh = db.make(part, vec![], vec![]).unwrap();
        assert!(db.exists(fresh), "{what}: reopened engine must be writable");
    }

    /// One file-backed crash-matrix cell; returns `false` when the
    /// countdown outlived the operation (sweep of this point exhausted).
    fn crash_once_on_files(
        s: &Scenario,
        point: &'static str,
        countdown: u64,
        post: &Fingerprint,
    ) -> bool {
        let mut fx = open_fixture(s.name);
        let oids = (s.build)(&mut fx.db);
        let pre = fingerprint(&fx.db);
        fx.db.arm_crash_point(point, countdown);
        let result = (s.op)(&mut fx.db, &oids);
        let fired = fx.db.crash_point_remaining(point).is_none();
        fx.db.heal_crash_points();
        if !fired {
            assert!(
                result.is_ok(),
                "{}: op failed without the crash point firing: {result:?}",
                s.name
            );
            std::fs::remove_dir_all(&fx.dir).ok();
            return false;
        }
        let what = format!("{} files {point}#{countdown}", s.name);
        let want = answered(&fx.db, &result, &pre, post, &what);
        assert!(
            fingerprint(&fx.db) == *want,
            "{what}: the engine disagrees with its answer"
        );
        let (mut db, dir) = reopen(fx);
        assert_recovered(&mut db, &what, &[want]);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        true
    }

    #[test]
    fn file_backed_crash_matrix_recovers_pre_or_post_across_reopen() {
        for s in scenarios() {
            let post = post_oracle(&s);
            for &point in CRASH_POINTS {
                let mut fired_at_least_once = false;
                for countdown in 1..=512u64 {
                    if !crash_once_on_files(&s, point, countdown, &post) {
                        break;
                    }
                    fired_at_least_once = true;
                    assert!(countdown < 512, "{}: {point} fired 512 times", s.name);
                }
                assert!(
                    fired_at_least_once || !s.must_fire(point),
                    "{}: crash point {point} never fired on files",
                    s.name
                );
            }
        }
    }

    #[test]
    fn torn_device_append_recovers_pre_then_post_across_reopen() {
        // The log append persists only a prefix of the commit's bytes and
        // errors, exactly a real disk dying mid-pwrite. The store poisons
        // itself, and the recovery scan must truncate the torn tail at a
        // batch boundary — keeping few bytes lands on pre, keeping all of
        // them lands on post, nothing in between. Every scenario.
        for s in scenarios() {
            let post = post_oracle(&s);

            // Measure the commit's append size on an unfaulted file run.
            let mut fx = open_fixture("torn_measure");
            let oids = (s.build)(&mut fx.db);
            let before = fx.db.wal_stats().durable_bytes;
            (s.op)(&mut fx.db, &oids).unwrap();
            let delta = fx.db.wal_stats().durable_bytes - before;
            assert!(delta > 0, "{}: op appended nothing to the WAL", s.name);
            std::fs::remove_dir_all(&fx.dir).ok();

            let mut seen_pre = false;
            let mut seen_post = false;
            for keep in [0, 1, delta / 2, delta - 1, delta, delta + 64] {
                let what = format!("{}: torn device append keeping {keep}", s.name);
                let mut fx = open_fixture("torn");
                let oids = (s.build)(&mut fx.db);
                let pre = fingerprint(&fx.db);
                fx.log.arm_torn_write(0, keep);
                let result = (s.op)(&mut fx.db, &oids);
                assert!(
                    matches!(result, Err(DbError::Storage(_))),
                    "{what} must fail the op, got {result:?}"
                );
                assert_eq!(
                    fx.log.injected().torn_writes,
                    1,
                    "{what}: the injected tear must be accounted"
                );
                assert_eq!(fx.db.health(), HealthState::Poisoned, "{what}");
                fx.log.heal_faults();
                // Recovery in the process settles the catalog and the
                // instances together, on the side a reopen finds.
                fx.db.recover().unwrap();
                let in_process = fingerprint(&fx.db);
                fx.db.verify_integrity().unwrap();
                let (mut db, dir) = reopen(fx);
                let after = fingerprint(&db);
                assert!(after == in_process, "{what}: recover and reopen disagree");
                if after == pre {
                    seen_pre = true;
                } else if after == post {
                    seen_post = true;
                } else {
                    panic!("{what} left a hybrid");
                }
                db.verify_integrity().unwrap();
                drop(db);
                std::fs::remove_dir_all(&dir).ok();
            }
            assert!(
                seen_pre && seen_post,
                "{}: torn sweep should reach both outcomes (pre {seen_pre}, post {seen_post})",
                s.name
            );
        }
    }

    /// The type change of `held_parts`, immediate.
    fn to_independent(db: &mut Database) -> DbResult<()> {
        let asm = db.class_by_name("Asm").unwrap();
        db.change_attribute_type(
            asm,
            "parts",
            AttrTypeChange::ToIndependent,
            Maintenance::Immediate,
        )
    }

    #[test]
    fn a_schema_message_that_failed_to_commit_recovers_in_process_as_a_reopen_does() {
        let mut fx = open_fixture("ddl_poisoned");
        held_parts(&mut fx.db);
        let pre = fingerprint(&fx.db);
        fx.db.arm_crash_point(corion::storage::CP_COMMIT_LOG, 1);
        assert!(to_independent(&mut fx.db).is_err());
        fx.db.heal_crash_points();
        fx.db.simulate_crash();
        assert_eq!(fx.db.health(), HealthState::Poisoned);
        fx.db.recover().unwrap();
        assert!(
            fingerprint(&fx.db) == pre,
            "the catalog is the committed one"
        );
        fx.db.verify_integrity().unwrap();
        let (mut db, dir) = reopen(fx);
        assert!(fingerprint(&db) == pre, "a reopen of the same log agrees");
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_aborted_schema_batch_then_a_checkpoint_reopens_at_the_previous_schema() {
        let mut fx = open_fixture("ddl_abort_checkpoint");
        held_parts(&mut fx.db);
        let pre = fingerprint(&fx.db);
        fx.db.arm_crash_point(corion::storage::CP_COMMIT_LOG, 1);
        assert!(to_independent(&mut fx.db).is_err());
        fx.db.heal_crash_points();
        assert_eq!(fx.db.health(), HealthState::Healthy);
        // The checkpoint re-asserts the schema the store adopted: the one
        // before the aborted batch.
        fx.db.checkpoint().unwrap();
        assert!(fingerprint(&fx.db) == pre);
        let (mut db, dir) = reopen(fx);
        assert!(fingerprint(&db) == pre, "the previous schema");
        db.verify_integrity().unwrap();
        // And the message goes through after all.
        to_independent(&mut db).unwrap();
        drop(db);
        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        let asm = db.class_by_name("Asm").unwrap();
        let spec = db.class(asm).unwrap().attr("parts").unwrap().composite;
        assert_eq!(
            spec,
            Some(CompositeSpec {
                exclusive: false,
                dependent: false,
            })
        );
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn device_eio_at_commit_poisons_then_clean_reopen_recovers() {
        // The log device fails the commit's append, or lets the append
        // through and fails its sync. Every scenario.
        for s in scenarios() {
            let post = post_oracle(&s);
            for (at, passing) in [("log append", 0), ("log sync", 1)] {
                let what = format!("{}: device eio at the {at}", s.name);
                let mut fx = open_fixture("eio");
                let oids = (s.build)(&mut fx.db);
                let pre = fingerprint(&fx.db);
                fx.log.arm_eio(passing);
                let result = (s.op)(&mut fx.db, &oids);
                assert!(
                    matches!(
                        result,
                        Err(DbError::Storage(StorageError::DeviceIo { op })) if op == at
                    ),
                    "{what} must surface, got {result:?}"
                );
                // The commit is in doubt, so nobody may retry it: not the
                // engine's own retry loops, and not a client reading the
                // wire code.
                let e = result.unwrap_err();
                assert!(
                    !e.is_retryable(),
                    "{what}: an in-doubt commit is not retryable"
                );
                assert_ne!(
                    ErrorCode::from(&e).class(),
                    ErrorClass::Retryable,
                    "{what}: an in-doubt commit must not answer a retryable wire code"
                );
                assert_eq!(
                    fx.db.health(),
                    HealthState::Poisoned,
                    "{what}: a failed durability point leaves the store poisoned until recovery"
                );
                assert!(fx.log.injected().eio > 0, "{what}");
                fx.log.heal_faults();
                let (mut db, dir) = reopen(fx);
                // The one answer in doubt: the log device failed at the
                // durability point, so recovery decides.
                assert_recovered(&mut db, &what, &[&pre, &post]);
                drop(db);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn lying_fsync_loses_only_unsynced_acknowledgements_never_atomicity() {
        // A disk with a volatile write cache that acknowledges fsync
        // without persisting: commits "succeed", but the bytes sit in the
        // cache and die with the power. Reopening from the real file must
        // land on a batch boundary — the honestly-synced prefix — never on
        // a torn hybrid. This is the one failure mode where acknowledged
        // work is allowed to vanish, because the device lied about the
        // durability point.
        let mut fx = open_fixture("lying");
        let (part, _) = parts_schema(&mut fx.db);
        let honest = fx
            .db
            .make(part, vec![("text", Value::Str("honest".into()))], vec![])
            .unwrap();
        let pre = fingerprint(&fx.db);

        fx.log.set_lying_fsync_log(true).unwrap();
        let lied = fx
            .db
            .make(part, vec![("text", Value::Str("cached".into()))], vec![])
            .unwrap();
        assert!(fx.db.exists(lied), "the lied-to engine sees its commit");
        assert!(
            fx.log.lying_bytes_buffered(),
            "acknowledged bytes must be sitting in the volatile cache"
        );

        let (mut db, dir) = reopen(fx);
        let after = fingerprint(&db);
        assert_eq!(
            after, pre,
            "power loss with a lying cache rolls back to the honestly-synced prefix"
        );
        assert!(db.exists(honest));
        assert!(!db.exists(lied), "the cached commit died with the power");
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lying_log_fsync_and_an_eviction_never_let_make_reuse_a_live_serial() {
        // Under a log fsync that lies, eviction can write a committed page
        // back while the batch's `SerialFloor` record waits in the device
        // cache. Power loss then keeps the page and loses the record: the
        // object is live after the reopen, and the log's floor does not
        // know its serial. Only the rebuild's scan of the
        // pages does, and the next `make` must not issue it again.
        let config = DbConfig {
            store: StoreConfig {
                buffer_capacity: 1,
                ..StoreConfig::default()
            },
            ..DbConfig::default()
        };
        let mut fx = open_fixture_with("lyingevict", config);
        let (part, _) = parts_schema(&mut fx.db);
        let other = fx
            .db
            .define_class(ClassBuilder::new("Other").attr("text", Domain::String))
            .unwrap();
        let elsewhere = fx.db.make(other, vec![], vec![]).unwrap();
        fx.db
            .make(part, vec![("text", Value::Str("honest".into()))], vec![])
            .unwrap();
        // The floor in the log is now the next serial.
        fx.db.checkpoint().unwrap();
        fx.db.clear_cache().unwrap();

        fx.log.set_lying_fsync_log(true).unwrap();
        let lied = fx
            .db
            .make(part, vec![("text", Value::Str("cached".into()))], vec![])
            .unwrap();
        // Reading another class's page evicts the committed one.
        let writes = fx.disk.stats().writes;
        fx.db.get(elsewhere).unwrap();
        assert!(
            fx.disk.stats().writes > writes,
            "the eviction wrote the committed page back"
        );
        assert!(fx.log.lying_bytes_buffered());

        let (mut db, dir) = reopen(fx);
        assert!(db.exists(lied), "the evicted page kept the object");
        let live = fingerprint(&db);
        let fresh = db
            .make(part, vec![("text", Value::Str("fresh".into()))], vec![])
            .unwrap();
        assert!(
            live.objects.iter().all(|(oid, _)| *oid != fresh),
            "make reissued the serial of live object {fresh}"
        );
        assert_eq!(fingerprint(&db).len(), live.len() + 1);
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_resets_the_watermark_below_commits_a_lying_fsync_lost() {
        // The same lie under the concurrent engine, recovered in place:
        // the acknowledged commits' LSNs were handed out, the log lost
        // them, and recovery must set the visible watermark back to the
        // log's last durable commit rather than keep it above commits
        // that no longer exist.
        let mut fx = open_fixture("lyingcdb");
        let (part, _) = parts_schema(&mut fx.db);
        let Fixture { db, disk, log, dir } = fx;
        let cdb = ConcurrentDb::from_database(db);
        let make = |text: &str| {
            let mut txn = cdb.begin_write();
            let oid = txn
                .make(part, vec![("text", Value::Str(text.into()))], vec![])
                .unwrap();
            (oid, txn.commit().unwrap())
        };
        let (honest, honest_lsn) = make("honest");
        assert_eq!(cdb.visible_lsn(), honest_lsn);

        log.set_lying_fsync_log(true).unwrap();
        let lost: Vec<(Oid, u64)> = (0..3).map(|i| make(&format!("cached{i}"))).collect();
        assert!(log.lying_bytes_buffered());
        assert_eq!(cdb.visible_lsn(), lost[2].1);

        // Power loss: the volatile cache dies with the process's memory.
        cdb.with_exclusive(|d| d.simulate_crash());
        log.set_lying_fsync_log(false).unwrap();
        cdb.recover().unwrap();
        let durable = cdb.with_read(|d| d.durable_commit_lsn());
        assert_eq!(cdb.visible_lsn(), durable);
        assert!(durable >= honest_lsn);
        assert!(
            lost.iter().all(|&(_, lsn)| durable < lsn),
            "{durable} vs {lost:?}"
        );
        let snap = cdb.begin_read();
        assert_eq!(snap.lsn(), durable);
        assert!(snap.exists(honest).unwrap());
        assert!(lost.iter().all(|&(oid, _)| !snap.exists(oid).unwrap()));

        // The next commit lands above the pin, so the snapshot pinned just
        // after recovery does not see it; a fresh one does.
        let (next, next_lsn) = make("after");
        assert!(next_lsn > snap.lsn());
        assert_eq!(cdb.visible_lsn(), next_lsn);
        assert!(!snap.exists(next).unwrap());
        assert!(cdb.begin_read().exists(next).unwrap());
        cdb.with_exclusive(|d| d.verify_integrity()).unwrap();
        drop((snap, cdb, disk, log));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_replace_crash_leaves_old_or_new_log_both_recovering() {
        // WAL checkpoint compaction on files is write-new + rename +
        // dir-fsync. Crash the swap on either side of the rename: before,
        // the old log is still in place; after, the new one is. Both must
        // reopen to the identical database — the compaction is purely
        // physical — and the reopened engine must checkpoint successfully.
        for side in [ReplaceCrash::BeforeRename, ReplaceCrash::AfterRename] {
            let mut fx = open_fixture("ckptgap");
            let (part, _) = parts_schema(&mut fx.db);
            for i in 0..6 {
                fx.db
                    .make(part, vec![("text", Value::Str(format!("c{i}")))], vec![])
                    .unwrap();
            }
            let pre = fingerprint(&fx.db);
            let log_bytes_before = fx.db.wal_stats().durable_bytes;

            fx.log.arm_replace_crash(side);
            let result = fx.db.checkpoint();
            assert!(
                matches!(result, Err(DbError::Storage(_))),
                "{side:?}: the interrupted swap must surface, got {result:?}"
            );
            fx.log.heal_faults();

            let (mut db, dir) = reopen(fx);
            let after = fingerprint(&db);
            assert_eq!(after, pre, "{side:?}: compaction must not change content");
            db.verify_integrity().unwrap();
            let log_bytes_after = db.wal_stats().durable_bytes;
            match side {
                // Old log still in place: same bytes survive the reopen.
                ReplaceCrash::BeforeRename => assert_eq!(
                    log_bytes_after, log_bytes_before,
                    "before-rename crash must leave the old log"
                ),
                // New log swapped in: the compacted form is shorter.
                ReplaceCrash::AfterRename => assert!(
                    log_bytes_after < log_bytes_before,
                    "after-rename crash must leave the compacted log \
                     ({log_bytes_after} vs {log_bytes_before})"
                ),
            }
            db.checkpoint().unwrap();
            db.verify_integrity().unwrap();
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Twelve parts of ~900 bytes (several pages) plus rewrites of every
    /// third — all committed, none written: commits stop at the synced
    /// log, so the checkpoint that follows has every one of these pages to
    /// write back. Returns the fixture and the committed fingerprint.
    fn unwritten_commits(tag: &str) -> (Fixture, Fingerprint) {
        let mut fx = open_fixture(tag);
        let (part, _) = parts_schema(&mut fx.db);
        fx.db.checkpoint().unwrap();
        let parts: Vec<Oid> = (0..12)
            .map(|i| {
                let text = Value::Str(format!("{i:x}").repeat(900));
                fx.db.make(part, vec![("text", text)], vec![]).unwrap()
            })
            .collect();
        for &p in parts.iter().step_by(3) {
            fx.db
                .set_attr(p, "text", Value::Str("rewritten".repeat(90)))
                .unwrap();
        }
        let committed = fingerprint(&fx.db);
        (fx, committed)
    }

    /// Reopens and demands every acknowledged commit, a clean audit, and a
    /// checkpoint that now goes through.
    fn assert_nothing_lost(fx: Fixture, what: &str, committed: &Fingerprint) {
        let (mut db, dir) = reopen(fx);
        assert!(
            fingerprint(&db) == *committed,
            "{what}: an acknowledged commit did not survive the reopen"
        );
        db.verify_integrity()
            .unwrap_or_else(|e| panic!("{what}: integrity audit failed after reopen: {e}"));
        db.checkpoint().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_writeback_faults_lose_no_commit_across_reopen() {
        // How many pages the checkpoint writes back, from an unfaulted run.
        let (mut fx, _) = unwritten_commits("ckptwb_probe");
        fx.db.checkpoint().unwrap();
        let pages = fx
            .db
            .metrics_snapshot()
            .counter("corion_buffer_writebacks_checkpoint_total");
        assert!(pages >= 3, "the fixture must dirty several pages");
        std::fs::remove_dir_all(&fx.dir).ok();

        // A fault at every write-back: the k-th write persisting nothing,
        // then tearing at several sector boundaries and mid-sector.
        for k in 0..pages {
            for keep in [0, 512, 2000, 4095] {
                let what = format!("checkpoint write-back {k} of {pages}, keeping {keep}");
                let (mut fx, committed) = unwritten_commits("ckptwb");
                let log = fx.db.wal_stats().durable_bytes;
                fx.disk.arm_torn_write(k, keep);
                let result = fx.db.checkpoint();
                assert!(
                    matches!(result, Err(DbError::Storage(_))),
                    "{what}: must surface, got {result:?}"
                );
                assert_eq!(fx.disk.injected().torn_writes, 1, "{what}");
                assert_eq!(fx.db.health(), HealthState::Degraded, "{what}");
                assert_eq!(
                    fx.db.wal_stats().durable_bytes,
                    log,
                    "{what}: the log must not be truncated"
                );
                assert!(
                    fingerprint(&fx.db) == committed,
                    "{what}: degraded reads must keep answering"
                );
                fx.disk.heal_faults();
                assert_nothing_lost(fx, &what, &committed);
            }
        }
        // One past the last write-back, the fault no longer fires.
        let (mut fx, committed) = unwritten_commits("ckptwb_past");
        fx.disk.arm_torn_write(pages, 0);
        fx.db.checkpoint().unwrap();
        assert_eq!(fx.disk.injected().torn_writes, 0);
        fx.disk.heal_faults();
        assert_nothing_lost(fx, "unfaulted checkpoint", &committed);
    }

    #[test]
    fn the_log_is_swapped_only_after_the_page_device_is_synced() {
        // A page device with a volatile write cache: while it lies, page
        // writes are acknowledged into a cache that dies with the power.
        // Over an 8-frame pool, the reads between the commits below miss
        // and evict — and so write back — committed frames into that
        // cache. Nothing may be lost: no checkpoint ran since, so the log
        // still holds every image.
        let mut fx = open_fixture_with(
            "pagecache",
            DbConfig {
                store: StoreConfig {
                    buffer_capacity: 8,
                    ..StoreConfig::default()
                },
                ..DbConfig::default()
            },
        );
        let (part, _) = parts_schema(&mut fx.db);
        let parts: Vec<Oid> = (0..40)
            .map(|i| {
                let text = Value::Str(format!("{i:x}").repeat(1500));
                fx.db.make(part, vec![("text", text)], vec![]).unwrap()
            })
            .collect();
        fx.db.checkpoint().unwrap();
        fx.db.clear_cache().unwrap();
        fx.disk.set_lying_fsync(true).unwrap();
        for (i, &p) in parts.iter().enumerate() {
            let text = Value::Str(format!("{i:x}").repeat(1400));
            fx.db.set_attr(p, "text", text).unwrap();
            fx.db.get_attr(parts[(i * 7 + 3) % 40], "text").unwrap();
        }
        assert!(
            fx.db
                .metrics_snapshot()
                .counter("corion_buffer_writebacks_eviction_total")
                > 0
                && fx.disk.lying_bytes_buffered(),
            "evictions must have written committed frames into the cache"
        );
        let committed = fingerprint(&fx.db);
        assert_nothing_lost(fx, "power loss with cached page writes", &committed);

        // And when the checkpoint's own sync fails, the swap must not
        // happen: the write-backs went through (EIO is armed past them),
        // the sync did not, the log stays.
        let (mut fx, committed) = unwritten_commits("pagesync");
        let log = fx.db.wal_stats().durable_bytes;
        fx.db.clear_cache().unwrap(); // every frame clean: the sync is the next device op
        fx.disk.arm_eio(0);
        let result = fx.db.checkpoint();
        assert!(
            matches!(result, Err(DbError::Storage(_))),
            "a failed page sync must surface, got {result:?}"
        );
        assert_eq!(fx.db.health(), HealthState::Degraded);
        assert_eq!(
            fx.db.wal_stats().durable_bytes,
            log,
            "an unsynced page device must keep its log"
        );
        fx.disk.heal_faults();
        assert_nothing_lost(fx, "failed page sync", &committed);
    }

    #[test]
    fn a_failed_page_sync_degrades_and_keeps_the_log_across_reopen() {
        // How many pages the checkpoint writes back, from an unfaulted run.
        let (mut fx, _) = unwritten_commits("pagesync_probe");
        fx.db.checkpoint().unwrap();
        let pages = fx
            .db
            .metrics_snapshot()
            .counter("corion_buffer_writebacks_checkpoint_total");
        std::fs::remove_dir_all(&fx.dir).ok();

        // Every write-back goes through, then the page sync fails and the
        // device is healed. The written frames are already clean, so a
        // later sync that succeeds proves nothing about the pages the
        // failed one may have lost: the store must degrade, keep its log,
        // and refuse every checkpoint until a reopen replays the log.
        let (mut fx, committed) = unwritten_commits("pagesync_eio");
        let log = fx.db.wal_stats().durable_bytes;
        fx.disk.arm_eio(pages);
        let result = fx.db.checkpoint();
        fx.disk.heal_faults();
        assert!(
            matches!(result, Err(DbError::Storage(_))),
            "a failed page sync must surface, got {result:?}"
        );
        assert_eq!(
            fx.disk.injected().eio,
            1,
            "the sync, after every write-back"
        );
        assert_eq!(fx.db.health(), HealthState::Degraded);
        assert_eq!(fx.db.wal_stats().durable_bytes, log, "the log is kept");
        assert!(matches!(fx.db.checkpoint(), Err(DbError::ReadOnly)));
        assert!(
            fingerprint(&fx.db) == committed,
            "degraded reads keep answering"
        );
        assert_nothing_lost(fx, "failed page sync, healed device", &committed);
    }

    #[test]
    fn short_read_surfaces_and_heals_without_poisoning() {
        let mut fx = open_fixture("shortread");
        let (part, _) = parts_schema(&mut fx.db);
        let oid = fx
            .db
            .make(part, vec![("text", Value::Str("readable".into()))], vec![])
            .unwrap();
        // Force the next access to fault the page in from the device, and
        // make that read come up short.
        fx.db.clear_cache().unwrap();
        fx.disk.arm_short_read(0);
        let err = fx.db.get(oid);
        assert!(
            matches!(err, Err(DbError::Storage(_))),
            "a short device read must surface, got {err:?}"
        );
        assert!(fx.disk.injected().short_reads > 0);
        // A failed *read* is not a failed durability point: the store must
        // stay usable, and healing the device heals the access.
        fx.disk.heal_faults();
        assert_eq!(
            fx.db.get_attr(oid, "text").unwrap(),
            Value::Str("readable".into())
        );
        let dir = fx.dir.clone();
        drop(fx);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Concurrent writers: crash during the second commit with a third
// transaction still in flight
// ---------------------------------------------------------------------

/// Concurrent-engine fixture: Part/Asm with *exclusive* composite
/// references, so writers on disjoint roots hold compatible IXO class
/// locks and the in-flight third transaction cannot block the one
/// whose commit we crash. Returns three empty assembly roots.
fn concurrent_db() -> (ConcurrentDb, ClassId, Vec<Oid>) {
    let cdb = ConcurrentDb::new();
    let (part, asm) = cdb.with_exclusive(|db| {
        let part = db
            .define_class(ClassBuilder::new("Part").attr("text", Domain::String))
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
    });
    let roots = (0..3)
        .map(|i| {
            cdb.run_write(|t| t.make(asm, vec![("label", Value::Str(format!("root{i}")))], vec![]))
                .unwrap()
        })
        .collect();
    (cdb, part, roots)
}

/// First committed writer: one part under root 0 plus a label touch.
fn concurrent_t1(cdb: &ConcurrentDb, part: ClassId, roots: &[Oid]) -> u64 {
    cdb.run_write(|t| {
        t.make(
            part,
            vec![("text", Value::Str("t1-part".into()))],
            vec![(roots[0], "parts")],
        )?;
        t.set_attr(roots[0], "label", Value::Str("root0-t1".into()))
    })
    .unwrap();
    cdb.visible_lsn()
}

/// The second writer's operations: a multi-object batch on root 1 so the
/// crashed commit has several WAL records to tear between.
fn concurrent_t2_ops(t: &mut corion::WriteTxn, part: ClassId, roots: &[Oid]) {
    for i in 0..3 {
        t.make(
            part,
            vec![("text", Value::Str(format!("t2-part{i}")))],
            vec![(roots[1], "parts")],
        )
        .unwrap();
    }
    t.set_attr(roots[1], "label", Value::Str("root1-t2".into()))
        .unwrap();
}

#[test]
fn concurrent_commit_crashes_recover_to_an_lsn_prefix() {
    // Commit-LSN order is T1 < T2, with T3 still open (never committed)
    // when the crash fires inside T2's commit. Recovery must land on a
    // *prefix* of that order: {T1} (pre) or {T1, T2} (post) — T1's
    // effects are always present, T2 is all-or-nothing, and T3's
    // overlay never reaches the base store in any outcome. The builder,
    // T1, T3's op, and T2's ops run in a fixed single-threaded order,
    // so the unfaulted twin mints identical OIDs for the post oracle.
    let post = {
        let (cdb, part, roots) = concurrent_db();
        concurrent_t1(&cdb, part, &roots);
        let mut t3 = cdb.begin_write();
        t3.make(
            part,
            vec![("text", Value::Str("t3-part".into()))],
            vec![(roots[2], "parts")],
        )
        .unwrap();
        let mut t2 = cdb.begin_write();
        concurrent_t2_ops(&mut t2, part, &roots);
        t2.commit().unwrap();
        t3.abort();
        cdb.with_read(fingerprint)
    };

    for &point in CRASH_POINTS {
        let mut fired_at_least_once = false;
        for countdown in 1..=512u64 {
            let (cdb, part, roots) = concurrent_db();
            let t1_lsn = concurrent_t1(&cdb, part, &roots);
            let pre = cdb.with_read(fingerprint);

            // T3: in flight — holds IXO on Part and X on root 2, writes
            // only its private overlay, and never commits.
            let mut t3 = cdb.begin_write();
            t3.make(
                part,
                vec![("text", Value::Str("t3-part".into()))],
                vec![(roots[2], "parts")],
            )
            .unwrap();

            cdb.with_exclusive(|db| db.arm_crash_point(point, countdown));
            let mut t2 = cdb.begin_write();
            concurrent_t2_ops(&mut t2, part, &roots);
            let result = t2.commit();
            let fired = cdb.with_exclusive(|db| {
                let fired = db.crash_point_remaining(point).is_none();
                db.heal_crash_points();
                fired
            });
            if !fired {
                // Countdown outlasted the commit pipeline: the commit
                // must have succeeded, advancing the watermark past T1.
                assert!(result.unwrap() > t1_lsn, "commit LSNs must be monotonic");
                t3.abort();
                break;
            }
            fired_at_least_once = true;
            let what = format!("concurrent: crash at {point}#{countdown}");
            let want = cdb.with_read(|db| answered(db, &result, &pre, &post, &what).clone());
            if let Ok(lsn) = result {
                // `Ok` means published: the watermark is at this commit.
                assert_eq!(cdb.visible_lsn(), lsn, "{what}");
            }
            assert!(
                cdb.with_read(fingerprint) == want,
                "{what}: the engine disagrees with its answer"
            );

            cdb.recover().unwrap();
            let after = cdb.with_read(fingerprint);
            assert!(
                after == want,
                "{what}: recovered off the answered commit-LSN prefix \
                 ({} objects; pre {}, post {})",
                after.len(),
                pre.len(),
                post.len()
            );

            // Recovery fenced the in-flight transaction: the handle
            // fails fast (and releases its locks) rather than ever
            // committing into the recovered state.
            assert!(
                matches!(
                    t3.set_attr(roots[2], "label", Value::Str("zombie".into())),
                    Err(DbError::TransactionState { .. })
                ),
                "concurrent: the in-flight transaction must be fenced after recovery"
            );
            t3.abort();

            cdb.with_exclusive(|db| db.verify_integrity().unwrap());
            // Every root accepts a fresh writer: no lock leaked from the
            // crashed committer or the fenced in-flight transaction.
            cdb.run_write(|t| {
                for (i, &r) in roots.iter().enumerate() {
                    t.set_attr(r, "label", Value::Str(format!("post-recovery{i}")))?;
                }
                Ok(())
            })
            .unwrap();
            assert!(countdown < 512, "concurrent: {point} fired 512 times");
        }
        assert!(
            fired_at_least_once,
            "concurrent: crash point {point} never fired"
        );
    }
}
