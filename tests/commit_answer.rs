//! A commit's answer is exact (docs/RESILIENCE.md, "The answer
//! contract"): `Ok` means the batch is durable, `Err` on a store left
//! healthy means it was rolled back.
//!
//! Every fault here strikes *past* the durability point — `commit:done`,
//! a page write-back of the checkpoint the commit trips, or the
//! page-device sync of that checkpoint — so on every entry path the commit
//! must answer `Ok`, exist exactly once, be published to snapshots, and
//! survive a reopen. The store degrades instead, and the next operation is
//! the one that hears about it. Before this contract held, each of these
//! commits answered an error; over the wire the page-sync one answered
//! `TransientStorage` (retryable), and `Client::with_txn` made the object a
//! second time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion::storage::{
    DeviceMetrics, FaultyDevice, FileDisk, FileWal, StoreConfig, CP_COMMIT_DONE,
};
use corion::{
    AuthStore, ClassBuilder, ClassId, Client, ConcurrentDb, Database, DbConfig, Domain,
    HealthState, Oid, Server, ServerConfig, Value,
};

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The named point between the durability point and the batch's close.
    CommitDone,
    /// The first page write-back of the checkpoint the commit trips: a
    /// device write that persists nothing and fails.
    CheckpointWrite,
    /// The page-device sync of that checkpoint: an EIO that lasts until
    /// the device is healed.
    PageSync,
}

#[derive(Debug, Clone, Copy)]
enum Path {
    /// `Database::make`, one autocommitted batch.
    Autocommit,
    /// `WriteTxn::make` then `WriteTxn::commit`.
    WriteTxn,
    /// A served `Client::with_txn` whose body is one `make`.
    Wire,
}

/// A file-backed engine whose every commit trips a checkpoint, over a
/// fault-injecting page device.
struct Fixture {
    cdb: ConcurrentDb,
    disk: FaultyDevice<FileDisk>,
    dir: PathBuf,
    widget: ClassId,
}

fn fixture() -> Fixture {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "corion_answer_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dm = DeviceMetrics::detached();
    let disk = FaultyDevice::new(FileDisk::open(&dir, dm.clone()).unwrap(), dm.clone());
    let log = FaultyDevice::new(FileWal::open(&dir, dm.clone()).unwrap(), dm);
    let config = DbConfig {
        store: StoreConfig {
            wal_checkpoint_bytes: 0,
            ..StoreConfig::default()
        },
        ..DbConfig::default()
    };
    let mut db =
        Database::with_devices(&dir, config, Arc::new(disk.clone()), Arc::new(log)).unwrap();
    let widget = db
        .define_class(ClassBuilder::new("Widget").attr("label", Domain::String))
        .unwrap();
    Fixture {
        cdb: ConcurrentDb::from_database(db),
        disk,
        dir,
        widget,
    }
}

fn label() -> Value {
    Value::Str("w".into())
}

/// Makes one widget through `path`, arming `fault` just before (with the
/// page-device operations to let pass first, for [`Fault::PageSync`]).
fn make_one(fx: &Fixture, path: Path, fault: Option<(Fault, u64)>) -> Result<Oid, String> {
    fx.cdb.with_read(|db| match fault {
        Some((Fault::CommitDone, _)) => db.arm_crash_point(CP_COMMIT_DONE, 1),
        Some((Fault::CheckpointWrite, _)) => fx.disk.arm_torn_write(0, 0),
        Some((Fault::PageSync, ops)) => fx.disk.arm_eio(ops),
        None => {}
    });
    let widget = fx.widget;
    let answer = match path {
        Path::Autocommit => fx
            .cdb
            .with_exclusive(|db| db.make(widget, vec![("label", label())], vec![]))
            .map_err(|e| e.to_string()),
        Path::WriteTxn => {
            let mut txn = fx.cdb.begin_write();
            let oid = txn.make(widget, vec![("label", label())], vec![]).unwrap();
            txn.commit().map(|_| oid).map_err(|e| e.to_string())
        }
        Path::Wire => {
            let server =
                Server::start(fx.cdb.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
            let mut client = Client::connect(server.local_addr(), 0).unwrap();
            let answer = client
                .with_txn(4, |c| {
                    c.make(widget, vec![("label".into(), label())], vec![])
                })
                .map_err(|e| e.to_string());
            drop(client);
            server.shutdown();
            answer
        }
    };
    fx.cdb.with_read(|db| db.heal_crash_points());
    fx.disk.heal_faults();
    answer
}

/// Page-device operations the commit makes before its checkpoint's sync
/// (its reads and the checkpoint's write-backs), from an unfaulted run.
fn ops_before_page_sync(path: Path) -> u64 {
    let fx = fixture();
    let io = |db: &Database| {
        let stats = db.disk_stats();
        stats.reads + stats.writes
    };
    let before = fx.cdb.with_read(io);
    make_one(&fx, path, None).unwrap();
    let ops = fx.cdb.with_read(io) - before;
    std::fs::remove_dir_all(&fx.dir).ok();
    ops
}

fn check(path: Path, fault: Fault) {
    let what = format!("{path:?} / {fault:?}");
    let ops = match fault {
        Fault::PageSync => ops_before_page_sync(path),
        _ => 0,
    };
    let fx = fixture();
    let earlier = fx.cdb.begin_read();
    let answer = make_one(&fx, path, Some((fault, ops)));
    match fault {
        Fault::PageSync => assert_eq!(
            fx.disk.injected().eio,
            1,
            "{what}: the sync must have failed"
        ),
        Fault::CheckpointWrite => assert_eq!(
            fx.disk.injected().torn_writes,
            1,
            "{what}: the write-back must have failed inside the checkpoint"
        ),
        Fault::CommitDone => {}
    }
    let oid = answer.unwrap_or_else(|e| panic!("{what}: a durable commit answered {e}"));

    // Exactly once, and the fault is what the store reports.
    fx.cdb.with_read(|db| {
        assert_eq!(db.instances_of(fx.widget, false), vec![oid], "{what}");
        assert_eq!(db.health(), HealthState::Degraded, "{what}");
    });
    // Published: the watermark moved past it, a snapshot pinned before
    // does not see it, one pinned after does. (An autocommit under
    // `with_exclusive` bypasses versioning by design.)
    if !matches!(path, Path::Autocommit) {
        assert!(fx.cdb.visible_lsn() > earlier.lsn(), "{what}");
        assert!(!earlier.exists(oid).unwrap(), "{what}");
    }
    assert_eq!(fx.cdb.begin_read().get_attr(oid, "label").unwrap(), label());
    drop(earlier);

    // And it survives a reopen of the directory.
    let Fixture {
        cdb,
        disk,
        dir,
        widget,
    } = fx;
    drop((cdb, disk));
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    assert_eq!(db.instances_of(widget, false), vec![oid], "{what}");
    assert_eq!(db.get_attr(oid, "label").unwrap(), label());
    db.verify_integrity().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The satellite bug of this contract: over the wire, a page-sync fault in
/// the checkpoint a commit trips used to answer `TransientStorage`, and the
/// client's retry loop made the object twice.
#[test]
fn a_durable_commit_is_answered_once_over_the_wire_despite_a_failed_page_sync() {
    check(Path::Wire, Fault::PageSync);
}

#[test]
fn every_post_durability_fault_answers_ok_on_every_path() {
    for path in [Path::Autocommit, Path::WriteTxn, Path::Wire] {
        for fault in [Fault::CommitDone, Fault::CheckpointWrite, Fault::PageSync] {
            check(path, fault);
        }
    }
}
