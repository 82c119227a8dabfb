//! Opening a data directory (DESIGN.md §16.2): one format, one open body,
//! one copy of the log.
//!
//! - both constructors stamp a fresh log with the format version before
//!   anything is logged, and no open, schema message or checkpoint
//!   writes a file beside the log and the page files: the schema rides
//!   the log;
//! - a dump of another format version is refused with the typed error;
//! - one reopen records one `corion_storage_device_reopen_latency_ns`
//!   sample, covering the whole open;
//! - opening a directory that holds committed batches reads the log device
//!   once: recovery scans what the device returns, and no in-memory copy
//!   of the log is loaded beside it;
//! - that read is a fault site: EIO or a short read there fails the open,
//!   and a scrub, with the typed error and truncates nothing;
//! - the rebuild that follows recovery (DESIGN.md §16.3) reopens inline
//!   and chained records, deletes and relocations to the same object
//!   count, class extensions and next serial, at one stripe and at
//!   sixteen, and is one `corion_core_rebuild_latency_ns` sample.
//!
//! Refusing a directory of another version, untouched, is in
//! `tests/page_records.rs`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion::core::evolution::{AttrTypeChange, Maintenance};
use corion::storage::wal::{format_header, FORMAT_VERSION, LOG_MAGIC};
use corion::storage::{
    fnv1a64, DeviceMetrics, FaultyDevice, FileDisk, FileWal, LogDevice, MemLog, SimDisk,
    StorageError, StorageResult,
};
use corion::{ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError, Domain, Value};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "corion_open_{}_{tag}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn part_class(db: &mut Database) -> ClassId {
    db.define_class(ClassBuilder::new("Part").attr("text", Domain::String))
        .unwrap()
}

#[test]
fn both_constructors_stamp_a_fresh_directory() {
    let dir = fresh_dir("stamp_open");
    drop(Database::open(&dir, DbConfig::default()).unwrap());
    let log = std::fs::read(dir.join(FileWal::LOG_FILE)).unwrap();
    assert_eq!(log, format_header(LOG_MAGIC), "the header alone");
    std::fs::remove_dir_all(&dir).ok();

    let dir = fresh_dir("stamp_devices");
    let log = Arc::new(MemLog::new());
    let db = Database::with_devices(
        &dir,
        DbConfig::default(),
        Arc::new(SimDisk::new()),
        Arc::clone(&log) as Arc<dyn LogDevice>,
    )
    .unwrap();
    drop(db);
    assert_eq!(log.read_all().unwrap(), format_header(LOG_MAGIC));
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "no file");
    std::fs::remove_dir_all(&dir).ok();
}

/// The names of the files in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn no_open_schema_message_or_checkpoint_writes_a_schema_file() {
    let dir = fresh_dir("no_sidecar");
    let files = [
        corion::storage::DirLock::LOCK_FILE,
        FileDisk::PAGES_FILE,
        FileDisk::SUMS_FILE,
        FileWal::LOG_FILE,
    ];
    let mut want: Vec<String> = files.iter().map(|f| f.to_string()).collect();
    want.sort();
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    assert_eq!(file_names(&dir), want, "open");
    let part = part_class(&mut db);
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
    let a = db.make(asm, vec![], vec![]).unwrap();
    db.make(part, vec![], vec![(a, "parts")]).unwrap();
    db.change_attribute_type(
        asm,
        "parts",
        AttrTypeChange::ExclusiveToShared,
        Maintenance::Immediate,
    )
    .unwrap();
    db.drop_attribute(part, "text").unwrap();
    assert_eq!(file_names(&dir), want, "schema messages");
    db.checkpoint().unwrap();
    assert_eq!(file_names(&dir), want, "checkpoint");
    db.drop_class(asm).unwrap();
    drop(db);

    // The reopen finds the schema in the log alone.
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    assert_eq!(file_names(&dir), want, "reopen");
    assert!(db.class_by_name("Asm").is_err(), "dropped");
    let part = db.class_by_name("Part").unwrap();
    assert!(db.class(part).unwrap().attr("text").is_none(), "dropped");
    assert_eq!(db.instances_of(part, false).len(), 0, "deleted with Asm");
    db.verify_integrity().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dump_of_another_format_version_is_refused() {
    let mut db = Database::new();
    let part = part_class(&mut db);
    db.make(part, vec![("text", Value::Str("x".into()))], vec![])
        .unwrap();
    let image = db.dump().unwrap();
    assert_eq!(image[..8], format_header(b"CORION0"));
    assert!(Database::restore(&image, DbConfig::default()).is_ok());

    // The same image sealed as the version before this one.
    let mut older = image.clone();
    older[7] -= 1;
    let body = older.len() - 8;
    let sum = fnv1a64(&older[..body]);
    older[body..].copy_from_slice(&sum.to_le_bytes());
    match Database::restore(&older, DbConfig::default()) {
        Err(DbError::Storage(e)) => assert_eq!(
            e,
            StorageError::FormatVersion {
                found: FORMAT_VERSION - 1,
                expected: FORMAT_VERSION,
            }
        ),
        Err(e) => panic!("refused with another error: {e}"),
        Ok(_) => panic!("a dump of another version was restored"),
    }
}

#[test]
fn one_reopen_records_one_latency_sample() {
    let dir = fresh_dir("latency");
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    let part = part_class(&mut db);
    db.make(part, vec![], vec![]).unwrap();
    drop(db);
    let db = Database::open(&dir, DbConfig::default()).unwrap();
    let samples = db
        .metrics_snapshot()
        .histogram("corion_storage_device_reopen_latency_ns")
        .map_or(0, |h| h.count);
    assert_eq!(samples, 1, "one open, one sample");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each class's direct members, sorted.
fn members(db: &Database, classes: &[ClassId]) -> Vec<Vec<corion::Oid>> {
    classes
        .iter()
        .map(|&c| {
            let mut oids = db.instances_of(c, false);
            oids.sort();
            oids
        })
        .collect()
}

#[test]
fn a_reopen_rebuilds_the_same_table_at_one_and_at_sixteen_stripes() {
    for shards in [1, 16] {
        let dir = fresh_dir(&format!("rebuild_{shards}"));
        let config = DbConfig {
            shards,
            ..DbConfig::default()
        };
        let mut db = Database::open(&dir, config).unwrap();
        let part = part_class(&mut db);
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr("text", Domain::String))
            .unwrap();
        // Inline records, and every 50th one oversized: chained over pages.
        let parts: Vec<_> = (0..600)
            .map(|i| {
                let text = if i % 50 == 7 {
                    "x".repeat(20_000)
                } else {
                    format!("p{i}")
                };
                db.make(part, vec![("text", Value::Str(text))], vec![])
                    .unwrap()
            })
            .collect();
        let asms: Vec<_> = (0..40)
            .map(|i| {
                db.make(asm, vec![("text", Value::Str(format!("a{i}")))], vec![])
                    .unwrap()
            })
            .collect();
        db.checkpoint().unwrap();
        // Deletes, and relocations: records that outgrow their page, and
        // inline records that become chained. The last object made is
        // deleted, so only the log remembers the highest serial.
        for &p in parts.iter().step_by(9) {
            db.delete(p).unwrap();
        }
        for (i, &p) in parts
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 13 == 1 && i % 9 != 0)
        {
            let len = if i % 2 == 0 { 3_000 } else { 9_000 };
            db.set_attr(p, "text", Value::Str("y".repeat(len))).unwrap();
        }
        db.delete(*asms.last().unwrap()).unwrap();
        let before = (
            db.object_count(),
            members(&db, &[part, asm]),
            db.next_serial_hint(),
        );
        drop(db);

        let db = Database::open(&dir, config).unwrap();
        let after = (
            db.object_count(),
            members(&db, &[part, asm]),
            db.next_serial_hint(),
        );
        assert_eq!(after, before, "shards={shards}");
        for oid in after.1.iter().flatten() {
            db.get(*oid).unwrap();
        }
        let snap = db.metrics_snapshot();
        let rebuilds = snap
            .histogram("corion_core_rebuild_latency_ns")
            .map_or(0, |h| h.count);
        assert_eq!(rebuilds, 1, "one open, one rebuild");
        assert_eq!(
            snap.counter("corion_core_rebuild_records_total"),
            before.0 as u64,
            "every live record decoded once"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A log device that counts whole-log reads.
struct CountingLog {
    inner: FaultyDevice<MemLog>,
    reads: Arc<AtomicU64>,
}

impl LogDevice for CountingLog {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_all()
    }
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        self.inner.append(bytes)
    }
    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate(len)
    }
    fn replace(&self, contents: &[u8]) -> StorageResult<()> {
        self.inner.replace(contents)
    }
    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()> {
        self.inner.corrupt_byte(offset, mask)
    }
}

#[test]
fn opening_a_directory_reads_its_log_once() {
    let dir = fresh_dir("read_once");
    let disk = FaultyDevice::new(SimDisk::new(), DeviceMetrics::detached());
    let log = FaultyDevice::new(MemLog::new(), DeviceMetrics::detached());
    let mut db = Database::with_devices(
        &dir,
        DbConfig::default(),
        Arc::new(disk.clone()),
        Arc::new(log.clone()),
    )
    .unwrap();
    let part = part_class(&mut db);
    let parts: Vec<_> = (0..5)
        .map(|i| {
            db.make(part, vec![("text", Value::Str(format!("p{i}")))], vec![])
                .unwrap()
        })
        .collect();
    drop(db);
    assert!(!log.is_empty(), "the log holds committed batches");

    let reads = Arc::new(AtomicU64::new(0));
    let counting = CountingLog {
        inner: log,
        reads: Arc::clone(&reads),
    };
    let db = Database::with_devices(
        &dir,
        DbConfig::default(),
        Arc::new(disk),
        Arc::new(counting),
    )
    .unwrap();
    assert_eq!(reads.load(Ordering::Relaxed), 1, "one open, one read");
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(
            db.get_attr(*p, "text").unwrap(),
            Value::Str(format!("p{i}"))
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The one log read of an open, and of a scrub, is a fault site: EIO or a
/// short read there answers the typed error and truncates nothing, and
/// once the device is healed a reopen recovers every commit.
#[test]
fn a_failed_log_read_fails_the_open_and_the_scrub_and_truncates_nothing() {
    let dir = fresh_dir("log_read_fault");
    let disk = FaultyDevice::new(SimDisk::new(), DeviceMetrics::detached());
    let log = FaultyDevice::new(MemLog::new(), DeviceMetrics::detached());
    let open = || {
        Database::with_devices(
            &dir,
            DbConfig::default(),
            Arc::new(disk.clone()),
            Arc::new(log.clone()),
        )
    };
    type Arm = fn(&FaultyDevice<MemLog>);
    let faults: [(Arm, StorageError); 2] = [
        (|l| l.arm_eio(0), StorageError::DeviceIo { op: "log read" }),
        (
            |l| l.arm_short_read(0),
            StorageError::ShortRead { op: "log read" },
        ),
    ];
    let mut db = open().unwrap();
    let part = part_class(&mut db);
    let parts: Vec<_> = (0..5)
        .map(|i| {
            db.make(part, vec![("text", Value::Str(format!("p{i}")))], vec![])
                .unwrap()
        })
        .collect();
    let len = log.len();
    for (arm, expected) in &faults {
        arm(&log);
        match db.scrub() {
            Err(DbError::Storage(e)) => assert_eq!(&e, expected),
            other => panic!("scrub over a failing log read: {other:?}"),
        }
        log.heal_faults();
        assert_eq!(log.len(), len, "the scrub truncated nothing");
    }
    drop(db);
    for (arm, expected) in &faults {
        arm(&log);
        match open() {
            Err(DbError::Storage(e)) => assert_eq!(&e, expected),
            Err(e) => panic!("reopen over a failing log read: {e:?}"),
            Ok(_) => panic!("reopen over a failing log read answered Ok"),
        }
        log.heal_faults();
        assert_eq!(log.len(), len, "the failed open truncated nothing");
    }
    assert_eq!(log.injected().eio, 2);
    assert_eq!(log.injected().short_reads, 2);
    let db = open().unwrap();
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(
            db.get_attr(*p, "text").unwrap(),
            Value::Str(format!("p{i}"))
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
