//! Whole-database dump and restore, and the schema image the log carries.
//!
//! Durability across processes comes from the data directory
//! ([`Database::open`]): the WAL and page files hold the objects, and each
//! schema change logs the schema image (`Database::log_schema`) in its
//! own batch. [`Database::dump`] / [`Database::restore`] are a portable
//! copy beside that: a self-contained byte image of the catalog, the
//! operation logs, the OID serial counter, and every object.
//! Objects are written segment by segment in physical scan order, and
//! restored with a chain of `near` hints, so the clustering the `:parent`
//! clauses built up (§2.3) survives the round trip.
//!
//! A dump is sealed: an 8-byte header carrying the
//! data-directory format version ([`format_header`]), the body, and a
//! trailing FNV-1a checksum over both. Another version is refused with
//! [`StorageError::FormatVersion`] before anything else is read, and a
//! truncated or bit-flipped image is rejected instead of half-restored;
//! everything uses the same hand-rolled codec as the page layer, so a dump
//! is readable without any external crate. [`Database::save_to_file`]
//! writes through [`corion_storage::atomic_replace`], so a crash mid-save
//! leaves the previous dump intact. Crash recovery of the
//! *in-process* store (WAL replay + in-memory map rebuild) is
//! [`Database::recover`] in `db`.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use corion_storage::codec::{self, Reader};
use corion_storage::wal::{check_format_header, format_header};
use corion_storage::{fnv1a64, SegmentId, StorageError};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::evolution::oplog::{FlagChange, LogEntry, OperationLog};
use crate::object::Object;
use crate::oid::ClassId;
use crate::schema::catalog::Catalog;

/// Header magic of a dump.
const DUMP_MAGIC: &[u8; 7] = b"CORION0";

/// The schema: the catalog and every class's operation log.
pub(crate) type Schema = (Catalog, HashMap<ClassId, OperationLog>);

/// A reader over the body of a dump. The header is checked first, so
/// another format version is refused however its body is laid out; then
/// the checksum.
fn unseal(image: &[u8]) -> DbResult<Reader<'_>> {
    check_format_header(image, DUMP_MAGIC)?;
    let what = "dump checksum";
    if image.len() < 16 {
        return Err(StorageError::Truncated { context: what }.into());
    }
    let (body, trailer) = image.split_at(image.len() - 8);
    if fnv1a64(body).to_le_bytes() != trailer {
        return Err(StorageError::Corrupt { context: what }.into());
    }
    Ok(Reader::new(&body[8..]))
}

impl Database {
    /// Serializes the whole database (schema, operation logs, objects) into
    /// a self-contained byte image. Fails inside a transaction (the image
    /// must be a committed state).
    pub fn dump(&mut self) -> DbResult<Vec<u8>> {
        self.forbid_in_transaction("dump")?;
        let mut buf = format_header(DUMP_MAGIC).to_vec();
        self.encode_schema(&mut buf);
        codec::put_u64(&mut buf, self.next_serial.load(Ordering::Relaxed));
        // Objects, per segment in physical scan order (clustering-faithful).
        let mut segments: Vec<SegmentId> = self
            .catalog
            .all_classes()
            .iter()
            .filter_map(|&c| self.catalog.class(c).ok().map(|c| c.segment))
            .collect();
        segments.sort();
        segments.dedup();
        codec::put_varint(&mut buf, segments.len() as u64);
        for seg in segments {
            codec::put_u32(&mut buf, seg.0);
            // The records the object table names: all of them but the
            // earlier copies of an OID found twice. One that does not
            // decode fails the dump.
            let (mut live, mut records) = (0u64, Vec::new());
            let pages = self.store.pages_of(seg)?;
            self.store.scan(seg, &pages, |phys, bytes| {
                if self.shards.get(Object::decode(bytes)?.oid) == Some(phys) {
                    live += 1;
                    codec::put_bytes(&mut records, bytes);
                }
                Ok(())
            })?;
            codec::put_varint(&mut buf, live);
            buf.extend_from_slice(&records);
        }
        let sum = fnv1a64(&buf);
        codec::put_u64(&mut buf, sum);
        Ok(buf)
    }

    /// Reconstructs a database from a [`Database::dump`] image, using the
    /// given configuration for the new store. An image of another format
    /// version is refused with [`StorageError::FormatVersion`].
    pub fn restore(image: &[u8], config: crate::db::DbConfig) -> DbResult<Database> {
        let mut r = unseal(image)?;
        let schema = Self::decode_schema(&mut r)?;
        let next_serial = r.u64("next serial")?;
        let mut db = Database::with_config(config);
        (db.catalog, db.oplogs) = schema;
        db.next_serial.store(next_serial, Ordering::Relaxed);
        // Recreate segments 0..=max referenced by the catalog, in one
        // batch with the serial floor and the schema the image carries.
        let max_seg = db
            .catalog
            .all_classes()
            .iter()
            .filter_map(|&c| db.catalog.class(c).ok().map(|c| c.segment.0))
            .max()
            .unwrap_or(0);
        db.atomic(|db| {
            for _ in 0..=max_seg {
                db.store.create_segment()?;
            }
            db.store.note_serial_floor(next_serial);
            db.log_schema()
        })?;
        // Objects: re-insert in dump order, chaining near-hints to keep the
        // original physical neighbourhoods together; the object table and
        // extensions are rebuilt from the pages once at the end.
        let n_segs = r.varint("segment count")? as usize;
        for _ in 0..n_segs {
            let seg = SegmentId(r.u32("segment id")?);
            let n_objs = r.varint("object count")? as usize;
            let mut prev = None;
            for _ in 0..n_objs {
                prev = Some(db.store.insert(seg, r.bytes("object record")?, prev)?);
            }
        }
        db.rebuild_derived_state()?;
        Ok(db)
    }

    /// Dumps to a file, atomically ([`corion_storage::atomic_replace`]):
    /// the image goes to `<path>.tmp`, is fsynced, renamed into place, and
    /// the parent directory is fsynced, so a crash mid-save never clobbers
    /// an existing dump with a partial one, and a failed write or rename
    /// removes the temporary instead of leaving an orphan beside the dump.
    pub fn save_to_file(&mut self, path: impl AsRef<std::path::Path>) -> DbResult<()> {
        let image = self.dump()?;
        corion_storage::atomic_replace(path.as_ref(), &image).map_err(|e| {
            DbError::SchemaChangeRejected {
                reason: format!("failed to write dump: {e}"),
            }
        })
    }

    /// Restores from a file.
    pub fn load_from_file(
        path: impl AsRef<std::path::Path>,
        config: crate::db::DbConfig,
    ) -> DbResult<Database> {
        let image = std::fs::read(path).map_err(|e| DbError::SchemaChangeRejected {
            reason: format!("failed to read dump: {e}"),
        })?;
        Database::restore(&image, config)
    }

    // ------------------------------------------------------------------
    // Schema codec — shared by whole-database dumps and the log's schema
    // records.
    // ------------------------------------------------------------------

    /// Logs the schema image in the open batch: it commits with the batch
    /// and is what [`Database::recover`] installs. The image carries no
    /// serial; the log's serial-floor records do.
    pub(crate) fn log_schema(&mut self) -> DbResult<()> {
        let mut image = Vec::new();
        self.encode_schema(&mut image);
        Ok(self.store.log_schema(image)?)
    }

    /// Encodes the schema: the catalog and every class's operation log.
    fn encode_schema(&self, buf: &mut Vec<u8>) {
        self.catalog.encode(buf);
        let mut log_classes: Vec<ClassId> = self.oplogs.keys().copied().collect();
        log_classes.sort();
        codec::put_varint(buf, log_classes.len() as u64);
        for class in log_classes {
            codec::put_u32(buf, class.0);
            let log = &self.oplogs[&class];
            codec::put_varint(buf, log.len() as u64);
            for e in log.pending_since(0) {
                codec::put_u64(buf, e.cc);
                codec::put_u8(
                    buf,
                    match e.change {
                        FlagChange::DropReverse => 0,
                        FlagChange::ClearX => 1,
                        FlagChange::ClearD => 2,
                        FlagChange::SetD => 3,
                    },
                );
                codec::put_u32(buf, e.source_class.0);
            }
        }
    }

    /// Inverse of [`Database::encode_schema`].
    pub(crate) fn decode_schema(r: &mut Reader<'_>) -> DbResult<Schema> {
        let catalog = Catalog::decode(r)?;
        let n_logs = r.varint("oplog count")? as usize;
        let mut oplogs = HashMap::new();
        for _ in 0..n_logs {
            let class = ClassId(r.u32("oplog class")?);
            let n = r.varint("oplog entries")? as usize;
            let mut log = OperationLog::new();
            for _ in 0..n {
                let cc = r.u64("oplog cc")?;
                let change = match r.u8("oplog change")? {
                    0 => FlagChange::DropReverse,
                    1 => FlagChange::ClearX,
                    2 => FlagChange::ClearD,
                    3 => FlagChange::SetD,
                    _ => {
                        return Err(DbError::Storage(StorageError::Corrupt {
                            context: "oplog change",
                        }))
                    }
                };
                let source_class = ClassId(r.u32("oplog source")?);
                log.push(LogEntry {
                    cc,
                    change,
                    source_class,
                });
            }
            oplogs.insert(class, log);
        }
        Ok((catalog, oplogs))
    }
}

#[cfg(test)]
mod tests {
    use crate::db::{Database, DbConfig};
    use crate::evolution::{AttrTypeChange, Maintenance};
    use crate::schema::attr::{CompositeSpec, Domain};
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;

    fn populated() -> Database {
        let mut db = Database::new();
        let part = db
            .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
            .unwrap();
        let asm = db
            .define_class(
                ClassBuilder::new("Asm")
                    .same_segment_as(part)
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
        for i in 0..20 {
            let p1 = db.make(part, vec![("n", Value::Int(i))], vec![]).unwrap();
            let p2 = db.make(part, vec![("n", Value::Int(-i))], vec![]).unwrap();
            db.make(
                asm,
                vec![
                    ("label", Value::Str(format!("a{i}"))),
                    ("parts", Value::Set(vec![Value::Ref(p1), Value::Ref(p2)])),
                ],
                vec![],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn dump_restore_round_trips_objects_and_schema() {
        let mut db = populated();
        let report_before = db.verify_integrity().unwrap();
        let image = db.dump().unwrap();
        let mut back = Database::restore(&image, DbConfig::default()).unwrap();
        let report_after = back.verify_integrity().unwrap();
        assert_eq!(report_before, report_after);
        // Schema survived.
        let asm = back.class_by_name("Asm").unwrap();
        assert!(back.exclusive_compositep(asm, Some("parts")).unwrap());
        // Objects and values survived.
        let part = back.class_by_name("Part").unwrap();
        assert_eq!(back.instances_of(part, false).len(), 40);
        let a0 = back
            .instances_of(asm, false)
            .into_iter()
            .find(|&o| back.get_attr(o, "label").unwrap() == Value::Str("a0".into()))
            .unwrap();
        let comps = back
            .components_of(a0, &crate::composite::Filter::all())
            .unwrap();
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn restored_database_continues_allocating_fresh_oids() {
        let mut db = populated();
        let image = db.dump().unwrap();
        let mut back = Database::restore(&image, DbConfig::default()).unwrap();
        let part = back.class_by_name("Part").unwrap();
        let fresh = back.make(part, vec![], vec![]).unwrap();
        assert!(!db.exists(fresh) || db.exists(fresh), "no panic");
        assert!(back.instances_of(part, false).contains(&fresh));
        // The fresh OID collides with nothing restored.
        assert_eq!(back.instances_of(part, false).len(), 41);
    }

    #[test]
    fn pending_deferred_changes_survive_the_round_trip() {
        let mut db = populated();
        let asm = db.class_by_name("Asm").unwrap();
        db.change_attribute_type(
            asm,
            "parts",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Deferred,
        )
        .unwrap();
        // Dump immediately: instances still carry stale flags + pending log.
        let image = db.dump().unwrap();
        let mut back = Database::restore(&image, DbConfig::default()).unwrap();
        let part = back.class_by_name("Part").unwrap();
        let some_part = back.instances_of(part, false)[0];
        let obj = back.get(some_part).unwrap();
        assert!(
            !obj.reverse_refs[0].exclusive,
            "deferred change applied on first access after restore"
        );
        back.verify_integrity().unwrap();
    }

    #[test]
    fn clustering_survives_restore() {
        let mut db = populated();
        db.clear_cache().unwrap();
        db.reset_io_stats();
        let asm = db.class_by_name("Asm").unwrap();
        let a = db.instances_of(asm, false)[5];
        let _ = db
            .components_of(a, &crate::composite::Filter::all())
            .unwrap();
        let reads_before = db.disk_stats().reads;

        let image = db.dump().unwrap();
        let back = Database::restore(&image, DbConfig::default()).unwrap();
        back.clear_cache().unwrap();
        back.reset_io_stats();
        let _ = back
            .components_of(a, &crate::composite::Filter::all())
            .unwrap();
        let reads_after = back.disk_stats().reads;
        assert!(
            reads_after <= reads_before + 1,
            "restored layout stays clustered: {reads_after} vs {reads_before}"
        );
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut db = populated();
        let mut image = db.dump().unwrap();
        assert!(
            Database::restore(&image[..4], DbConfig::default()).is_err(),
            "truncated"
        );
        image[0] = b'X';
        assert!(
            Database::restore(&image, DbConfig::default()).is_err(),
            "bad magic"
        );
    }

    #[test]
    fn file_round_trip() {
        let mut db = populated();
        let dir = std::env::temp_dir().join(format!("corion_dump_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.corion");
        db.save_to_file(&path).unwrap();
        let mut back = Database::load_from_file(&path, DbConfig::default()).unwrap();
        back.verify_integrity().unwrap();
        assert_eq!(back.object_count(), db.object_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_cleans_up_the_tmp_file() {
        // Fault injection via the filesystem: renaming a file over a
        // non-empty directory fails, exercising the rename-error path.
        let mut db = populated();
        let dir = std::env::temp_dir().join(format!("corion_rename_fault_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("db.corion")).unwrap();
        std::fs::write(dir.join("db.corion").join("occupant"), b"x").unwrap();
        let target = dir.join("db.corion");
        assert!(db.save_to_file(&target).is_err());
        let mut tmp = target.clone().into_os_string();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "orphaned .tmp left behind after a failed rename"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_tmp_write_leaves_existing_dump_intact() {
        // Fault injection: the temporary path is occupied by a directory,
        // so creating it fails before a single byte of the old dump moves.
        let mut db = populated();
        let dir = std::env::temp_dir().join(format!("corion_write_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("db.corion");
        db.save_to_file(&target).unwrap();
        let original = std::fs::read(&target).unwrap();

        let mut tmp = target.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::create_dir_all(std::path::Path::new(&tmp).join("blocker")).unwrap();
        assert!(db.save_to_file(&target).is_err());
        assert_eq!(
            std::fs::read(&target).unwrap(),
            original,
            "failed save must not disturb the existing dump"
        );
        // And the previous dump still restores.
        Database::load_from_file(&target, DbConfig::default())
            .unwrap()
            .verify_integrity()
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_fsyncs_the_parent_directory_and_relative_paths_still_work() {
        // Regression: save_to_file once skipped the parent-directory fsync
        // after its rename, so a crash could lose the rename itself. The
        // fsync path opens the parent directory — this exercises it for a
        // nested absolute path and for a bare filename (whose parent
        // component is empty and must not be opened as a directory).
        let mut db = populated();
        let dir = std::env::temp_dir().join(format!("corion_dirsync_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        let target = dir.join("nested").join("db.corion");
        db.save_to_file(&target).unwrap();
        Database::load_from_file(&target, DbConfig::default())
            .unwrap()
            .verify_integrity()
            .unwrap();
        // A bare filename has an empty parent component; the fsync must be
        // skipped rather than attempted on "" (which would fail the save
        // after its rename landed). It lands in the working directory.
        let bare = format!("corion_bare_{}.corion", std::process::id());
        let saved = db.save_to_file(&bare);
        let back = Database::load_from_file(&bare, DbConfig::default());
        std::fs::remove_file(&bare).ok();
        saved.unwrap();
        back.unwrap().verify_integrity().unwrap();
        let mut tmp = bare.clone();
        tmp.push_str(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "no temporary left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_survives_a_process_restart_with_schema_and_objects() {
        let dir = std::env::temp_dir().join(format!("corion_open_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (part_name, oid) = {
            let mut db = Database::open(&dir, DbConfig::default()).unwrap();
            assert_eq!(db.data_dir(), Some(dir.as_path()));
            let part = db
                .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
                .unwrap();
            let oid = db.make(part, vec![("n", Value::Int(7))], vec![]).unwrap();
            ("Part", oid)
        }; // drop releases the directory lock
        {
            let mut db = Database::open(&dir, DbConfig::default()).unwrap();
            let part = db.class_by_name(part_name).unwrap();
            assert!(db.exists(oid), "committed object survives the reopen");
            assert_eq!(db.get_attr(oid, "n").unwrap(), Value::Int(7));
            db.verify_integrity().unwrap();
            // Fresh allocations continue past everything restored.
            let fresh = db.make(part, vec![], vec![]).unwrap();
            assert_ne!(fresh, oid);
            assert_eq!(db.instances_of(part, false).len(), 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_opener_is_refused_while_the_directory_is_locked() {
        let dir = std::env::temp_dir().join(format!("corion_openlock_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _first = Database::open(&dir, DbConfig::default()).unwrap();
        let err = match Database::open(&dir, DbConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("double-open must fail"),
        };
        assert!(
            matches!(
                err,
                crate::DbError::Storage(corion_storage::StorageError::LockConflict { .. })
            ),
            "double-open must fail with a lock conflict, got {err:?}"
        );
        drop(_first);
        // Lock released on drop: a third open succeeds.
        Database::open(&dir, DbConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_installs_the_schema_the_log_committed() {
        let catalog = |db: &Database| {
            let mut bytes = Vec::new();
            db.catalog().encode(&mut bytes);
            bytes
        };
        let mut db = populated();
        let asm = db.class_by_name("Asm").unwrap();
        db.drop_attribute(asm, "label").unwrap();
        let want = catalog(&db);
        db.simulate_crash();
        db.recover().unwrap();
        assert_eq!(catalog(&db), want, "from the schema record");
        db.checkpoint().unwrap();
        db.simulate_crash();
        db.recover().unwrap();
        assert_eq!(catalog(&db), want, "re-asserted by the checkpoint");
        db.verify_integrity().unwrap();
    }

    #[test]
    fn dump_inside_a_transaction_is_rejected() {
        let mut db = populated();
        db.begin_transaction().unwrap();
        assert!(matches!(
            db.dump(),
            Err(crate::DbError::TransactionState { .. })
        ));
        db.commit_transaction().unwrap();
        db.dump().unwrap();
    }
}
