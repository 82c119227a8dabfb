//! Whole-database dump and restore, and the schema sidecar of a data
//! directory.
//!
//! Durability across processes comes from the data directory
//! ([`Database::open`]): the WAL and page files hold the objects, and the
//! sidecar below holds the schema. [`Database::dump`] /
//! [`Database::restore`] are a portable copy beside that: a self-contained
//! byte image of the catalog, the operation logs, and every object.
//! Objects are written segment by segment in physical scan order, and
//! restored with a chain of `near` hints, so the clustering the `:parent`
//! clauses built up (§2.3) survives the round trip.
//!
//! Both are sealed the same way: an 8-byte header carrying the
//! data-directory format version ([`format_header`]), the body, and a
//! trailing FNV-1a checksum over both. Another version is refused with
//! [`StorageError::FormatVersion`] before anything else is read, and a
//! truncated or bit-flipped image is rejected instead of half-restored;
//! everything uses the same hand-rolled codec as the page layer, so a dump
//! is readable without any external crate. [`Database::save_to_file`]
//! writes through a temporary file and renames it into place, so a crash
//! mid-save leaves the previous dump intact. Crash recovery of the
//! *in-process* store (WAL replay + in-memory map rebuild) is
//! [`Database::recover`] in `db`.

use std::collections::HashMap;
use std::path::Path;

use corion_storage::codec::{self, Reader};
use corion_storage::wal::{check_format_header, format_header, FORMAT_VERSION};
use corion_storage::{fnv1a64, SegmentId, StorageError};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::evolution::oplog::{FlagChange, LogEntry, OperationLog};
use crate::object::Object;
use crate::oid::ClassId;
use crate::schema::catalog::Catalog;

/// File name of the schema sidecar inside a data directory.
pub(crate) const META_FILE: &str = "meta.corion";

/// Header magics of a dump and of the schema sidecar, the file beside a
/// data directory's WAL and page files that holds its [`Schema`].
const DUMP_MAGIC: &[u8; 7] = b"CORION0";
const META_MAGIC: &[u8; 7] = b"CORIONM";

/// The "engine memory" the crash model does not cover: the catalog, the
/// OID serial counter, and every class's operation log.
pub(crate) type Schema = (Catalog, u64, HashMap<ClassId, OperationLog>);

/// A reader over the body of a sealed image. The header is checked first,
/// so another format version is refused however its body is laid out;
/// then the checksum, whose failure is reported as `what`.
fn unseal<'a>(image: &'a [u8], magic: &[u8; 7], what: &'static str) -> DbResult<Reader<'a>> {
    check_format_header(image, magic)?;
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
        let mut r = unseal(image, DUMP_MAGIC, "dump checksum")?;
        let schema = Self::decode_schema(&mut r)?;
        let mut db = Database::with_config(config);
        db.install_schema(schema);
        // Recreate segments 0..=max referenced by the catalog.
        let max_seg = db
            .catalog
            .all_classes()
            .iter()
            .filter_map(|&c| db.catalog.class(c).ok().map(|c| c.segment.0))
            .max()
            .unwrap_or(0);
        for _ in 0..=max_seg {
            db.store.create_segment()?;
        }
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

    /// Dumps to a file, atomically: the image is written to a sibling
    /// temporary file, fsynced, renamed into place, and the parent
    /// directory is fsynced, so a crash mid-save never clobbers an existing
    /// dump with a partial one — the rename only happens once every byte is
    /// durable, the rename itself is durable once the directory entry is
    /// (a rename lives in the directory, not the file, so skipping the
    /// parent fsync can lose the *name* while keeping the bytes), and a
    /// failed rename removes the temporary instead of leaving an orphan
    /// beside the dump.
    pub fn save_to_file(&mut self, path: impl AsRef<std::path::Path>) -> DbResult<()> {
        use std::io::Write;
        let image = self.dump()?;
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let io_err = |e: std::io::Error| DbError::SchemaChangeRejected {
            reason: format!("failed to write dump: {e}"),
        };
        let write_synced = |tmp: &std::path::Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(&image)?;
            // Durability point: without this, the rename can land before
            // the data and a crash leaves a valid name on garbage bytes.
            f.sync_all()
        };
        if let Err(e) = write_synced(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err(e));
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err(e));
        }
        // Second durability point: the rename is a directory mutation, and
        // directories have write-back caches too.
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent {
            corion_storage::fsync_dir(parent).map_err(io_err)?;
        }
        Ok(())
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
    // Schema codec — shared by whole-database dumps and the data-directory
    // metadata sidecar.
    // ------------------------------------------------------------------

    /// Encodes the "engine memory" the crash model does not cover: the
    /// catalog, the OID serial counter, and every class's operation log.
    fn encode_schema(&self, buf: &mut Vec<u8>) {
        self.catalog.encode(buf);
        codec::put_u64(
            buf,
            self.next_serial.load(std::sync::atomic::Ordering::Relaxed),
        );
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
    fn decode_schema(r: &mut Reader<'_>) -> DbResult<Schema> {
        let catalog = Catalog::decode(r)?;
        let next_serial = r.u64("next serial")?;
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
        Ok((catalog, next_serial, oplogs))
    }

    /// Makes `schema` the engine's own.
    pub(crate) fn install_schema(&mut self, (catalog, next_serial, oplogs): Schema) {
        self.catalog = catalog;
        self.oplogs = oplogs;
        self.next_serial
            .store(next_serial, std::sync::atomic::Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Data-directory schema sidecar
    // ------------------------------------------------------------------

    /// Writes the schema sidecar into the data directory, atomically
    /// (tmp + fsync + rename + directory fsync — the same discipline as
    /// [`Database::save_to_file`]). A no-op for in-memory engines. Called
    /// after every DDL operation and at [`Database::checkpoint`], so the
    /// sidecar a reopen loads is never newer than the WAL it sits beside.
    pub(crate) fn persist_meta(&mut self) -> DbResult<()> {
        let Some(dir) = self.data_dir.clone() else {
            return Ok(());
        };
        let mut buf = format_header(META_MAGIC).to_vec();
        self.encode_schema(&mut buf);
        let sum = fnv1a64(&buf);
        codec::put_u64(&mut buf, sum);
        corion_storage::atomic_replace(&dir.join(META_FILE), &buf).map_err(|_| {
            DbError::Storage(StorageError::DeviceIo {
                op: "schema sidecar write",
            })
        })
    }

    /// Reads the schema sidecar of `dir`, the first step of every open.
    /// `None` is a fresh directory: no sidecar, and its log and page store
    /// hold no byte (`holds_data`). Data with no sidecar is refused
    /// (`found: 0`), since an empty catalog would orphan every object.
    pub(crate) fn read_meta(dir: &Path, holds_data: bool) -> DbResult<Option<Schema>> {
        let image = match std::fs::read(dir.join(META_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !holds_data => return Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let expected = FORMAT_VERSION;
                return Err(StorageError::FormatVersion { found: 0, expected }.into());
            }
            Err(_) => {
                return Err(DbError::Storage(StorageError::DeviceIo {
                    op: "schema sidecar read",
                }))
            }
        };
        let mut r = unseal(&image, META_MAGIC, "schema sidecar checksum")?;
        Ok(Some(Self::decode_schema(&mut r)?))
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
        // skipped rather than attempted on "" (which would error despite a
        // successful save). `Path::parent` models this case.
        assert_eq!(
            std::path::Path::new("bare.corion")
                .parent()
                .filter(|p| !p.as_os_str().is_empty()),
            None
        );
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
    fn corrupt_schema_sidecar_is_rejected_not_ignored() {
        let dir = std::env::temp_dir().join(format!("corion_openmeta_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut db = Database::open(&dir, DbConfig::default()).unwrap();
            db.define_class(ClassBuilder::new("Part")).unwrap();
        }
        let meta = dir.join(super::META_FILE);
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&meta, &bytes).unwrap();
        let err = match Database::open(&dir, DbConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("corrupt sidecar must fail"),
        };
        assert!(
            matches!(
                err,
                crate::DbError::Storage(corion_storage::StorageError::Corrupt { .. })
            ),
            "bit-flipped sidecar must be rejected, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
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
