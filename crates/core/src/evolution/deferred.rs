//! Deferred application of state-independent changes (paper §4.3).
//!
//! > "When an instance of C is accessed, the CC of the instance is checked
//! > against the CC in the operation log associated with the class: if
//! > CC(instance) < CC(class), then the flags in the reverse composite
//! > references in the instance must be modified. … Once the changes have
//! > been applied, the CC in the instance is set to the highest CC in the
//! > operation log. When a new instance of the class C is created, the CC
//! > of the instance is set to the current value of the CC of the class."
//!
//! This hook is called from [`crate::Database::get`], i.e. on *every*
//! access path (reads, traversals, deletion), so no stale flags can ever be
//! observed — and from MVCC snapshot reads, on a version-chain image (the
//! bytes the store held) as on a base record.

use crate::db::Database;
use crate::error::DbResult;
use crate::object::Object;
use crate::schema::lattice;

/// Applies every pending log entry to `obj`; returns `true` if the object
/// changed (including a bare CC bump) and must be re-persisted.
pub(crate) fn apply_pending(db: &Database, obj: &mut Object) -> DbResult<bool> {
    let class_cc = db.catalog.class(obj.oid.class)?.change_count;
    if obj.cc >= class_cc {
        return Ok(false);
    }
    if let Some(log) = db.oplogs.get(&obj.oid.class) {
        for entry in log.pending_since(obj.cc) {
            let source = entry.source_class;
            entry.change.apply(&mut obj.reverse_refs, |pc| {
                lattice::is_subclass_of(&db.catalog, pc, source)
            });
        }
    }
    obj.cc = class_cc;
    Ok(true)
}
