//! Schema evolution (paper §4).
//!
//! * [`taxonomy`] — the \[BANE87b\] operations whose semantics the extended
//!   composite model revises: drop attribute, add/remove superclass, drop
//!   class, change attribute inheritance (§4.1);
//! * [`typechange`] — the state-independent changes **I1–I4** and
//!   state-dependent changes **D1–D3** to attribute types (§4.2–4.3);
//! * [`oplog`] — per-class operation logs and change counts (CC) for the
//!   *deferred* implementation of I1–I4;
//! * [`deferred`] — application of pending log entries when an instance is
//!   accessed.
//!
//! A message records its instance maintenance (rewrites and Deletion-Rule
//! cascades) into one [`Overlay`], reading through it, and applies it in
//! one logged batch with the schema image the message leaves
//! (`Database::schema_message`). A batch that rolls back takes the
//! message's catalog and operation-log edits with it.

pub mod deferred;
pub mod oplog;
pub mod taxonomy;
pub mod typechange;

pub use oplog::{FlagChange, LogEntry, OperationLog};
pub use typechange::{AttrTypeChange, Maintenance};

use corion_storage::HealthState;

use crate::db::Database;
use crate::error::DbResult;
use crate::overlay::Overlay;

impl Database {
    /// The one body of every schema message. `edit` changes the catalog
    /// and the operation logs and returns the instance maintenance it
    /// recorded; one batch holds what `edit` logged (a `define_class`
    /// segment), that overlay and the new schema image. On any `Err` the
    /// catalog and operation logs are put back. On a healthy store the
    /// batch rolled back, and the object table the nested apply moved is
    /// rebuilt from the pages; a poisoned store's batch is in doubt, and
    /// [`Database::recover`] settles catalog and instances from the log.
    pub(crate) fn schema_message(
        &mut self,
        edit: impl FnOnce(&mut Self) -> DbResult<Overlay>,
    ) -> DbResult<()> {
        self.forbid_in_transaction("change the schema")?;
        let before = (self.catalog.clone(), self.oplogs.clone());
        let mut applying = false;
        let result = self.atomic(|db| {
            let ov = edit(db)?;
            if !ov.is_empty() {
                applying = true;
                db.overlay_apply(ov)?;
            }
            db.log_schema()
        });
        if result.is_err() {
            (self.catalog, self.oplogs) = before;
            if applying && self.store.health() == HealthState::Healthy {
                self.rebuild_derived_state()?;
            }
        }
        result
    }
}
