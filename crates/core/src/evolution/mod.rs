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
//! cascades) into one [`Overlay`], reading through it, and applies it as
//! one logged batch before the schema sidecar is written
//! ([`Database::schema_message`]). A batch that rolls back takes the
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
    /// The one body of every §4 message. `edit` changes the catalog and
    /// the operation logs and returns the instance maintenance it recorded;
    /// that overlay is applied as one batch, then the schema sidecar is
    /// written. An `Err` up to and including the apply, on a store that is
    /// not poisoned, rolled the batch back: the catalog and the operation
    /// logs are put back as they were, so the schema matches the instances
    /// without a reopen. A poisoned store's batch is in doubt; `recover`
    /// settles the instances, not the catalog (ROADMAP item 5).
    pub(crate) fn schema_message(
        &mut self,
        edit: impl FnOnce(&mut Self) -> DbResult<Overlay>,
    ) -> DbResult<()> {
        self.forbid_in_transaction("change the schema")?;
        let before = (self.catalog.clone(), self.oplogs.clone());
        let applied = edit(self).and_then(|ov| match ov.is_empty() {
            true => Ok(()),
            false => self.overlay_apply(ov).map(drop),
        });
        if let Err(e) = applied {
            if self.store.health() != HealthState::Poisoned {
                (self.catalog, self.oplogs) = before;
            }
            return Err(e);
        }
        self.persist_meta()
    }
}
