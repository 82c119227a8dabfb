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
//! cascades) into one [`Overlay`](crate::Overlay), reading through it, and
//! applies it as one logged batch before the schema sidecar is written.

pub mod deferred;
pub mod oplog;
pub mod taxonomy;
pub mod typechange;

pub use oplog::{FlagChange, LogEntry, OperationLog};
pub use typechange::{AttrTypeChange, Maintenance};
