//! Engine error type.

use std::fmt;

use corion_storage::StorageError;

use crate::oid::{ClassId, Oid};
use crate::refs::RefKind;

/// Result alias for engine operations.
pub type DbResult<T> = Result<T, DbError>;

/// Errors raised by the CORION engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// A class name that is not in the catalog.
    NoSuchClassName(String),
    /// A class id that is not in the catalog.
    NoSuchClass(ClassId),
    /// An attribute name that does not exist on the class.
    NoSuchAttribute {
        /// Class looked up on.
        class: ClassId,
        /// The missing attribute.
        attr: String,
    },
    /// An OID that does not resolve to a live object.
    NoSuchObject(Oid),
    /// A class with this name already exists.
    DuplicateClass(String),
    /// An attribute with this name already exists on the class (or an
    /// ancestor it inherits from).
    DuplicateAttribute {
        /// Class being defined or changed.
        class: ClassId,
        /// The clashing attribute name.
        attr: String,
    },
    /// A value did not match the attribute's domain.
    DomainMismatch {
        /// Attribute being assigned.
        attr: String,
        /// What the domain expected.
        expected: String,
        /// What was supplied.
        got: String,
    },
    /// Violation of one of the Topology Rules of §2.2.
    TopologyViolation {
        /// Which rule (1–4) was violated.
        rule: u8,
        /// The object whose parent sets violate the rule.
        object: Oid,
        /// Explanation in the paper's vocabulary.
        detail: String,
    },
    /// Violation of the Make-Component Rule of §2.2.
    MakeComponentViolation {
        /// The would-be component.
        object: Oid,
        /// The reference kind that was being added.
        adding: RefKind,
        /// Explanation.
        detail: String,
    },
    /// Making `child` a component of `parent` would close a part-hierarchy
    /// cycle (`parent` is already in the component set of `child`).
    CycleDetected {
        /// The would-be component.
        child: Oid,
        /// The would-be parent.
        parent: Oid,
    },
    /// A schema change was rejected (state-dependent changes D1–D3 verify
    /// the X flags and reject on conflict, §4.3).
    SchemaChangeRejected {
        /// Explanation.
        reason: String,
    },
    /// An IS-A edge would create a cycle in the class lattice.
    LatticeCycle {
        /// Class being edited.
        class: ClassId,
        /// Superclass that would close the cycle.
        superclass: ClassId,
    },
    /// The operation requires a composite attribute but the attribute is
    /// weak or non-reference.
    NotComposite {
        /// Class holding the attribute.
        class: ClassId,
        /// The attribute name.
        attr: String,
    },
    /// A transaction-control request that the engine's current state
    /// forbids: nested `begin_transaction`, `commit`/`abort` with no
    /// transaction open, `make_many` forward references, or anything that
    /// needs committed state (DDL, `dump`, `repair`, `scrub`,
    /// `checkpoint`) inside a transaction.
    TransactionState {
        /// Explanation.
        reason: String,
    },
    /// The transaction was chosen as the deadlock victim: the lock
    /// manager found a waits-for cycle and aborted the requester (§7's
    /// protocol is blocking, so cycles are broken by aborting). The
    /// transaction's effects are rolled back; the operation is safe to
    /// retry in a fresh transaction — see
    /// [`is_retryable`](DbError::is_retryable).
    Deadlock {
        /// The waits-for cycle, rendered for diagnostics.
        cycle: String,
    },
    /// The engine is degraded to read-only: a committed batch could not be
    /// fully applied, so reads keep answering (from the buffer pool and the
    /// traversal cache) while every mutation fails fast with this error
    /// until [`recover`](crate::Database::recover) restores health.
    ReadOnly,
    /// Error from the storage substrate.
    Storage(StorageError),
}

impl DbError {
    /// Whether a *transaction* that failed with this error is worth
    /// retrying from the top: only a deadlock victim is. Its effects are
    /// fully rolled back and the cycle is broken, so a fresh attempt is
    /// expected to succeed once the other party finishes. Every storage
    /// error is permanent — a device fault is never retried (a commit it
    /// interrupts may be in doubt) — and retrying a semantic error cannot
    /// help.
    pub fn is_retryable(&self) -> bool {
        matches!(self, DbError::Deadlock { .. })
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchClassName(n) => write!(f, "no class named {n:?}"),
            DbError::NoSuchClass(c) => write!(f, "no class with id {c}"),
            DbError::NoSuchAttribute { class, attr } => {
                write!(f, "class {class} has no attribute {attr:?}")
            }
            DbError::NoSuchObject(o) => write!(f, "object {o} does not exist"),
            DbError::DuplicateClass(n) => write!(f, "class {n:?} already exists"),
            DbError::DuplicateAttribute { class, attr } => {
                write!(f, "class {class} already has attribute {attr:?}")
            }
            DbError::DomainMismatch {
                attr,
                expected,
                got,
            } => {
                write!(f, "attribute {attr:?} expects {expected}, got {got}")
            }
            DbError::TopologyViolation {
                rule,
                object,
                detail,
            } => {
                write!(f, "topology rule {rule} violated at {object}: {detail}")
            }
            DbError::MakeComponentViolation {
                object,
                adding,
                detail,
            } => {
                write!(f, "cannot add {adding} reference to {object}: {detail}")
            }
            DbError::CycleDetected { child, parent } => {
                write!(
                    f,
                    "making {child} part of {parent} would create a part-hierarchy cycle"
                )
            }
            DbError::SchemaChangeRejected { reason } => {
                write!(f, "schema change rejected: {reason}")
            }
            DbError::LatticeCycle { class, superclass } => {
                write!(
                    f,
                    "adding {superclass} as superclass of {class} would create an IS-A cycle"
                )
            }
            DbError::NotComposite { class, attr } => {
                write!(
                    f,
                    "attribute {attr:?} of class {class} is not a composite attribute"
                )
            }
            DbError::TransactionState { reason } => {
                write!(f, "transaction control rejected: {reason}")
            }
            DbError::Deadlock { cycle } => {
                write!(
                    f,
                    "transaction aborted as deadlock victim (waits-for cycle: {cycle}); retry it"
                )
            }
            DbError::ReadOnly => {
                write!(
                    f,
                    "the database is degraded to read-only until it is recovered"
                )
            }
            DbError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        match e {
            // The degraded-mode rejection is an engine-level condition, not
            // a substrate failure: surface it as the typed engine error so
            // callers can match on `DbError::ReadOnly` directly.
            StorageError::ReadOnly => DbError::ReadOnly,
            e => DbError::Storage(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_details() {
        let e = DbError::TopologyViolation {
            rule: 3,
            object: Oid::new(ClassId(1), 5),
            detail: "exclusive and shared references cannot coexist".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rule 3") && s.contains("c1.i5"));
    }

    #[test]
    fn storage_errors_convert() {
        let e: DbError = StorageError::PoolExhausted.into();
        assert!(matches!(e, DbError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn storage_read_only_maps_to_typed_read_only() {
        let e: DbError = StorageError::ReadOnly.into();
        assert_eq!(e, DbError::ReadOnly);
        assert!(e.to_string().contains("read-only"));
    }

    #[test]
    fn only_a_deadlock_victim_is_retryable() {
        let victim = DbError::Deadlock {
            cycle: "t1 -> t2 -> t1".into(),
        };
        assert!(victim.is_retryable());
        assert!(!DbError::ReadOnly.is_retryable());
        assert!(!DbError::NoSuchClass(ClassId(1)).is_retryable());
        let p: DbError = StorageError::InjectedFault { op: "x" }.into();
        assert!(!p.is_retryable());
        let eio: DbError = StorageError::DeviceIo { op: "log sync" }.into();
        assert!(!eio.is_retryable());
    }
}
