//! The wire error taxonomy.
//!
//! Every failure a server can hand back is one of the codes below, and
//! every code falls into exactly one of three classes
//! ([`ErrorCode::class`]):
//!
//! * **Retryable** — the operation rolled back cleanly and a fresh attempt
//!   is expected to succeed ([`ErrorCode::Deadlock`]). Clients should
//!   retry the whole transaction with backoff.
//!   [`ErrorCode::TransientStorage`] is in this class too, but it is
//!   reserved: it still decodes, and no server sends it.
//! * **Overloaded** — the server refused admission
//!   ([`ErrorCode::Overloaded`], [`ErrorCode::SlowConsumer`]). Nothing was
//!   executed; reconnect later. Distinct from Retryable because backing
//!   off *immediately in a loop* is exactly wrong.
//! * **Terminal** — retrying the identical request cannot help (semantic
//!   errors, authorization denials, protocol violations).

use corion_core::DbError;

/// Which broad failure class a code belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Safe and sensible to retry the transaction from the top.
    Retryable,
    /// Admission control refused the work; come back later.
    Overloaded,
    /// Retrying the identical request will fail the identical way.
    Terminal,
}

/// A typed wire error code (`u16` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The transaction was aborted as a deadlock victim (§7 waits-for
    /// cycle). Its effects are fully rolled back; retry from `Begin`.
    Deadlock,
    /// Reserved (wire code 2): decodable and classed Retryable for wire
    /// compatibility, but never sent. Every storage error is permanent and
    /// maps to another code ([`ErrorCode::Internal`] for a device fault).
    TransientStorage,
    /// The admission-control semaphore is exhausted: the server is at its
    /// session cap and **rejects rather than queues** (the bound is the
    /// whole point). Reconnect after a backoff.
    Overloaded,
    /// A change-stream subscriber fell behind its bounded buffer and was
    /// disconnected instead of stalling a committer or growing the queue.
    SlowConsumer,
    /// The handshake version differs from the server's.
    VersionMismatch,
    /// The handshake magic was wrong, a frame was malformed, a message
    /// kind unknown, or a request arrived in a state that forbids it
    /// (e.g. any non-`Hello` first message).
    Protocol,
    /// The session's user lacks the §6 authorization for the operation.
    AuthDenied,
    /// The named class does not exist.
    NoSuchClass,
    /// The object does not exist (or is not visible at the read snapshot).
    NoSuchObject,
    /// The attribute does not exist on the class.
    NoSuchAttribute,
    /// A value did not match the attribute's domain.
    DomainMismatch,
    /// A composite Topology/Make-Component/cycle rule rejected the write.
    Constraint,
    /// Transaction-state misuse: `Begin` inside a transaction,
    /// `Commit`/`Abort` outside one, or the transaction was fenced by a
    /// server-side recovery.
    TransactionState,
    /// The engine is degraded to read-only; mutations fail until the
    /// operator recovers it.
    ReadOnly,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The session sat idle past the server's idle timeout and was closed.
    IdleTimeout,
    /// Any other engine-side failure; the message carries the detail.
    Internal,
}

impl ErrorCode {
    /// The `u16` wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Deadlock => 1,
            ErrorCode::TransientStorage => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::SlowConsumer => 4,
            ErrorCode::VersionMismatch => 5,
            ErrorCode::Protocol => 6,
            ErrorCode::AuthDenied => 7,
            ErrorCode::NoSuchClass => 8,
            ErrorCode::NoSuchObject => 9,
            ErrorCode::NoSuchAttribute => 10,
            ErrorCode::DomainMismatch => 11,
            ErrorCode::Constraint => 12,
            ErrorCode::TransactionState => 13,
            ErrorCode::ReadOnly => 14,
            ErrorCode::ShuttingDown => 15,
            ErrorCode::IdleTimeout => 16,
            ErrorCode::Internal => 17,
        }
    }

    /// Decodes a wire value; unknown values map to [`ErrorCode::Internal`]
    /// (a newer server may know codes this client does not).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Deadlock,
            2 => ErrorCode::TransientStorage,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::SlowConsumer,
            5 => ErrorCode::VersionMismatch,
            6 => ErrorCode::Protocol,
            7 => ErrorCode::AuthDenied,
            8 => ErrorCode::NoSuchClass,
            9 => ErrorCode::NoSuchObject,
            10 => ErrorCode::NoSuchAttribute,
            11 => ErrorCode::DomainMismatch,
            12 => ErrorCode::Constraint,
            13 => ErrorCode::TransactionState,
            14 => ErrorCode::ReadOnly,
            15 => ErrorCode::ShuttingDown,
            16 => ErrorCode::IdleTimeout,
            _ => ErrorCode::Internal,
        }
    }

    /// The taxonomy class. This is what a client's retry loop switches on.
    pub fn class(self) -> ErrorClass {
        match self {
            ErrorCode::Deadlock | ErrorCode::TransientStorage => ErrorClass::Retryable,
            ErrorCode::Overloaded | ErrorCode::SlowConsumer => ErrorClass::Overloaded,
            _ => ErrorClass::Terminal,
        }
    }

    /// Shorthand for `class() == ErrorClass::Retryable`.
    pub fn is_retryable(self) -> bool {
        self.class() == ErrorClass::Retryable
    }

    /// Every defined code, for exhaustiveness tests and the spec.
    pub const ALL: [ErrorCode; 17] = [
        ErrorCode::Deadlock,
        ErrorCode::TransientStorage,
        ErrorCode::Overloaded,
        ErrorCode::SlowConsumer,
        ErrorCode::VersionMismatch,
        ErrorCode::Protocol,
        ErrorCode::AuthDenied,
        ErrorCode::NoSuchClass,
        ErrorCode::NoSuchObject,
        ErrorCode::NoSuchAttribute,
        ErrorCode::DomainMismatch,
        ErrorCode::Constraint,
        ErrorCode::TransactionState,
        ErrorCode::ReadOnly,
        ErrorCode::ShuttingDown,
        ErrorCode::IdleTimeout,
        ErrorCode::Internal,
    ];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Maps an engine error onto the wire taxonomy. The mapping is total:
/// every [`DbError`] has a code, and the retryability the engine reports
/// ([`DbError::is_retryable`]) is preserved exactly — a deadlock victim
/// surfaces as the retryable [`ErrorCode::Deadlock`], never as a generic
/// internal error.
impl From<&DbError> for ErrorCode {
    fn from(e: &DbError) -> Self {
        match e {
            DbError::Deadlock { .. } => ErrorCode::Deadlock,
            DbError::ReadOnly => ErrorCode::ReadOnly,
            DbError::NoSuchClassName(_) | DbError::NoSuchClass(_) => ErrorCode::NoSuchClass,
            DbError::NoSuchObject(_) => ErrorCode::NoSuchObject,
            DbError::NoSuchAttribute { .. } => ErrorCode::NoSuchAttribute,
            DbError::DomainMismatch { .. } => ErrorCode::DomainMismatch,
            DbError::TopologyViolation { .. }
            | DbError::MakeComponentViolation { .. }
            | DbError::CycleDetected { .. } => ErrorCode::Constraint,
            DbError::TransactionState { .. } => ErrorCode::TransactionState,
            _ => ErrorCode::Internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_roundtrip_is_identity_on_defined_codes() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
    }

    #[test]
    fn wire_values_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for code in ErrorCode::ALL {
            assert!(seen.insert(code.as_u16()), "duplicate wire value: {code}");
        }
    }

    #[test]
    fn retryability_matches_engine_classification() {
        let deadlock = DbError::Deadlock {
            cycle: "t1 -> t2 -> t1".into(),
        };
        assert!(deadlock.is_retryable());
        assert!(ErrorCode::from(&deadlock).is_retryable());
        let semantic = DbError::NoSuchClassName("Nope".into());
        assert!(!semantic.is_retryable());
        assert!(!ErrorCode::from(&semantic).is_retryable());
    }

    #[test]
    fn overloaded_is_neither_retryable_nor_terminal() {
        assert_eq!(ErrorCode::Overloaded.class(), ErrorClass::Overloaded);
        assert_eq!(ErrorCode::SlowConsumer.class(), ErrorClass::Overloaded);
    }
}
