//! Error type for the storage substrate.

use std::fmt;

/// Result alias used throughout the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by pages, segments, the buffer pool, and the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record larger than the usable page payload was inserted.
    RecordTooLarge {
        /// Size of the rejected record in bytes.
        len: usize,
        /// Maximum payload a page can hold.
        max: usize,
    },
    /// A slot id that does not exist (or has been deleted) was dereferenced.
    InvalidSlot {
        /// Page the slot was looked up on.
        page: u64,
        /// The offending slot index.
        slot: u16,
    },
    /// A page id beyond the end of the disk was requested.
    InvalidPage {
        /// The offending page id.
        page: u64,
    },
    /// A segment id that was never created was referenced.
    InvalidSegment {
        /// The offending segment id.
        segment: u32,
    },
    /// The buffer pool has no evictable frame (everything is pinned).
    PoolExhausted,
    /// A physical record address did not resolve to a live record.
    DanglingPhysId {
        /// Segment component of the address.
        segment: u32,
        /// Page component of the address.
        page: u64,
        /// Slot component of the address.
        slot: u16,
    },
    /// An injected crash fired: a named crash point
    /// ([`crate::fault::CrashPoints`]) or a replace-gap crash of
    /// [`FaultyDevice`](crate::device::FaultyDevice).
    InjectedFault {
        /// The operation that hit the fault.
        op: &'static str,
    },
    /// The store is degraded to read-only: a committed batch could not be
    /// fully applied, so reads keep answering from the buffer pool but
    /// mutations are rejected until [`recover`](crate::ObjectStore::recover)
    /// promotes the store back to healthy.
    ReadOnly,
    /// The byte decoder ran off the end of its input.
    Truncated {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// The byte decoder met an invalid tag or malformed payload.
    Corrupt {
        /// Description of the malformed construct.
        context: &'static str,
    },
    /// `begin_atomic` was called while a batch was already open; atomic
    /// batches do not nest at the store level (callers join the open batch
    /// instead).
    BatchAlreadyOpen,
    /// `commit_atomic` / `abort_atomic` was called with no open batch.
    NoBatchOpen,
    /// The store crashed mid-commit (after its durability point) and must
    /// be recovered before accepting further work.
    NeedsRecovery,
    /// A device write persisted only a prefix of the bytes handed to it —
    /// the torn-write failure mode of real media that the fault-injecting
    /// device layer reproduces deterministically.
    TornWrite {
        /// The operation whose write tore.
        op: &'static str,
        /// Bytes that actually reached the media.
        kept: usize,
    },
    /// A device read returned fewer bytes than requested (a hole, a
    /// truncated file, or an injected short read).
    ShortRead {
        /// The operation whose read came up short.
        op: &'static str,
    },
    /// The data directory is already locked by a live process; two
    /// processes must never open the same files.
    LockConflict {
        /// Process id recorded in the lock file.
        holder: u32,
    },
    /// A device I/O operation failed (the `EIO` class). Permanent, like
    /// every storage error: it is never retried.
    /// [`FaultyDevice::arm_eio`](crate::device::FaultyDevice::arm_eio)
    /// injects it.
    DeviceIo {
        /// The operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "record of {len} bytes exceeds page payload of {max} bytes"
                )
            }
            StorageError::InvalidSlot { page, slot } => {
                write!(f, "slot {slot} on page {page} does not hold a live record")
            }
            StorageError::InvalidPage { page } => write!(f, "page {page} does not exist"),
            StorageError::InvalidSegment { segment } => {
                write!(f, "segment {segment} does not exist")
            }
            StorageError::PoolExhausted => {
                write!(f, "buffer pool exhausted: every frame is pinned")
            }
            StorageError::DanglingPhysId {
                segment,
                page,
                slot,
            } => {
                write!(
                    f,
                    "physical id {segment}:{page}:{slot} does not resolve to a record"
                )
            }
            StorageError::InjectedFault { op } => {
                write!(f, "injected disk fault during {op}")
            }
            StorageError::ReadOnly => {
                write!(
                    f,
                    "the store is degraded to read-only until it is recovered"
                )
            }
            StorageError::Truncated { context } => {
                write!(f, "decoder ran out of input while reading {context}")
            }
            StorageError::Corrupt { context } => {
                write!(f, "malformed storage bytes: {context}")
            }
            StorageError::BatchAlreadyOpen => {
                write!(f, "an atomic batch is already open on this store")
            }
            StorageError::NoBatchOpen => {
                write!(f, "no atomic batch is open on this store")
            }
            StorageError::NeedsRecovery => {
                write!(
                    f,
                    "the store crashed mid-commit and must be recovered first"
                )
            }
            StorageError::TornWrite { op, kept } => {
                write!(
                    f,
                    "torn write during {op}: only {kept} bytes reached the media"
                )
            }
            StorageError::ShortRead { op } => {
                write!(f, "short read during {op}: fewer bytes than requested")
            }
            StorageError::LockConflict { holder } => {
                write!(
                    f,
                    "data directory is locked by another process (pid {holder})"
                )
            }
            StorageError::DeviceIo { op } => {
                write!(f, "device i/o failed during {op}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = StorageError::RecordTooLarge {
            len: 9000,
            max: 4000,
        };
        assert!(e.to_string().contains("9000"));
        let e = StorageError::InvalidSlot { page: 3, slot: 7 };
        assert!(e.to_string().contains("slot 7"));
        let e = StorageError::PoolExhausted;
        assert!(e.to_string().contains("pinned"));
        let e = StorageError::NeedsRecovery;
        assert!(e.to_string().contains("recovered"));
        assert!(StorageError::BatchAlreadyOpen.to_string().contains("open"));
        assert!(StorageError::NoBatchOpen.to_string().contains("no atomic"));
        assert!(StorageError::ReadOnly.to_string().contains("read-only"));
        let e = StorageError::TornWrite {
            op: "flush",
            kept: 12,
        };
        assert!(e.to_string().contains("torn"));
        assert!(e.to_string().contains("12"));
        let e = StorageError::ShortRead { op: "page read" };
        assert!(e.to_string().contains("short read"));
        let e = StorageError::LockConflict { holder: 4242 };
        assert!(e.to_string().contains("4242"));
        let e = StorageError::DeviceIo { op: "fsync" };
        assert!(e.to_string().contains("fsync"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::InvalidPage { page: 1 },
            StorageError::InvalidPage { page: 1 }
        );
        assert_ne!(
            StorageError::InvalidPage { page: 1 },
            StorageError::InvalidPage { page: 2 }
        );
    }
}
