//! # corion-storage
//!
//! Page-based storage substrate for the CORION object-oriented database,
//! a reproduction of *Composite Objects Revisited* (Kim, Bertino, Garza,
//! SIGMOD 1989).
//!
//! ORION stored objects in segments on disk and clustered composite objects
//! by placing components near their parents (the `:parent` keyword of the
//! `make` message doubles as a clustering directive, paper §2.3). This crate
//! provides the equivalent substrate:
//!
//! * [`page`] — 4 KiB slotted pages with a slot directory, in-page
//!   compaction, and tombstoned deletes;
//! * [`disk`] — a simulated disk that counts physical reads and writes, so
//!   clustering experiments report I/O counts instead of 1989 wall-clock;
//! * [`device`] — the `BlockDevice`/`LogDevice` trait boundary with real
//!   file-backed implementations (`FileDisk`, `FileWal`), a
//!   fault-injecting wrapper (`FaultyDevice`), and the data-directory
//!   lock, so the same crash discipline runs over memory and real files;
//! * [`buffer`] — a pinning LRU buffer pool over the simulated disk;
//! * [`segment`] — growable page collections with a free-space map; each
//!   class (or group of co-clustered classes) maps to one segment, as in
//!   ORION where clustering "is only performed if the classes of the two
//!   objects are stored in the same physical segment";
//! * [`store`] — record-level CRUD with *cluster-near* placement hints and
//!   relocation on growth, grouped into atomic batches;
//! * [`wal`] — a checksummed, sequence-numbered write-ahead log (page-image
//!   redo + commit markers) behind the store's `begin_atomic` /
//!   `commit_atomic` / `recover` boundary;
//! * [`fault`] — named crash points with countdowns at the instants of a
//!   batch with no device under them, for deterministic crash-recovery
//!   testing (device faults are [`FaultyDevice`]'s);
//! * [`version`] — copy-on-write object-image version chains keyed by
//!   commit LSN, with snapshot pins and watermark GC, so the concurrent
//!   engine's readers never block on writers;
//! * [`codec`] — little-endian primitive readers/writers used by the object
//!   serializer in `corion-core`.
//!
//! The substrate is deliberately synchronous and single-node: the paper's
//! claims about clustering and locking are about algorithmic shape (page
//! I/Os saved, locks acquired), which this layer makes observable.

//! ```
//! use corion_storage::{ObjectStore, StoreConfig};
//!
//! let mut store = ObjectStore::new(StoreConfig::default());
//! let seg = store.create_segment().unwrap();
//! let parent = store.insert(seg, b"assembly", None).unwrap();
//! // The `near` hint is the paper's `:parent` clustering directive.
//! let child = store.insert(seg, b"component", Some(parent)).unwrap();
//! assert_eq!(parent.page, child.page);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod codec;
pub mod device;
pub mod disk;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod page;
pub mod segment;
pub mod store;
pub mod version;
pub mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use device::{
    atomic_replace, BlockDevice, DeviceMetrics, DirLock, FaultyDevice, FileDisk, FileWal,
    InjectedFaults, LogDevice, MemLog, ReplaceCrash,
};
pub use disk::{DiskStats, SimDisk};
pub use error::{StorageError, StorageResult};
pub use fault::CrashPoints;
pub use metrics::StoreMetrics;
pub use page::{Page, SlotId, PAGE_SIZE};
pub use segment::{Segment, SegmentId};
pub use store::{
    HealthState, ObjectStore, PhysId, RecoveryReport, ScrubReport, StoreConfig, CP_COMMIT_DONE,
    CP_COMMIT_LOG, CP_PAGE_WRITE, CRASH_POINTS,
};
pub use version::{Resolution, SnapshotPin, VersionKey, VersionStore};
pub use wal::{diff_pages, fnv1a64, image_ranges, Lsn, Ranges, Wal, WalMark, WalRecord, WalStats};
