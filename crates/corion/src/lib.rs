//! # corion
//!
//! A from-scratch Rust reproduction of **“Composite Objects Revisited”**
//! (Won Kim, Elisa Bertino, Jorge F. Garza — SIGMOD 1989): an ORION-style
//! object-oriented database engine whose distinguishing feature is direct
//! system support for **composite objects** — sets of objects related by
//! the IS-PART-OF relationship — as a unit of semantic integrity, physical
//! clustering, versioning, authorization, and locking.
//!
//! This facade crate re-exports the whole public API:
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`core`] | §2–§4 | the object model, five reference types, topology & deletion rules, operations, schema evolution |
//! | [`storage`] | §2.3/§2.4 | slotted pages, buffer pool, segments, clustering |
//! | [`versions`] | §5 | versions of composite objects (CV rules, ref-counts) |
//! | [`authz`] | §6 | composite objects as a unit of authorization |
//! | [`lock`] | §7 | composite objects as a unit of locking (ISO…SIXOS) |
//! | [`concurrent`] | §7 | concurrent transactions: MVCC snapshots + composite lock protocol |
//! | [`lang`] | §2.3/§3 | the ORION message syntax as an s-expression language |
//! | [`workload`] | §1, §2.3 | vehicle / document / random-DAG generators |
//! | [`protocol`] | — | the framed wire protocol (`docs/PROTOCOL.md`) |
//! | [`server`] | — | the TCP server: sessions, authz, change streams |
//! | [`client`] | — | the blocking TCP client library |
//!
//! ```
//! use corion::{Database, ClassBuilder, CompositeSpec, Domain, Value};
//!
//! let mut db = Database::new();
//! let section = db.define_class(ClassBuilder::new("Section")).unwrap();
//! let document = db
//!     .define_class(ClassBuilder::new("Document").attr_composite(
//!         "Sections",
//!         Domain::SetOf(Box::new(Domain::Class(section))),
//!         CompositeSpec { exclusive: false, dependent: true },
//!     ))
//!     .unwrap();
//! // Bottom-up creation: the section exists before any document.
//! let s = db.make(section, vec![], vec![]).unwrap();
//! let d1 = db.make(document, vec![("Sections", Value::Set(vec![Value::Ref(s)]))], vec![]).unwrap();
//! let d2 = db.make(document, vec![("Sections", Value::Set(vec![Value::Ref(s)]))], vec![]).unwrap();
//! // The identical section is part of two different documents (§1).
//! assert!(db.component_of(s, d1).unwrap() && db.component_of(s, d2).unwrap());
//! ```

pub use corion_authz as authz;
pub use corion_client as client;
pub use corion_concurrent as concurrent;
pub use corion_core as core;
pub use corion_lang as lang;
pub use corion_lock as lock;
pub use corion_obs as obs;
pub use corion_protocol as protocol;
pub use corion_server as server;
pub use corion_storage as storage;
pub use corion_versions as versions;
pub use corion_workload as workload;

pub use corion_authz::{AuthObject, AuthStore, AuthType, Authorization, Decision, UserId};
pub use corion_client::{Client, ClientError, RemoteObject, Subscriber};
pub use corion_concurrent::{ConcurrentDb, Snapshot, WriteTxn};
pub use corion_core::composite::Filter;
pub use corion_core::query;
pub use corion_core::query::{Predicate, Query};
pub use corion_core::view;
pub use corion_core::{
    AttributeDef, Class, ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, DbError,
    DbResult, Domain, HealthState, IntegrityReport, MakeSpec, MetricsSnapshot, Object, Oid,
    OrphanPolicy, ParentRef, ReadView, RefKind, Registry, RepairReport, ReverseRef, ScrubReport,
    Value,
};
pub use corion_core::{Overlay, OverlayView};
pub use corion_lang::Interpreter;
pub use corion_lock::{
    CompositeLockSet, LockIntent, LockManager, LockMode, Lockable, Transaction, TxnId,
};
pub use corion_protocol::{ErrorClass, ErrorCode};
pub use corion_server::{Server, ServerConfig};
pub use corion_versions::VersionManager;
