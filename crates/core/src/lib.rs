//! # corion-core
//!
//! The primary contribution of *Composite Objects Revisited* (Kim, Bertino,
//! Garza, SIGMOD 1989), implemented as a from-scratch object-oriented
//! database engine:
//!
//! * the **five reference types** of §2.1 — weak, dependent-exclusive,
//!   independent-exclusive, dependent-shared, independent-shared
//!   ([`refs`]);
//! * the **formal semantics** of §2.2 — parent sets `IX/DX/IS/DS`,
//!   Topology Rules 1–4, the Make-Component Rule, and the recursive
//!   Deletion Rule ([`composite`]);
//! * the **class model** the rules are defined over — a multiple-inheritance
//!   class lattice with typed attributes and composite attribute
//!   specifications ([`schema`]);
//! * the **implementation technique** of §2.4 — reverse composite
//!   references (parent OID plus D and X flags) stored inside each
//!   component object ([`object`]);
//! * the **operations** of §3 — `components-of`, `parents-of`,
//!   `ancestors-of` and the predicate messages, one walk over any
//!   [`ReadView`] ([`composite::view`], [`composite::ops`]);
//! * **schema evolution** of §4 — the revised drop semantics, the
//!   state-independent changes I1–I4 (immediate *and* deferred via
//!   operation logs and change counts), and the state-dependent changes
//!   D1–D3 ([`evolution`]);
//! * **physical clustering** via the `:parent` clause of `make`
//!   (§2.3), backed by the `corion-storage` substrate.
//!
//! Objects are identified by copyable [`Oid`]s and live in page storage —
//! never behind Rust references — so arbitrary cyclic/shared object graphs
//! pose no ownership problems (DESIGN.md §2).
//!
//! ```
//! use corion_core::{Database, ClassBuilder, Domain, Value, CompositeSpec};
//!
//! let mut db = Database::new();
//! let body = db.define_class(ClassBuilder::new("AutoBody")).unwrap();
//! let vehicle = db
//!     .define_class(ClassBuilder::new("Vehicle").attr_composite(
//!         "Body",
//!         Domain::Class(body),
//!         CompositeSpec { exclusive: true, dependent: false },
//!     ))
//!     .unwrap();
//! let b = db.make(body, vec![], vec![]).unwrap();
//! let v = db.make(vehicle, vec![("Body", Value::Ref(b))], vec![]).unwrap();
//! assert!(db.child_of(b, v).unwrap());
//! ```

#![warn(missing_docs)]

pub mod capture;
pub mod composite;
pub mod db;
pub mod error;
pub mod evolution;
mod exec;
pub mod integrity;
pub mod metrics;
pub mod object;
pub mod oid;
pub mod overlay;
pub mod persist;
pub mod query;
pub mod refs;
pub mod repair;
pub mod schema;
pub mod shard;
pub mod txn;
pub mod value;

pub use capture::{Change, ChangeSet};
pub use composite::{view, Filter, ReadView};
pub use corion_obs::{MetricsSnapshot, Registry};
pub use corion_storage::{HealthState, ScrubReport};
pub use db::{Database, DbConfig, OrphanPolicy};
pub use error::{DbError, DbResult};
pub use integrity::IntegrityReport;
pub use metrics::CoreMetrics;
pub use object::Object;
pub use oid::{ClassId, Oid};
pub use overlay::{Applied, Overlay, OverlayView};
pub use refs::{RefKind, ReverseRef};
pub use repair::RepairReport;
pub use schema::attr::{AttributeDef, CompositeSpec, Domain};
pub use schema::class::{Class, ClassBuilder};
pub use txn::{MakeSpec, ParentRef};
pub use value::Value;
