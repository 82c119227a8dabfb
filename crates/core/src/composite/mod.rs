//! Composite-object semantics (paper §2.2, §3).
//!
//! * [`topology`] — the parent sets `IX/DX/IS/DS`, Topology Rules 1–4, and
//!   the Make-Component Rule;
//! * [`make`] — the §2.4 algorithm for making an existing object a
//!   component (attach/detach with reverse-reference bookkeeping);
//! * [`delete`] — the recursive Deletion Rule;
//! * [`view`] — the §3 walks (`components-of`, `parents-of`,
//!   `ancestors-of`), written once over a [`ReadView`];
//! * [`ops`] — the §3 messages and predicates of the engine, as adapters
//!   over those walks.

pub mod delete;
pub mod make;
pub mod ops;
pub mod topology;
pub mod view;

pub use ops::Filter;
pub use topology::ParentSets;
pub use view::ReadView;
