//! Message types and their byte-level codec.
//!
//! The first payload byte of every frame is the message **kind**; the rest
//! is the message's fields encoded with the storage layer's codec
//! primitives (`corion_storage::codec`): little-endian fixed-width
//! integers, LEB128 varints for counts, varint-length-prefixed UTF-8
//! strings, and [`Value`]'s own tagged encoding for attribute values.
//! Requests occupy kinds `0x01..=0x7f`, responses `0x80..=0xff`, so a
//! frame can be classified from its first byte alone.
//!
//! Decoding is strict: unknown kinds, truncated fields, out-of-range tags,
//! over-deep predicate trees, and **trailing bytes after the last field**
//! are all rejected. The reject paths are what the garbage-frame proptests
//! in `tests/codec_proptests.rs` exercise.

use bytes::BufMut;
use corion_core::{ClassId, Oid, Value};
use corion_storage::codec::{self, Reader};
use corion_storage::{StorageError, StorageResult};

use crate::error::ErrorCode;

/// Maximum nesting depth of a [`WirePredicate`] accepted by the decoder —
/// a hostile frame must not be able to recurse the stack.
pub const MAX_PREDICATE_DEPTH: usize = 32;

// ---------------------------------------------------------------------
// Kind bytes
// ---------------------------------------------------------------------

const K_HELLO: u8 = 0x01;
const K_PING: u8 = 0x02;
const K_BEGIN: u8 = 0x10;
const K_COMMIT: u8 = 0x11;
const K_ABORT: u8 = 0x12;
const K_MAKE: u8 = 0x13;
const K_SET_ATTR: u8 = 0x14;
const K_DELETE: u8 = 0x15;
const K_MAKE_COMPONENT: u8 = 0x16;
const K_REMOVE_COMPONENT: u8 = 0x17;
const K_MAKE_MANY: u8 = 0x18;
const K_GET: u8 = 0x20;
const K_GET_ATTR: u8 = 0x21;
const K_EXISTS: u8 = 0x22;
const K_INSTANCES_OF: u8 = 0x23;
const K_COMPONENTS_OF: u8 = 0x24;
const K_PARENTS_OF: u8 = 0x25;
const K_ANCESTORS_OF: u8 = 0x26;
const K_SUBTREE_OF: u8 = 0x27;
const K_SELECT: u8 = 0x28;
const K_CLASS_BY_NAME: u8 = 0x30;
const K_LIST_CLASSES: u8 = 0x31;
const K_DEFINE_CLASS: u8 = 0x32;
const K_SUBSCRIBE: u8 = 0x40;
const K_METRICS: u8 = 0x50;
const K_GRANT: u8 = 0x60;
const K_REVOKE: u8 = 0x61;
const K_SHUTDOWN: u8 = 0x7f;

const K_HELLO_OK: u8 = 0x80;
const K_PONG: u8 = 0x81;
const K_OK: u8 = 0x82;
const K_OK_OID: u8 = 0x83;
const K_OK_OIDS: u8 = 0x84;
const K_OK_VALUE: u8 = 0x85;
const K_OK_OBJECT: u8 = 0x86;
const K_OK_BOOL: u8 = 0x87;
const K_OK_LSN: u8 = 0x88;
const K_OK_CLASS: u8 = 0x89;
const K_OK_CLASSES: u8 = 0x8a;
const K_OK_TEXT: u8 = 0x8b;
const K_SUBSCRIBE_OK: u8 = 0x8c;
const K_EVENT: u8 = 0x8d;
const K_ERROR: u8 = 0xff;

/// Every message kind the codec implements, as `(kind byte, name)` pairs.
///
/// `docs/PROTOCOL.md` must document each of these; the doc-coverage test
/// enumerates this table against the spec, so adding a message without
/// documenting it fails CI.
pub fn kind_names() -> &'static [(u8, &'static str)] {
    &[
        (K_HELLO, "Hello"),
        (K_PING, "Ping"),
        (K_BEGIN, "Begin"),
        (K_COMMIT, "Commit"),
        (K_ABORT, "Abort"),
        (K_MAKE, "Make"),
        (K_SET_ATTR, "SetAttr"),
        (K_DELETE, "Delete"),
        (K_MAKE_COMPONENT, "MakeComponent"),
        (K_REMOVE_COMPONENT, "RemoveComponent"),
        (K_MAKE_MANY, "MakeMany"),
        (K_GET, "Get"),
        (K_GET_ATTR, "GetAttr"),
        (K_EXISTS, "Exists"),
        (K_INSTANCES_OF, "InstancesOf"),
        (K_COMPONENTS_OF, "ComponentsOf"),
        (K_PARENTS_OF, "ParentsOf"),
        (K_ANCESTORS_OF, "AncestorsOf"),
        (K_SUBTREE_OF, "SubtreeOf"),
        (K_SELECT, "Select"),
        (K_CLASS_BY_NAME, "ClassByName"),
        (K_LIST_CLASSES, "ListClasses"),
        (K_DEFINE_CLASS, "DefineClass"),
        (K_SUBSCRIBE, "Subscribe"),
        (K_METRICS, "Metrics"),
        (K_GRANT, "Grant"),
        (K_REVOKE, "Revoke"),
        (K_SHUTDOWN, "Shutdown"),
        (K_HELLO_OK, "HelloOk"),
        (K_PONG, "Pong"),
        (K_OK, "Ok"),
        (K_OK_OID, "OkOid"),
        (K_OK_OIDS, "OkOids"),
        (K_OK_VALUE, "OkValue"),
        (K_OK_OBJECT, "OkObject"),
        (K_OK_BOOL, "OkBool"),
        (K_OK_LSN, "OkLsn"),
        (K_OK_CLASS, "OkClass"),
        (K_OK_CLASSES, "OkClasses"),
        (K_OK_TEXT, "OkText"),
        (K_SUBSCRIBE_OK, "SubscribeOk"),
        (K_EVENT, "Event"),
        (K_ERROR, "Error"),
    ]
}

// ---------------------------------------------------------------------
// Wire-side mirror types
// ---------------------------------------------------------------------

/// An attribute domain on the wire, mirroring `corion_core::Domain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDomain {
    /// Primitive `integer`.
    Integer,
    /// Primitive `float`.
    Float,
    /// Primitive `boolean`.
    Boolean,
    /// Primitive `string`.
    String,
    /// Instances of a class (by id).
    Class(ClassId),
    /// `(set-of …)` of the element domain.
    SetOf(Box<WireDomain>),
    /// Untyped.
    Any,
}

/// One attribute of a [`Request::DefineClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireAttrDef {
    /// Attribute name.
    pub name: String,
    /// Attribute domain.
    pub domain: WireDomain,
    /// `Some((exclusive, dependent))` marks the attribute composite.
    pub composite: Option<(bool, bool)>,
}

/// A parent reference inside a [`WireMakeSpec`]: an existing object, or a
/// zero-based index of an earlier spec in the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireParent {
    /// An object that already exists.
    Existing(Oid),
    /// The object created by spec `i` of this batch.
    Created(u32),
}

/// One object of a [`Request::MakeMany`] bulk-ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMakeSpec {
    /// Class to instantiate.
    pub class: ClassId,
    /// Attribute assignments by name.
    pub values: Vec<(String, Value)>,
    /// `(parent, composite attribute)` pairs.
    pub parents: Vec<(WireParent, String)>,
}

/// A predicate over one object, mirroring `corion_core::query::Predicate`.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePredicate {
    /// Always true.
    True,
    /// `attr == value`.
    Eq(String, Value),
    /// `attr != value`.
    Ne(String, Value),
    /// `attr < value`.
    Lt(String, Value),
    /// `attr > value`.
    Gt(String, Value),
    /// The attribute references `oid`.
    References(String, Oid),
    /// The object is a (direct or indirect) component of `oid`.
    ComponentOf(Oid),
    /// The object has at least one composite parent.
    HasCompositeParent,
    /// The object has a component that is an instance of `class`.
    HasComponentOfClass(ClassId),
    /// Conjunction.
    And(Vec<WirePredicate>),
    /// Disjunction.
    Or(Vec<WirePredicate>),
    /// Negation.
    Not(Box<WirePredicate>),
}

/// A §6 authorization on the wire, packed into one byte:
/// bit 0 = type (0 Read, 1 Write), bit 1 = sign (0 positive, 1 negative),
/// bit 2 = strength (0 strong, 1 weak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAuth(pub u8);

impl WireAuth {
    /// Packs the three components.
    pub fn new(write: bool, negative: bool, weak: bool) -> Self {
        WireAuth(u8::from(write) | (u8::from(negative) << 1) | (u8::from(weak) << 2))
    }

    /// Type bit: `true` = Write.
    pub fn is_write(self) -> bool {
        self.0 & 1 != 0
    }

    /// Sign bit: `true` = negative (prohibition).
    pub fn is_negative(self) -> bool {
        self.0 & 2 != 0
    }

    /// Strength bit: `true` = weak.
    pub fn is_weak(self) -> bool {
        self.0 & 4 != 0
    }
}

/// A unit of authorization on the wire, mirroring
/// `corion_authz::AuthObject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAuthObject {
    /// The whole database.
    Database,
    /// A class (and, implicitly, its instances and their components).
    Class(ClassId),
    /// One object (and, implicitly, its components).
    Instance(Oid),
}

/// One composite-graph delta inside a change-stream [`Response::Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// An object came into existence.
    Made(Oid),
    /// An object's attributes or references changed.
    Changed(Oid),
    /// An object was deleted.
    Deleted(Oid),
    /// `child` became a component of `parent` (a composite edge appeared).
    EdgeAdded {
        /// Composite parent.
        parent: Oid,
        /// Component child.
        child: Oid,
    },
    /// `child` is no longer a component of `parent`.
    EdgeRemoved {
        /// Former composite parent.
        parent: Oid,
        /// Former component child.
        child: Oid,
    },
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The handshake; must be the first message on every connection.
    Hello {
        /// [`crate::MAGIC`].
        magic: u32,
        /// [`crate::VERSION`].
        version: u16,
        /// The §6 user the session acts as (`0` is the superuser).
        user: u32,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Open a write transaction on this session.
    Begin,
    /// Commit the session's open transaction; answers [`Response::OkLsn`].
    Commit,
    /// Abort the session's open transaction.
    Abort,
    /// Create an instance (the §2.3 `make`).
    Make {
        /// Class to instantiate.
        class: ClassId,
        /// Attribute assignments by name.
        values: Vec<(String, Value)>,
        /// `(parent, composite attribute)` pairs.
        parents: Vec<(Oid, String)>,
    },
    /// Assign one attribute.
    SetAttr {
        /// Target object.
        oid: Oid,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Delete an object, cascading per the Deletion Rule; answers with
    /// the deleted OIDs.
    Delete {
        /// Root of the deletion.
        oid: Oid,
    },
    /// Make `child` a component of `parent` through `attr`.
    MakeComponent {
        /// The new component.
        child: Oid,
        /// The composite parent.
        parent: Oid,
        /// The composite attribute on the parent.
        attr: String,
    },
    /// Remove `child` from `parent`'s composite attribute `attr`.
    RemoveComponent {
        /// The component to detach.
        child: Oid,
        /// The composite parent.
        parent: Oid,
        /// The composite attribute on the parent.
        attr: String,
    },
    /// Clustered bulk ingest (maps to the engine's `make_many`).
    MakeMany {
        /// The batch, parents before children.
        specs: Vec<WireMakeSpec>,
    },
    /// Read a whole object; answers [`Response::OkObject`].
    Get {
        /// Object to read.
        oid: Oid,
    },
    /// Read one attribute; answers [`Response::OkValue`].
    GetAttr {
        /// Object to read.
        oid: Oid,
        /// Attribute name.
        attr: String,
    },
    /// Liveness of an OID; answers [`Response::OkBool`].
    Exists {
        /// Object to probe.
        oid: Oid,
    },
    /// The extension of a class; answers [`Response::OkOids`].
    InstancesOf {
        /// The class.
        class: ClassId,
        /// Include subclass instances.
        deep: bool,
    },
    /// Direct components of an object (§3).
    ComponentsOf {
        /// The composite parent.
        oid: Oid,
    },
    /// Direct composite parents of an object (§3).
    ParentsOf {
        /// The component.
        oid: Oid,
    },
    /// All composite ancestors of an object (§3).
    AncestorsOf {
        /// The component.
        oid: Oid,
    },
    /// The full component subtree below an object, itself included (§3).
    SubtreeOf {
        /// The composite root.
        oid: Oid,
    },
    /// Predicate query over a class extension (§3.2); answers
    /// [`Response::OkOids`].
    Select {
        /// Class extension to query.
        class: ClassId,
        /// Include subclass instances.
        deep: bool,
        /// Filter predicate.
        predicate: WirePredicate,
        /// Stop after this many matches; `0` means no limit.
        limit: u32,
    },
    /// Resolve a class name; answers [`Response::OkClass`].
    ClassByName {
        /// The class name.
        name: String,
    },
    /// Every class in the catalog; answers [`Response::OkClasses`].
    ListClasses,
    /// Define a class (DDL; superuser only, applied stop-the-world).
    DefineClass {
        /// New class name.
        name: String,
        /// Superclass names (must exist).
        supers: Vec<String>,
        /// Attribute definitions.
        attrs: Vec<WireAttrDef>,
    },
    /// Turn this connection into a change-stream subscription.
    Subscribe,
    /// The Prometheus rendering of every engine and server metric;
    /// answers [`Response::OkText`].
    Metrics,
    /// Grant a §6 authorization (superuser only).
    Grant {
        /// Grantee.
        user: u32,
        /// Authorization target.
        object: WireAuthObject,
        /// The authorization.
        auth: WireAuth,
    },
    /// Revoke an explicit §6 authorization (superuser only).
    Revoke {
        /// Grantee.
        user: u32,
        /// Authorization target.
        object: WireAuthObject,
        /// The authorization.
        auth: WireAuth,
    },
    /// Gracefully stop the server (superuser only): stop accepting,
    /// drain sessions, exit.
    Shutdown,
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    HelloOk {
        /// The server's protocol version (equals the client's).
        version: u16,
        /// Server-assigned session id (diagnostics; appears in logs).
        session: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Generic success without a payload.
    Ok,
    /// Success carrying one OID (`Make`).
    OkOid(Oid),
    /// Success carrying an OID list (traversals, `Select`, `Delete`,
    /// `MakeMany`).
    OkOids(Vec<Oid>),
    /// Success carrying one attribute value (`GetAttr`).
    OkValue(Value),
    /// Success carrying a whole object (`Get`).
    OkObject {
        /// The object's identity.
        oid: Oid,
        /// Attribute values by name, in class layout order.
        attrs: Vec<(String, Value)>,
        /// Composite parents (from the reverse references).
        parents: Vec<Oid>,
    },
    /// Success carrying a boolean (`Exists`).
    OkBool(bool),
    /// Success carrying the commit LSN (`Commit`).
    OkLsn(u64),
    /// Success carrying one class (`ClassByName`, `DefineClass`).
    OkClass {
        /// The class id.
        class: ClassId,
        /// The class name.
        name: String,
    },
    /// Success carrying the catalog (`ListClasses`).
    OkClasses(Vec<(ClassId, String)>),
    /// Success carrying text (`Metrics`).
    OkText(String),
    /// The subscription is live; events follow.
    SubscribeOk {
        /// WAL LSN of the last commit that was durable at attach. Every
        /// event on this stream has `commit_lsn` strictly greater than this.
        start_lsn: u64,
    },
    /// One committed transaction's composite-graph deltas.
    Event {
        /// The WAL commit LSN of the transaction. Strictly increasing
        /// along a stream; consistent with commit order across streams.
        commit_lsn: u64,
        /// What the transaction changed, as graph deltas.
        deltas: Vec<Delta>,
    },
    /// The request failed.
    Error {
        /// The typed code; `code.class()` is the retry decision.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Builds an error response from an engine error, preserving its
    /// retryability class.
    pub fn from_db_error(e: &corion_core::DbError) -> Response {
        Response::Error {
            code: ErrorCode::from(e),
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_oid(buf: &mut impl BufMut, oid: Oid) {
    codec::put_u32(buf, oid.class.0);
    codec::put_u64(buf, oid.serial);
}

fn put_domain(buf: &mut impl BufMut, d: &WireDomain) {
    match d {
        WireDomain::Integer => codec::put_u8(buf, 0),
        WireDomain::Float => codec::put_u8(buf, 1),
        WireDomain::Boolean => codec::put_u8(buf, 2),
        WireDomain::String => codec::put_u8(buf, 3),
        WireDomain::Class(c) => {
            codec::put_u8(buf, 4);
            codec::put_u32(buf, c.0);
        }
        WireDomain::SetOf(inner) => {
            codec::put_u8(buf, 5);
            put_domain(buf, inner);
        }
        WireDomain::Any => codec::put_u8(buf, 6),
    }
}

fn put_predicate(buf: &mut impl BufMut, p: &WirePredicate) {
    match p {
        WirePredicate::True => codec::put_u8(buf, 0),
        WirePredicate::Eq(a, v) => {
            codec::put_u8(buf, 1);
            codec::put_string(buf, a);
            v.encode(buf);
        }
        WirePredicate::Ne(a, v) => {
            codec::put_u8(buf, 2);
            codec::put_string(buf, a);
            v.encode(buf);
        }
        WirePredicate::Lt(a, v) => {
            codec::put_u8(buf, 3);
            codec::put_string(buf, a);
            v.encode(buf);
        }
        WirePredicate::Gt(a, v) => {
            codec::put_u8(buf, 4);
            codec::put_string(buf, a);
            v.encode(buf);
        }
        WirePredicate::References(a, o) => {
            codec::put_u8(buf, 5);
            codec::put_string(buf, a);
            put_oid(buf, *o);
        }
        WirePredicate::ComponentOf(o) => {
            codec::put_u8(buf, 6);
            put_oid(buf, *o);
        }
        WirePredicate::HasCompositeParent => codec::put_u8(buf, 7),
        WirePredicate::HasComponentOfClass(c) => {
            codec::put_u8(buf, 8);
            codec::put_u32(buf, c.0);
        }
        WirePredicate::And(ps) => {
            codec::put_u8(buf, 9);
            codec::put_varint(buf, ps.len() as u64);
            for p in ps {
                put_predicate(buf, p);
            }
        }
        WirePredicate::Or(ps) => {
            codec::put_u8(buf, 10);
            codec::put_varint(buf, ps.len() as u64);
            for p in ps {
                put_predicate(buf, p);
            }
        }
        WirePredicate::Not(inner) => {
            codec::put_u8(buf, 11);
            put_predicate(buf, inner);
        }
    }
}

fn put_named_values(buf: &mut impl BufMut, values: &[(String, Value)]) {
    codec::put_varint(buf, values.len() as u64);
    for (name, value) in values {
        codec::put_string(buf, name);
        value.encode(buf);
    }
}

fn put_auth_object(buf: &mut impl BufMut, o: WireAuthObject) {
    match o {
        WireAuthObject::Database => codec::put_u8(buf, 0),
        WireAuthObject::Class(c) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, c.0);
        }
        WireAuthObject::Instance(oid) => {
            codec::put_u8(buf, 2);
            put_oid(buf, oid);
        }
    }
}

/// Encodes a request into a frame payload (kind byte + fields).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_into(req, &mut buf);
    buf
}

/// Appends a request's frame payload to `buf` — the allocation-free form
/// a connection uses with its reused [`crate::FrameWriter`] buffer.
pub fn encode_request_into(req: &Request, mut buf: &mut Vec<u8>) {
    match req {
        Request::Hello {
            magic,
            version,
            user,
        } => {
            codec::put_u8(&mut buf, K_HELLO);
            codec::put_u32(&mut buf, *magic);
            codec::put_u16(&mut buf, *version);
            codec::put_u32(&mut buf, *user);
        }
        Request::Ping => codec::put_u8(&mut buf, K_PING),
        Request::Begin => codec::put_u8(&mut buf, K_BEGIN),
        Request::Commit => codec::put_u8(&mut buf, K_COMMIT),
        Request::Abort => codec::put_u8(&mut buf, K_ABORT),
        Request::Make {
            class,
            values,
            parents,
        } => {
            codec::put_u8(&mut buf, K_MAKE);
            codec::put_u32(&mut buf, class.0);
            put_named_values(&mut buf, values);
            codec::put_varint(&mut buf, parents.len() as u64);
            for (p, attr) in parents {
                put_oid(&mut buf, *p);
                codec::put_string(&mut buf, attr);
            }
        }
        Request::SetAttr { oid, attr, value } => {
            codec::put_u8(&mut buf, K_SET_ATTR);
            put_oid(&mut buf, *oid);
            codec::put_string(&mut buf, attr);
            value.encode(&mut buf);
        }
        Request::Delete { oid } => {
            codec::put_u8(&mut buf, K_DELETE);
            put_oid(&mut buf, *oid);
        }
        Request::MakeComponent {
            child,
            parent,
            attr,
        } => {
            codec::put_u8(&mut buf, K_MAKE_COMPONENT);
            put_oid(&mut buf, *child);
            put_oid(&mut buf, *parent);
            codec::put_string(&mut buf, attr);
        }
        Request::RemoveComponent {
            child,
            parent,
            attr,
        } => {
            codec::put_u8(&mut buf, K_REMOVE_COMPONENT);
            put_oid(&mut buf, *child);
            put_oid(&mut buf, *parent);
            codec::put_string(&mut buf, attr);
        }
        Request::MakeMany { specs } => {
            codec::put_u8(&mut buf, K_MAKE_MANY);
            codec::put_varint(&mut buf, specs.len() as u64);
            for spec in specs {
                codec::put_u32(&mut buf, spec.class.0);
                put_named_values(&mut buf, &spec.values);
                codec::put_varint(&mut buf, spec.parents.len() as u64);
                for (parent, attr) in &spec.parents {
                    match parent {
                        WireParent::Existing(oid) => {
                            codec::put_u8(&mut buf, 0);
                            put_oid(&mut buf, *oid);
                        }
                        WireParent::Created(i) => {
                            codec::put_u8(&mut buf, 1);
                            codec::put_u32(&mut buf, *i);
                        }
                    }
                    codec::put_string(&mut buf, attr);
                }
            }
        }
        Request::Get { oid } => {
            codec::put_u8(&mut buf, K_GET);
            put_oid(&mut buf, *oid);
        }
        Request::GetAttr { oid, attr } => {
            codec::put_u8(&mut buf, K_GET_ATTR);
            put_oid(&mut buf, *oid);
            codec::put_string(&mut buf, attr);
        }
        Request::Exists { oid } => {
            codec::put_u8(&mut buf, K_EXISTS);
            put_oid(&mut buf, *oid);
        }
        Request::InstancesOf { class, deep } => {
            codec::put_u8(&mut buf, K_INSTANCES_OF);
            codec::put_u32(&mut buf, class.0);
            codec::put_u8(&mut buf, u8::from(*deep));
        }
        Request::ComponentsOf { oid } => {
            codec::put_u8(&mut buf, K_COMPONENTS_OF);
            put_oid(&mut buf, *oid);
        }
        Request::ParentsOf { oid } => {
            codec::put_u8(&mut buf, K_PARENTS_OF);
            put_oid(&mut buf, *oid);
        }
        Request::AncestorsOf { oid } => {
            codec::put_u8(&mut buf, K_ANCESTORS_OF);
            put_oid(&mut buf, *oid);
        }
        Request::SubtreeOf { oid } => {
            codec::put_u8(&mut buf, K_SUBTREE_OF);
            put_oid(&mut buf, *oid);
        }
        Request::Select {
            class,
            deep,
            predicate,
            limit,
        } => {
            codec::put_u8(&mut buf, K_SELECT);
            codec::put_u32(&mut buf, class.0);
            codec::put_u8(&mut buf, u8::from(*deep));
            put_predicate(&mut buf, predicate);
            codec::put_u32(&mut buf, *limit);
        }
        Request::ClassByName { name } => {
            codec::put_u8(&mut buf, K_CLASS_BY_NAME);
            codec::put_string(&mut buf, name);
        }
        Request::ListClasses => codec::put_u8(&mut buf, K_LIST_CLASSES),
        Request::DefineClass {
            name,
            supers,
            attrs,
        } => {
            codec::put_u8(&mut buf, K_DEFINE_CLASS);
            codec::put_string(&mut buf, name);
            codec::put_varint(&mut buf, supers.len() as u64);
            for s in supers {
                codec::put_string(&mut buf, s);
            }
            codec::put_varint(&mut buf, attrs.len() as u64);
            for a in attrs {
                codec::put_string(&mut buf, &a.name);
                put_domain(&mut buf, &a.domain);
                match a.composite {
                    None => codec::put_u8(&mut buf, 0),
                    Some((exclusive, dependent)) => {
                        codec::put_u8(&mut buf, 1);
                        codec::put_u8(&mut buf, u8::from(exclusive));
                        codec::put_u8(&mut buf, u8::from(dependent));
                    }
                }
            }
        }
        Request::Subscribe => codec::put_u8(&mut buf, K_SUBSCRIBE),
        Request::Metrics => codec::put_u8(&mut buf, K_METRICS),
        Request::Grant { user, object, auth } => {
            codec::put_u8(&mut buf, K_GRANT);
            codec::put_u32(&mut buf, *user);
            put_auth_object(&mut buf, *object);
            codec::put_u8(&mut buf, auth.0);
        }
        Request::Revoke { user, object, auth } => {
            codec::put_u8(&mut buf, K_REVOKE);
            codec::put_u32(&mut buf, *user);
            put_auth_object(&mut buf, *object);
            codec::put_u8(&mut buf, auth.0);
        }
        Request::Shutdown => codec::put_u8(&mut buf, K_SHUTDOWN),
    }
}

/// Encodes a response into a frame payload (kind byte + fields).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response_into(resp, &mut buf);
    buf
}

/// Appends a response's frame payload to `buf`; see
/// [`encode_request_into`].
pub fn encode_response_into(resp: &Response, mut buf: &mut Vec<u8>) {
    match resp {
        Response::HelloOk { version, session } => {
            codec::put_u8(&mut buf, K_HELLO_OK);
            codec::put_u16(&mut buf, *version);
            codec::put_u64(&mut buf, *session);
        }
        Response::Pong => codec::put_u8(&mut buf, K_PONG),
        Response::Ok => codec::put_u8(&mut buf, K_OK),
        Response::OkOid(oid) => {
            codec::put_u8(&mut buf, K_OK_OID);
            put_oid(&mut buf, *oid);
        }
        Response::OkOids(oids) => {
            codec::put_u8(&mut buf, K_OK_OIDS);
            codec::put_varint(&mut buf, oids.len() as u64);
            for oid in oids {
                put_oid(&mut buf, *oid);
            }
        }
        Response::OkValue(v) => {
            codec::put_u8(&mut buf, K_OK_VALUE);
            v.encode(&mut buf);
        }
        Response::OkObject {
            oid,
            attrs,
            parents,
        } => {
            codec::put_u8(&mut buf, K_OK_OBJECT);
            put_oid(&mut buf, *oid);
            put_named_values(&mut buf, attrs);
            codec::put_varint(&mut buf, parents.len() as u64);
            for p in parents {
                put_oid(&mut buf, *p);
            }
        }
        Response::OkBool(b) => {
            codec::put_u8(&mut buf, K_OK_BOOL);
            codec::put_u8(&mut buf, u8::from(*b));
        }
        Response::OkLsn(lsn) => {
            codec::put_u8(&mut buf, K_OK_LSN);
            codec::put_u64(&mut buf, *lsn);
        }
        Response::OkClass { class, name } => {
            codec::put_u8(&mut buf, K_OK_CLASS);
            codec::put_u32(&mut buf, class.0);
            codec::put_string(&mut buf, name);
        }
        Response::OkClasses(classes) => {
            codec::put_u8(&mut buf, K_OK_CLASSES);
            codec::put_varint(&mut buf, classes.len() as u64);
            for (class, name) in classes {
                codec::put_u32(&mut buf, class.0);
                codec::put_string(&mut buf, name);
            }
        }
        Response::OkText(text) => {
            codec::put_u8(&mut buf, K_OK_TEXT);
            codec::put_string(&mut buf, text);
        }
        Response::SubscribeOk { start_lsn } => {
            codec::put_u8(&mut buf, K_SUBSCRIBE_OK);
            codec::put_u64(&mut buf, *start_lsn);
        }
        Response::Event { commit_lsn, deltas } => {
            codec::put_u8(&mut buf, K_EVENT);
            codec::put_u64(&mut buf, *commit_lsn);
            codec::put_varint(&mut buf, deltas.len() as u64);
            for d in deltas {
                match d {
                    Delta::Made(oid) => {
                        codec::put_u8(&mut buf, 0);
                        put_oid(&mut buf, *oid);
                    }
                    Delta::Changed(oid) => {
                        codec::put_u8(&mut buf, 1);
                        put_oid(&mut buf, *oid);
                    }
                    Delta::Deleted(oid) => {
                        codec::put_u8(&mut buf, 2);
                        put_oid(&mut buf, *oid);
                    }
                    Delta::EdgeAdded { parent, child } => {
                        codec::put_u8(&mut buf, 3);
                        put_oid(&mut buf, *parent);
                        put_oid(&mut buf, *child);
                    }
                    Delta::EdgeRemoved { parent, child } => {
                        codec::put_u8(&mut buf, 4);
                        put_oid(&mut buf, *parent);
                        put_oid(&mut buf, *child);
                    }
                }
            }
        }
        Response::Error { code, message } => {
            codec::put_u8(&mut buf, K_ERROR);
            codec::put_u16(&mut buf, code.as_u16());
            codec::put_string(&mut buf, message);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn corrupt(context: &'static str) -> StorageError {
    StorageError::Corrupt { context }
}

fn get_oid(r: &mut Reader<'_>) -> StorageResult<Oid> {
    let class = ClassId(r.u32("oid class")?);
    let serial = r.u64("oid serial")?;
    Ok(Oid { class, serial })
}

fn get_bool(r: &mut Reader<'_>) -> StorageResult<bool> {
    match r.u8("bool")? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt("bool out of range")),
    }
}

fn get_count(r: &mut Reader<'_>, context: &'static str) -> StorageResult<usize> {
    let n = r.varint(context)? as usize;
    // Every counted element is at least one byte, so a count larger than
    // the remaining payload is corruption, not a huge message.
    if n > r.remaining() {
        return Err(corrupt("count exceeds remaining payload"));
    }
    Ok(n)
}

fn get_named_values(r: &mut Reader<'_>) -> StorageResult<Vec<(String, Value)>> {
    let n = get_count(r, "value count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string("value name")?;
        let value = Value::decode(r)?;
        out.push((name, value));
    }
    Ok(out)
}

fn get_domain(r: &mut Reader<'_>, depth: usize) -> StorageResult<WireDomain> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(corrupt("domain nesting too deep"));
    }
    Ok(match r.u8("domain tag")? {
        0 => WireDomain::Integer,
        1 => WireDomain::Float,
        2 => WireDomain::Boolean,
        3 => WireDomain::String,
        4 => WireDomain::Class(ClassId(r.u32("domain class")?)),
        5 => WireDomain::SetOf(Box::new(get_domain(r, depth + 1)?)),
        6 => WireDomain::Any,
        _ => return Err(corrupt("domain tag out of range")),
    })
}

fn get_predicate(r: &mut Reader<'_>, depth: usize) -> StorageResult<WirePredicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(corrupt("predicate nesting too deep"));
    }
    Ok(match r.u8("predicate tag")? {
        0 => WirePredicate::True,
        1 => WirePredicate::Eq(r.string("predicate attr")?, Value::decode(r)?),
        2 => WirePredicate::Ne(r.string("predicate attr")?, Value::decode(r)?),
        3 => WirePredicate::Lt(r.string("predicate attr")?, Value::decode(r)?),
        4 => WirePredicate::Gt(r.string("predicate attr")?, Value::decode(r)?),
        5 => WirePredicate::References(r.string("predicate attr")?, get_oid(r)?),
        6 => WirePredicate::ComponentOf(get_oid(r)?),
        7 => WirePredicate::HasCompositeParent,
        8 => WirePredicate::HasComponentOfClass(ClassId(r.u32("predicate class")?)),
        9 => {
            let n = get_count(r, "predicate arity")?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_predicate(r, depth + 1)?);
            }
            WirePredicate::And(ps)
        }
        10 => {
            let n = get_count(r, "predicate arity")?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_predicate(r, depth + 1)?);
            }
            WirePredicate::Or(ps)
        }
        11 => WirePredicate::Not(Box::new(get_predicate(r, depth + 1)?)),
        _ => return Err(corrupt("predicate tag out of range")),
    })
}

fn get_auth_object(r: &mut Reader<'_>) -> StorageResult<WireAuthObject> {
    Ok(match r.u8("auth object tag")? {
        0 => WireAuthObject::Database,
        1 => WireAuthObject::Class(ClassId(r.u32("auth class")?)),
        2 => WireAuthObject::Instance(get_oid(r)?),
        _ => return Err(corrupt("auth object tag out of range")),
    })
}

fn get_auth(r: &mut Reader<'_>) -> StorageResult<WireAuth> {
    let bits = r.u8("authorization byte")?;
    if bits > 0b111 {
        return Err(corrupt("authorization bits out of range"));
    }
    Ok(WireAuth(bits))
}

fn finish<T>(r: &Reader<'_>, value: T) -> StorageResult<T> {
    if r.is_empty() {
        Ok(value)
    } else {
        Err(corrupt("trailing bytes after message"))
    }
}

/// Decodes a frame payload as a request. Strict: trailing bytes, unknown
/// kinds, and out-of-range tags are errors.
pub fn decode_request(payload: &[u8]) -> StorageResult<Request> {
    let mut r = Reader::new(payload);
    let kind = r.u8("request kind")?;
    let req = match kind {
        K_HELLO => Request::Hello {
            magic: r.u32("hello magic")?,
            version: r.u16("hello version")?,
            user: r.u32("hello user")?,
        },
        K_PING => Request::Ping,
        K_BEGIN => Request::Begin,
        K_COMMIT => Request::Commit,
        K_ABORT => Request::Abort,
        K_MAKE => {
            let class = ClassId(r.u32("make class")?);
            let values = get_named_values(&mut r)?;
            let n = get_count(&mut r, "parent count")?;
            let mut parents = Vec::with_capacity(n);
            for _ in 0..n {
                let oid = get_oid(&mut r)?;
                let attr = r.string("parent attr")?;
                parents.push((oid, attr));
            }
            Request::Make {
                class,
                values,
                parents,
            }
        }
        K_SET_ATTR => Request::SetAttr {
            oid: get_oid(&mut r)?,
            attr: r.string("attr name")?,
            value: Value::decode(&mut r)?,
        },
        K_DELETE => Request::Delete {
            oid: get_oid(&mut r)?,
        },
        K_MAKE_COMPONENT => Request::MakeComponent {
            child: get_oid(&mut r)?,
            parent: get_oid(&mut r)?,
            attr: r.string("attr name")?,
        },
        K_REMOVE_COMPONENT => Request::RemoveComponent {
            child: get_oid(&mut r)?,
            parent: get_oid(&mut r)?,
            attr: r.string("attr name")?,
        },
        K_MAKE_MANY => {
            let n = get_count(&mut r, "spec count")?;
            let mut specs = Vec::with_capacity(n);
            for _ in 0..n {
                let class = ClassId(r.u32("spec class")?);
                let values = get_named_values(&mut r)?;
                let np = get_count(&mut r, "spec parent count")?;
                let mut parents = Vec::with_capacity(np);
                for _ in 0..np {
                    let parent = match r.u8("spec parent tag")? {
                        0 => WireParent::Existing(get_oid(&mut r)?),
                        1 => WireParent::Created(r.u32("spec parent index")?),
                        _ => return Err(corrupt("spec parent tag out of range")),
                    };
                    let attr = r.string("spec parent attr")?;
                    parents.push((parent, attr));
                }
                specs.push(WireMakeSpec {
                    class,
                    values,
                    parents,
                });
            }
            Request::MakeMany { specs }
        }
        K_GET => Request::Get {
            oid: get_oid(&mut r)?,
        },
        K_GET_ATTR => Request::GetAttr {
            oid: get_oid(&mut r)?,
            attr: r.string("attr name")?,
        },
        K_EXISTS => Request::Exists {
            oid: get_oid(&mut r)?,
        },
        K_INSTANCES_OF => Request::InstancesOf {
            class: ClassId(r.u32("class id")?),
            deep: get_bool(&mut r)?,
        },
        K_COMPONENTS_OF => Request::ComponentsOf {
            oid: get_oid(&mut r)?,
        },
        K_PARENTS_OF => Request::ParentsOf {
            oid: get_oid(&mut r)?,
        },
        K_ANCESTORS_OF => Request::AncestorsOf {
            oid: get_oid(&mut r)?,
        },
        K_SUBTREE_OF => Request::SubtreeOf {
            oid: get_oid(&mut r)?,
        },
        K_SELECT => Request::Select {
            class: ClassId(r.u32("class id")?),
            deep: get_bool(&mut r)?,
            predicate: get_predicate(&mut r, 0)?,
            limit: r.u32("select limit")?,
        },
        K_CLASS_BY_NAME => Request::ClassByName {
            name: r.string("class name")?,
        },
        K_LIST_CLASSES => Request::ListClasses,
        K_DEFINE_CLASS => {
            let name = r.string("class name")?;
            let ns = get_count(&mut r, "super count")?;
            let mut supers = Vec::with_capacity(ns);
            for _ in 0..ns {
                supers.push(r.string("super name")?);
            }
            let na = get_count(&mut r, "attr count")?;
            let mut attrs = Vec::with_capacity(na);
            for _ in 0..na {
                let name = r.string("attr name")?;
                let domain = get_domain(&mut r, 0)?;
                let composite = match r.u8("composite tag")? {
                    0 => None,
                    1 => Some((get_bool(&mut r)?, get_bool(&mut r)?)),
                    _ => return Err(corrupt("composite tag out of range")),
                };
                attrs.push(WireAttrDef {
                    name,
                    domain,
                    composite,
                });
            }
            Request::DefineClass {
                name,
                supers,
                attrs,
            }
        }
        K_SUBSCRIBE => Request::Subscribe,
        K_METRICS => Request::Metrics,
        K_GRANT => Request::Grant {
            user: r.u32("grant user")?,
            object: get_auth_object(&mut r)?,
            auth: get_auth(&mut r)?,
        },
        K_REVOKE => Request::Revoke {
            user: r.u32("revoke user")?,
            object: get_auth_object(&mut r)?,
            auth: get_auth(&mut r)?,
        },
        K_SHUTDOWN => Request::Shutdown,
        _ => return Err(corrupt("unknown request kind")),
    };
    finish(&r, req)
}

/// Decodes a frame payload as a response. Strict, like
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> StorageResult<Response> {
    let mut r = Reader::new(payload);
    let kind = r.u8("response kind")?;
    let resp = match kind {
        K_HELLO_OK => Response::HelloOk {
            version: r.u16("hello version")?,
            session: r.u64("session id")?,
        },
        K_PONG => Response::Pong,
        K_OK => Response::Ok,
        K_OK_OID => Response::OkOid(get_oid(&mut r)?),
        K_OK_OIDS => {
            let n = get_count(&mut r, "oid count")?;
            let mut oids = Vec::with_capacity(n);
            for _ in 0..n {
                oids.push(get_oid(&mut r)?);
            }
            Response::OkOids(oids)
        }
        K_OK_VALUE => Response::OkValue(Value::decode(&mut r)?),
        K_OK_OBJECT => {
            let oid = get_oid(&mut r)?;
            let attrs = get_named_values(&mut r)?;
            let n = get_count(&mut r, "parent count")?;
            let mut parents = Vec::with_capacity(n);
            for _ in 0..n {
                parents.push(get_oid(&mut r)?);
            }
            Response::OkObject {
                oid,
                attrs,
                parents,
            }
        }
        K_OK_BOOL => Response::OkBool(get_bool(&mut r)?),
        K_OK_LSN => Response::OkLsn(r.u64("commit lsn")?),
        K_OK_CLASS => Response::OkClass {
            class: ClassId(r.u32("class id")?),
            name: r.string("class name")?,
        },
        K_OK_CLASSES => {
            let n = get_count(&mut r, "class count")?;
            let mut classes = Vec::with_capacity(n);
            for _ in 0..n {
                let class = ClassId(r.u32("class id")?);
                let name = r.string("class name")?;
                classes.push((class, name));
            }
            Response::OkClasses(classes)
        }
        K_OK_TEXT => Response::OkText(r.string("text payload")?),
        K_SUBSCRIBE_OK => Response::SubscribeOk {
            start_lsn: r.u64("start lsn")?,
        },
        K_EVENT => {
            let commit_lsn = r.u64("commit lsn")?;
            let n = get_count(&mut r, "delta count")?;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                deltas.push(match r.u8("delta tag")? {
                    0 => Delta::Made(get_oid(&mut r)?),
                    1 => Delta::Changed(get_oid(&mut r)?),
                    2 => Delta::Deleted(get_oid(&mut r)?),
                    3 => Delta::EdgeAdded {
                        parent: get_oid(&mut r)?,
                        child: get_oid(&mut r)?,
                    },
                    4 => Delta::EdgeRemoved {
                        parent: get_oid(&mut r)?,
                        child: get_oid(&mut r)?,
                    },
                    _ => return Err(corrupt("delta tag out of range")),
                });
            }
            Response::Event { commit_lsn, deltas }
        }
        K_ERROR => Response::Error {
            code: ErrorCode::from_u16(r.u16("error code")?),
            message: r.string("error message")?,
        },
        _ => return Err(corrupt("unknown response kind")),
    };
    finish(&r, resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kinds_and_response_kinds_are_disjoint_ranges() {
        for &(kind, name) in kind_names() {
            let is_response = matches!(
                name,
                "HelloOk"
                    | "Pong"
                    | "Ok"
                    | "OkOid"
                    | "OkOids"
                    | "OkValue"
                    | "OkObject"
                    | "OkBool"
                    | "OkLsn"
                    | "OkClass"
                    | "OkClasses"
                    | "OkText"
                    | "SubscribeOk"
                    | "Event"
                    | "Error"
            );
            assert_eq!(kind >= 0x80, is_response, "kind {kind:#04x} ({name})");
        }
    }

    #[test]
    fn kind_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(kind, name) in kind_names() {
            assert!(seen.insert(kind), "duplicate kind byte for {name}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn predicate_depth_is_bounded() {
        let mut p = WirePredicate::True;
        for _ in 0..(MAX_PREDICATE_DEPTH + 2) {
            p = WirePredicate::Not(Box::new(p));
        }
        let req = Request::Select {
            class: ClassId(1),
            deep: true,
            predicate: p,
            limit: 0,
        };
        assert!(decode_request(&encode_request(&req)).is_err());
    }
}
