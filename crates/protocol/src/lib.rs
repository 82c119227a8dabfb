//! # corion-protocol
//!
//! The CORION wire protocol: a length-prefixed, versioned request/response
//! protocol shared by `corion-server` and `corion-client`, plus the typed
//! error taxonomy every wire error falls into.
//!
//! The full specification — framing, handshake, every message, the error
//! taxonomy, change-stream semantics, and a worked byte-level example —
//! lives in `docs/PROTOCOL.md`. This crate is the single source of truth
//! for the *codec*: both endpoints encode and decode through the same
//! functions, so they can never disagree about layout.
//!
//! ## Layout in one paragraph
//!
//! Every frame on the wire is `[len: u32 LE][payload: len bytes]`, with
//! `len` capped at [`MAX_FRAME`]. The first payload byte is the message
//! *kind*; the rest is that message's fields in the storage layer's codec
//! primitives (little-endian integers, varints, length-prefixed strings).
//! A connection opens with a [`Request::Hello`] carrying [`MAGIC`] and
//! [`VERSION`]; the server answers [`Response::HelloOk`] or a terminal
//! [`Response::Error`].
//!
//! ```
//! use corion_protocol::{Request, Response, decode_request, encode_request};
//!
//! let req = Request::Ping;
//! let bytes = encode_request(&req);
//! assert_eq!(decode_request(&bytes).unwrap(), req);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod message;

pub use error::{ErrorClass, ErrorCode};
pub use frame::{read_frame, write_frame, FrameError, FrameReader, FrameWriter};
pub use message::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, kind_names, Delta, Request, Response, WireAttrDef, WireAuth,
    WireAuthObject, WireDomain, WireMakeSpec, WireParent, WirePredicate,
};

/// Protocol magic, first field of the `Hello` payload: `b"CRIO"` read as a
/// little-endian u32. A connection that opens with anything else is not a
/// CORION client and is dropped without a reply.
pub const MAGIC: u32 = u32::from_le_bytes(*b"CRIO");

/// Current protocol version. The handshake is exact-match: a client with a
/// different version receives `ErrorCode::VersionMismatch` and the
/// server's version in the error message, then the connection closes.
pub const VERSION: u16 = 1;

/// Hard cap on a frame's payload length, both directions. A peer
/// announcing a larger frame is malformed (or hostile); the connection is
/// closed without reading the payload. Large enough for a `MakeMany`
/// bulk-ingest batch of several thousand objects.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;
