//! Property tests for the wire codec: every message kind round-trips
//! bytes-exactly, truncation is always detected, and hostile bytes can
//! never panic the decoder (the server feeds it raw network input).

use corion_core::{ClassId, Oid, Value};
use corion_protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Delta, ErrorCode, FrameError, FrameReader, Request, Response, WireAttrDef, WireAuth,
    WireAuthObject, WireDomain, WireMakeSpec, WireParent, WirePredicate, MAX_FRAME,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn oid() -> impl Strategy<Value = Oid> {
    (any::<u32>(), any::<u64>()).prop_map(|(c, s)| Oid::new(ClassId(c), s))
}

fn class_id() -> impl Strategy<Value = ClassId> {
    any::<u32>().prop_map(ClassId)
}

fn name() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,11}"
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: the codec is exact, but NaN != NaN would
        // fail the equality assertion for reasons that are not codec bugs.
        (-1.0e12..1.0e12).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[ -~]{0,16}".prop_map(Value::Str),
        oid().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::Set)
    })
}

fn named_values() -> impl Strategy<Value = Vec<(String, Value)>> {
    prop::collection::vec((name(), value()), 0..4)
}

fn predicate() -> BoxedStrategy<WirePredicate> {
    let leaf = prop_oneof![
        Just(WirePredicate::True),
        (name(), value()).prop_map(|(a, v)| WirePredicate::Eq(a, v)),
        (name(), value()).prop_map(|(a, v)| WirePredicate::Ne(a, v)),
        (name(), value()).prop_map(|(a, v)| WirePredicate::Lt(a, v)),
        (name(), value()).prop_map(|(a, v)| WirePredicate::Gt(a, v)),
        (name(), oid()).prop_map(|(a, o)| WirePredicate::References(a, o)),
        oid().prop_map(WirePredicate::ComponentOf),
        Just(WirePredicate::HasCompositeParent),
        class_id().prop_map(WirePredicate::HasComponentOfClass),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(WirePredicate::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(WirePredicate::Or),
            inner.prop_map(|p| WirePredicate::Not(Box::new(p))),
        ]
    })
}

fn domain() -> BoxedStrategy<WireDomain> {
    let leaf = prop_oneof![
        Just(WireDomain::Integer),
        Just(WireDomain::Float),
        Just(WireDomain::Boolean),
        Just(WireDomain::String),
        class_id().prop_map(WireDomain::Class),
        Just(WireDomain::Any),
    ];
    leaf.prop_recursive(2, 4, 1, |inner| {
        inner.prop_map(|d| WireDomain::SetOf(Box::new(d)))
    })
}

fn attr_def() -> impl Strategy<Value = WireAttrDef> {
    (
        name(),
        domain(),
        prop_oneof![Just(None), (any::<bool>(), any::<bool>()).prop_map(Some),],
    )
        .prop_map(|(name, domain, composite)| WireAttrDef {
            name,
            domain,
            composite,
        })
}

fn wire_parent() -> impl Strategy<Value = WireParent> {
    prop_oneof![
        oid().prop_map(WireParent::Existing),
        any::<u32>().prop_map(WireParent::Created),
    ]
}

fn make_spec() -> impl Strategy<Value = WireMakeSpec> {
    (
        class_id(),
        named_values(),
        prop::collection::vec((wire_parent(), name()), 0..3),
    )
        .prop_map(|(class, values, parents)| WireMakeSpec {
            class,
            values,
            parents,
        })
}

fn auth() -> impl Strategy<Value = WireAuth> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(w, n, k)| WireAuth::new(w, n, k))
}

fn auth_object() -> impl Strategy<Value = WireAuthObject> {
    prop_oneof![
        Just(WireAuthObject::Database),
        class_id().prop_map(WireAuthObject::Class),
        oid().prop_map(WireAuthObject::Instance),
    ]
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    (0..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i])
}

fn delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        oid().prop_map(Delta::Made),
        oid().prop_map(Delta::Changed),
        oid().prop_map(Delta::Deleted),
        (oid(), oid()).prop_map(|(parent, child)| Delta::EdgeAdded { parent, child }),
        (oid(), oid()).prop_map(|(parent, child)| Delta::EdgeRemoved { parent, child }),
    ]
}

/// Every request variant, with arbitrary field contents.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        (any::<u32>(), any::<u16>(), any::<u32>()).prop_map(|(magic, version, user)| {
            Request::Hello {
                magic,
                version,
                user,
            }
        }),
        Just(Request::Ping),
        Just(Request::Begin),
        Just(Request::Commit),
        Just(Request::Abort),
        (
            class_id(),
            named_values(),
            prop::collection::vec((oid(), name()), 0..3)
        )
            .prop_map(|(class, values, parents)| Request::Make {
                class,
                values,
                parents,
            }),
        (oid(), name(), value()).prop_map(|(oid, attr, value)| Request::SetAttr {
            oid,
            attr,
            value
        }),
        oid().prop_map(|oid| Request::Delete { oid }),
        (oid(), oid(), name()).prop_map(|(child, parent, attr)| Request::MakeComponent {
            child,
            parent,
            attr,
        }),
        (oid(), oid(), name()).prop_map(|(child, parent, attr)| Request::RemoveComponent {
            child,
            parent,
            attr,
        }),
        prop::collection::vec(make_spec(), 0..3).prop_map(|specs| Request::MakeMany { specs }),
        oid().prop_map(|oid| Request::Get { oid }),
        (oid(), name()).prop_map(|(oid, attr)| Request::GetAttr { oid, attr }),
        oid().prop_map(|oid| Request::Exists { oid }),
        (class_id(), any::<bool>()).prop_map(|(class, deep)| Request::InstancesOf { class, deep }),
        oid().prop_map(|oid| Request::ComponentsOf { oid }),
        oid().prop_map(|oid| Request::ParentsOf { oid }),
        oid().prop_map(|oid| Request::AncestorsOf { oid }),
        oid().prop_map(|oid| Request::SubtreeOf { oid }),
        (class_id(), any::<bool>(), predicate(), any::<u32>()).prop_map(
            |(class, deep, predicate, limit)| Request::Select {
                class,
                deep,
                predicate,
                limit,
            }
        ),
        name().prop_map(|name| Request::ClassByName { name }),
        Just(Request::ListClasses),
        (
            name(),
            prop::collection::vec(name(), 0..3),
            prop::collection::vec(attr_def(), 0..3)
        )
            .prop_map(|(name, supers, attrs)| Request::DefineClass {
                name,
                supers,
                attrs,
            }),
        Just(Request::Subscribe),
        Just(Request::Metrics),
        (any::<u32>(), auth_object(), auth()).prop_map(|(user, object, auth)| Request::Grant {
            user,
            object,
            auth,
        }),
        (any::<u32>(), auth_object(), auth()).prop_map(|(user, object, auth)| Request::Revoke {
            user,
            object,
            auth,
        }),
        Just(Request::Shutdown),
    ]
    .boxed()
}

/// Every response variant, with arbitrary field contents.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        (any::<u16>(), any::<u64>())
            .prop_map(|(version, session)| Response::HelloOk { version, session }),
        Just(Response::Pong),
        Just(Response::Ok),
        oid().prop_map(Response::OkOid),
        prop::collection::vec(oid(), 0..6).prop_map(Response::OkOids),
        value().prop_map(Response::OkValue),
        (oid(), named_values(), prop::collection::vec(oid(), 0..3)).prop_map(
            |(oid, attrs, parents)| Response::OkObject {
                oid,
                attrs,
                parents,
            }
        ),
        any::<bool>().prop_map(Response::OkBool),
        any::<u64>().prop_map(Response::OkLsn),
        (class_id(), name()).prop_map(|(class, name)| Response::OkClass { class, name }),
        prop::collection::vec((class_id(), name()), 0..4).prop_map(Response::OkClasses),
        "[ -~]{0,48}".prop_map(Response::OkText),
        any::<u64>().prop_map(|start_lsn| Response::SubscribeOk { start_lsn }),
        (any::<u64>(), prop::collection::vec(delta(), 0..5))
            .prop_map(|(commit_lsn, deltas)| Response::Event { commit_lsn, deltas }),
        (error_code(), "[ -~]{0,24}").prop_map(|(code, message)| Response::Error { code, message }),
    ]
    .boxed()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn requests_roundtrip(req in request()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).expect("decode"), req);
    }

    #[test]
    fn responses_roundtrip(resp in response()) {
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).expect("decode"), resp);
    }

    /// Chopping any suffix off a valid request must be detected: either a
    /// truncated field or (because decoding is strict about trailing
    /// bytes) a length that no longer adds up.
    #[test]
    fn truncated_requests_are_rejected(req in request()) {
        let bytes = encode_request(&req);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_request(&bytes[..len]).is_err(),
                "prefix of {} of {} bytes decoded",
                len,
                bytes.len()
            );
        }
    }

    #[test]
    fn truncated_responses_are_rejected(resp in response()) {
        let bytes = encode_response(&resp);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_response(&bytes[..len]).is_err(),
                "prefix of {} of {} bytes decoded",
                len,
                bytes.len()
            );
        }
    }

    /// Arbitrary bytes must never panic the decoders — they read straight
    /// off the network. (They may legitimately decode: one random byte can
    /// be a complete `Ping`.)
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Any legal payload survives framing byte-exactly, and the stream
    /// position stays in sync across back-to-back frames.
    #[test]
    fn frames_roundtrip(
        a in prop::collection::vec(any::<u8>(), 1..512),
        b in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).expect("write");
        write_frame(&mut buf, &b).expect("write");
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r).expect("frame a"), a);
        prop_assert_eq!(read_frame(&mut r).expect("frame b"), b);
        prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    /// The buffered reader is the one-shot reader under any chunking: a
    /// stream of legal frames, optionally ended by a hostile length or a
    /// truncated frame, delivered `chunks[i]` bytes per `read` (1 byte at
    /// a time, many frames per read, frames split across reads), yields
    /// the same payloads and then the same verdict — `Closed` at a frame
    /// boundary, an i/o error inside a frame, `BadLength` for zero and
    /// oversize lengths.
    #[test]
    fn buffered_reader_agrees_with_read_frame_under_any_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 0..6),
        big in 8_000usize..20_000,
        tail in 0usize..5,
        cut in 1usize..8,
        chunks in prop::collection::vec(
            prop_oneof![Just(1usize), 1usize..64, Just(usize::MAX)],
            1..8,
        ),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).expect("write");
        }
        // One frame larger than the reader's steady-state buffer.
        write_frame(&mut wire, &vec![0x5a; big]).expect("write");
        match tail {
            0 => {}                                                     // EOF at a boundary
            1 => wire.extend_from_slice(&0u32.to_le_bytes()),           // zero length
            2 => wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes()),
            3 => wire.extend_from_slice(&[9, 0][..cut.min(2)]),         // EOF inside the prefix
            _ => {                                                      // EOF inside the payload
                wire.extend_from_slice(&8u32.to_le_bytes());
                wire.extend_from_slice(&[1; 7][..cut.min(7)]);
            }
        }

        let verdict = |e: &FrameError| match e {
            FrameError::Closed => "closed".to_string(),
            FrameError::BadLength(n) => format!("bad length {n}"),
            FrameError::Io(e) => format!("io {:?}", e.kind()),
        };
        let mut one_shot = &wire[..];
        let mut chunked = Chunked { bytes: &wire, chunks: &chunks, reads: 0 };
        let mut reader = FrameReader::new();
        loop {
            let want = read_frame(&mut one_shot);
            let got = reader.read_frame(&mut chunked);
            match (want, got) {
                (Ok(want), Ok(got)) => prop_assert_eq!(&want[..], got),
                (Err(want), Err(got)) => {
                    prop_assert_eq!(verdict(&want), verdict(&got));
                    break;
                }
                (want, got) => prop_assert!(
                    false,
                    "read_frame {:?} vs FrameReader {:?}",
                    want.map(|p| p.len()).map_err(|e| verdict(&e)),
                    got.map(|p| p.len()).map_err(|e| verdict(&e))
                ),
            }
        }
    }

    /// Arbitrary bytes into the frame reader: never a panic, never an
    /// oversized allocation (lengths beyond MAX_FRAME are rejected before
    /// the payload is read).
    #[test]
    fn frame_reader_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..32)) {
        if let Ok(payload) = read_frame(&mut &bytes[..]) {
            prop_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
        }
    }
}

/// Hands out `bytes` at most `chunks[i mod len]` bytes per `read`.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks[self.reads % self.chunks.len()]
            .min(buf.len())
            .min(self.bytes.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}
