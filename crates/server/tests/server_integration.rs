//! End-to-end tests over real TCP: handshake and version negotiation,
//! cross-session visibility, parallel commits, change-stream ordering,
//! admission control, idle timeouts, and §6 authorization enforcement.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use corion_authz::AuthStore;
use corion_client::{Client, ClientError};
use corion_concurrent::ConcurrentDb;
use corion_core::{ClassBuilder, CompositeSpec, Database, DbConfig, Domain, Oid, Value};
use corion_protocol::{
    decode_response, encode_request, read_frame, write_frame, Delta, ErrorCode, Request, Response,
    WireAuth, WireAuthObject, WireMakeSpec, WireParent, MAGIC, MAX_FRAME, VERSION,
};
use corion_server::{Server, ServerConfig};

/// `Part (n: int)` and `Doc (Parts: set-of Part, composite)`.
fn test_db() -> ConcurrentDb {
    test_db_with(DbConfig::default())
}

fn test_db_with(config: DbConfig) -> ConcurrentDb {
    let mut db = Database::with_config(config);
    let part = db
        .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
        .unwrap();
    db.define_class(ClassBuilder::new("Doc").attr_composite(
        "Parts",
        Domain::SetOf(Box::new(Domain::Class(part))),
        CompositeSpec {
            exclusive: false,
            dependent: false,
        },
    ))
    .unwrap();
    ConcurrentDb::from_database(db)
}

fn start(config: ServerConfig) -> Server {
    Server::start(test_db(), AuthStore::new(), config).unwrap()
}

fn start_default() -> Server {
    start(ServerConfig::default())
}

#[test]
fn commit_in_one_session_reads_back_in_another() {
    let server = start_default();
    let addr = server.local_addr();

    let mut a = Client::connect(addr, 0).unwrap();
    let part = a.class_by_name("Part").unwrap();
    a.begin().unwrap();
    let oid = a
        .make(part, vec![("n".into(), Value::Int(7))], vec![])
        .unwrap();
    let lsn = a.commit().unwrap();
    assert!(lsn > 0);

    let mut b = Client::connect(addr, 0).unwrap();
    assert!(b.exists(oid).unwrap());
    let obj = b.get(oid).unwrap();
    assert_eq!(obj.oid, oid);
    assert!(obj.attrs.contains(&("n".into(), Value::Int(7))));

    server.shutdown();
}

#[test]
fn open_transaction_reads_its_own_writes_before_commit() {
    let server = start_default();
    let addr = server.local_addr();

    let mut a = Client::connect(addr, 0).unwrap();
    let part = a.class_by_name("Part").unwrap();
    a.begin().unwrap();
    let oid = a
        .make(part, vec![("n".into(), Value::Int(1))], vec![])
        .unwrap();
    // Uncommitted: visible to the owning session, invisible elsewhere.
    assert!(a.exists(oid).unwrap());
    let mut b = Client::connect(addr, 0).unwrap();
    assert!(!b.exists(oid).unwrap());
    a.abort().unwrap();
    assert!(!a.exists(oid).unwrap());

    server.shutdown();
}

/// The tentpole acceptance test: two sessions commit in parallel on
/// disjoint composites while a third session subscribes; it must observe
/// both commits, in commit-LSN order, with the right graph deltas — each
/// under the very LSN its committer was answered.
#[test]
fn parallel_commits_reach_subscriber_in_commit_lsn_order() {
    let server = start_default();
    let addr = server.local_addr();

    // Two disjoint composite roots.
    let mut admin = Client::connect(addr, 0).unwrap();
    let doc = admin.class_by_name("Doc").unwrap();
    let part = admin.class_by_name("Part").unwrap();
    let doc_a = admin.make(doc, vec![], vec![]).unwrap();
    let doc_b = admin.make(doc, vec![], vec![]).unwrap();

    // Subscribe before the writes so both commits stream.
    let sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();

    let writer = |parent: Oid, n: i64| {
        let mut c = Client::connect(addr, 0).unwrap();
        c.begin().unwrap();
        let oid = c
            .make(
                part,
                vec![("n".into(), Value::Int(n))],
                vec![(parent, "Parts".into())],
            )
            .unwrap();
        let lsn = c.commit().unwrap();
        (oid, lsn)
    };
    let ((oid_a, lsn_a), (oid_b, lsn_b)) = std::thread::scope(|s| {
        let a = s.spawn(|| writer(doc_a, 1));
        let b = s.spawn(|| writer(doc_b, 2));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_ne!(lsn_a, lsn_b, "commits that wrote get distinct LSNs");

    // Drain the stream until both makes have been observed.
    let mut sub = sub;
    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen_a = false;
    let mut seen_b = false;
    while !(seen_a && seen_b) {
        assert!(
            Instant::now() < deadline,
            "subscriber timed out; got {events:?}"
        );
        if let Some(event) = sub.next_event_timeout(Duration::from_millis(250)).unwrap() {
            seen_a |= event.deltas.contains(&Delta::Made(oid_a));
            seen_b |= event.deltas.contains(&Delta::Made(oid_b));
            events.push(event);
        }
    }

    // Strictly increasing commit LSNs, all above the start watermark.
    for pair in events.windows(2) {
        assert!(
            pair[0].commit_lsn < pair[1].commit_lsn,
            "commit LSNs out of order: {events:?}"
        );
    }
    assert!(events.iter().all(|e| e.commit_lsn > sub.start_lsn()));

    // The stream's order matches the commit order the writers saw, and
    // each event carries the LSN its committer's `OkLsn` did: one number.
    let pos = |oid: Oid| {
        events
            .iter()
            .position(|e| e.deltas.contains(&Delta::Made(oid)))
            .unwrap()
    };
    assert_eq!(pos(oid_a) < pos(oid_b), lsn_a < lsn_b);
    assert_eq!(events[pos(oid_a)].commit_lsn, lsn_a, "{events:?}");
    assert_eq!(events[pos(oid_b)].commit_lsn, lsn_b, "{events:?}");

    // Each make carries its composite edge in the same event.
    let event_a = &events[pos(oid_a)];
    assert!(event_a.deltas.contains(&Delta::EdgeAdded {
        parent: doc_a,
        child: oid_a
    }));
    let event_b = &events[pos(oid_b)];
    assert!(event_b.deltas.contains(&Delta::EdgeAdded {
        parent: doc_b,
        child: oid_b
    }));

    server.shutdown();
}

/// "No gaps while connected" (docs/PROTOCOL.md §5), through the wire and
/// across log rewrites. An 8 KiB log checkpoints itself every few dozen
/// commits; two connections make 2 000 commits between them with one
/// subscriber attached first. Exactly one event per commit, in strictly
/// increasing LSN order, every acknowledged `Made` among them. Fails at
/// the parent: its stream was read back out of the log every 20 ms, and
/// whatever committed between the last look and a checkpoint's swap of the
/// log was never seen (`server.stream_gap_free` 0 on the benchmark).
#[test]
fn a_subscriber_misses_no_commit_across_auto_checkpoints() {
    const PER_WRITER: usize = 1_000;
    let mut config = DbConfig::default();
    config.store.wal_checkpoint_bytes = 8 << 10;
    let db = test_db_with(config);
    let server = Server::start(db.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let part = Client::connect(addr, 0)
        .unwrap()
        .class_by_name("Part")
        .unwrap();
    let checkpoints = || {
        db.metrics_snapshot()
            .counter("corion_wal_checkpoints_total")
    };
    let checkpoints_before = checkpoints();

    let mut sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();
    let (events, acked) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut events = Vec::new();
            // Ends on the quiet after the last commit (or far too early,
            // which the count below reports).
            while let Some(event) = sub.next_event_timeout(Duration::from_secs(3)).unwrap() {
                events.push(event);
            }
            events
        });
        let writers: Vec<_> = (0..2)
            .map(|w| {
                s.spawn(move || {
                    let mut c = Client::connect(addr, 0).unwrap();
                    (0..PER_WRITER)
                        .map(|i| {
                            c.begin().unwrap();
                            let n = Value::Int((w * PER_WRITER + i) as i64);
                            let oid = c.make(part, vec![("n".into(), n)], vec![]).unwrap();
                            c.commit().unwrap();
                            oid
                        })
                        .collect::<Vec<Oid>>()
                })
            })
            .collect();
        let acked: Vec<Oid> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        (reader.join().unwrap(), acked)
    });

    assert!(
        checkpoints() - checkpoints_before >= 5,
        "the log was to be rewritten under the stream"
    );
    assert_eq!(events.len(), 2 * PER_WRITER, "one event per commit");
    assert!(events.windows(2).all(|w| w[0].commit_lsn < w[1].commit_lsn));
    assert!(events[0].commit_lsn > sub.start_lsn());
    let made: std::collections::HashSet<Oid> = events
        .iter()
        .flat_map(|e| &e.deltas)
        .filter_map(|d| match d {
            Delta::Made(oid) => Some(*oid),
            _ => None,
        })
        .collect();
    assert!(acked.iter().all(|oid| made.contains(oid)));
    server.shutdown();
}

/// The stream reports the durable effect whatever route wrote it: a served
/// `MakeMany` — exclusive access, no transaction, no version chain — is
/// one event carrying every `Made` and every composite edge.
#[test]
fn served_make_many_is_one_event_with_every_made_and_edge() {
    let server = start_default();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr, 0).unwrap();
    let doc = admin.class_by_name("Doc").unwrap();
    let part = admin.class_by_name("Part").unwrap();
    let mut sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();

    let mut specs = vec![WireMakeSpec {
        class: doc,
        values: vec![],
        parents: vec![],
    }];
    specs.extend((0..3).map(|n| WireMakeSpec {
        class: part,
        values: vec![("n".into(), Value::Int(n))],
        parents: vec![(WireParent::Created(0), "Parts".into())],
    }));
    let oids = admin.make_many(specs).unwrap();

    let event = sub
        .next_event_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("the ingest streams");
    let mut want: Vec<Delta> = oids.iter().map(|&oid| Delta::Made(oid)).collect();
    want.extend(oids[1..].iter().map(|&child| Delta::EdgeAdded {
        parent: oids[0],
        child,
    }));
    assert_eq!(event.deltas.len(), want.len(), "{:?}", event.deltas);
    assert!(want.iter().all(|d| event.deltas.contains(d)));
    let next = sub.next_event_timeout(Duration::from_millis(200)).unwrap();
    assert!(next.is_none(), "one batch, one event: {next:?}");
    server.shutdown();
}

/// An event is delivered after its commit is visible: a read begun on
/// receipt — here from another session, a fresh snapshot per request —
/// finds every object the event names. (The event may even overtake the
/// committer's own `OkLsn`; the reader below does not wait for it.)
#[test]
fn an_events_objects_are_readable_by_a_snapshot_begun_on_its_receipt() {
    let server = start_default();
    let addr = server.local_addr();
    let part = Client::connect(addr, 0)
        .unwrap()
        .class_by_name("Part")
        .unwrap();
    let mut sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Client::connect(addr, 0).unwrap();
            for n in 0..200 {
                c.begin().unwrap();
                c.make(part, vec![("n".into(), Value::Int(n))], vec![])
                    .unwrap();
                c.commit().unwrap();
            }
        });
        let mut reader = Client::connect(addr, 0).unwrap();
        for _ in 0..200 {
            let event = sub
                .next_event_timeout(Duration::from_secs(10))
                .unwrap()
                .expect("200 commits, 200 events");
            for delta in &event.deltas {
                if let Delta::Made(oid) = delta {
                    assert!(
                        reader.exists(*oid).unwrap(),
                        "{oid:?} at {}",
                        event.commit_lsn
                    );
                }
            }
        }
    });
    server.shutdown();
}

#[test]
fn version_mismatch_is_a_typed_handshake_error() {
    let server = start_default();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Request::Hello {
        magic: MAGIC,
        version: VERSION + 1,
        user: 0,
    };
    write_frame(&mut stream, &encode_request(&hello)).unwrap();
    let payload = read_frame(&mut stream).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("wanted VersionMismatch error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn wrong_magic_is_dropped_without_a_reply() {
    let server = start_default();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Request::Hello {
        magic: 0xdead_beef,
        version: VERSION,
        user: 0,
    };
    write_frame(&mut stream, &encode_request(&hello)).unwrap();
    // Port scanners get silence, not a protocol banner: the connection
    // just closes.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(read_frame(&mut stream).is_err());
    server.shutdown();
}

#[test]
fn connections_beyond_the_session_cap_get_overloaded() {
    let server = start(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut first = Client::connect(addr, 0).unwrap();
    first.ping().unwrap();
    // The second connection is refused at admission, before handshake.
    match Client::connect(addr, 0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        Err(other) => panic!("wanted Overloaded, got {other}"),
        Ok(_) => panic!("wanted Overloaded, got a session"),
    }
    // Overloaded is its own class: not retryable-in-a-tight-loop, not
    // terminal either.
    drop(first);
    // The slot frees once the first session ends; admission recovers.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr, 0) {
            Ok(mut c) => {
                c.ping().unwrap();
                break;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("admission never recovered: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn idle_sessions_are_closed_with_a_typed_timeout() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &encode_request(&Request::Hello {
            magic: MAGIC,
            version: VERSION,
            user: 0,
        }),
    )
    .unwrap();
    let hello_ok = read_frame(&mut stream).unwrap();
    assert!(matches!(
        decode_response(&hello_ok).unwrap(),
        Response::HelloOk { .. }
    ));
    // Send nothing: the server must close us with IdleTimeout.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(&mut stream).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::IdleTimeout),
        other => panic!("wanted IdleTimeout error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn authorization_gates_non_superusers() {
    let server = start_default();
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, 0).unwrap();
    let part = admin.class_by_name("Part").unwrap();

    // User 9 holds no grants: writes and subscriptions are denied.
    let mut user = Client::connect(addr, 9).unwrap();
    match user.make(part, vec![], vec![]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AuthDenied),
        other => panic!("wanted AuthDenied, got {other:?}"),
    }
    match Client::connect(addr, 9).unwrap().subscribe() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AuthDenied),
        Err(other) => panic!("wanted AuthDenied, got {other}"),
        Ok(_) => panic!("wanted AuthDenied, got a subscription"),
    }

    // A §6 class-level Write grant flips the decision.
    admin
        .grant(
            9,
            WireAuthObject::Class(part),
            WireAuth::new(true, false, false),
        )
        .unwrap();
    let oid = user.make(part, vec![], vec![]).unwrap();
    assert!(user.exists(oid).unwrap());

    // Revoking restores the denial.
    assert!(admin
        .revoke(
            9,
            WireAuthObject::Class(part),
            WireAuth::new(true, false, false),
        )
        .unwrap());
    match user.make(part, vec![], vec![]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AuthDenied),
        other => panic!("wanted AuthDenied, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn metrics_request_reports_engine_and_server_families() {
    let server = start_default();
    let mut c = Client::connect(server.local_addr(), 0).unwrap();
    c.ping().unwrap();
    let text = c.metrics().unwrap();
    assert!(text.contains("corion_server_requests_total"));
    assert!(text.contains("corion_server_sessions_active"));
    server.shutdown();
}

#[test]
fn wire_shutdown_stops_the_server() {
    let server = start_default();
    let addr = server.local_addr();
    let mut c = Client::connect(addr, 0).unwrap();
    c.shutdown_server().unwrap();
    // join() returns because the superuser Shutdown set the flag.
    server.join();
    // New connections are refused once the listener is gone.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr, 0) {
            Err(_) => break,
            Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(_) => panic!("server still accepting after shutdown"),
        }
    }
}

/// Regression: an answer over `MAX_FRAME` used to be sent anyway in
/// release builds (the guard was a `debug_assert!`), and the *client*
/// then killed the connection with `BadLength`. Now the server answers a
/// typed error and the session stays usable. (One object too large for a
/// frame stands in for an extension of 700 000 instances: same `send`
/// path, a thousandth of the set-up time.)
#[test]
fn an_answer_over_max_frame_is_a_typed_error_not_a_dead_connection() {
    let mut db = Database::new();
    let blob = db
        .define_class(ClassBuilder::new("Blob").attr("text", Domain::String))
        .unwrap();
    let big = db
        .make(
            blob,
            vec![("text", Value::Str("x".repeat(MAX_FRAME)))],
            vec![],
        )
        .unwrap();
    let small = db
        .make(blob, vec![("text", Value::Str("y".into()))], vec![])
        .unwrap();
    let server = Server::start(
        ConcurrentDb::from_database(db),
        AuthStore::new(),
        ServerConfig::default(),
    )
    .unwrap();

    let mut c = Client::connect(server.local_addr(), 0).unwrap();
    match c.get(big) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("exceeds MAX_FRAME"), "{message}");
        }
        other => panic!(
            "wanted a typed Internal error, got {:?}",
            other.map(|o| o.oid)
        ),
    }
    // Same connection, next requests: still in sync.
    c.ping().unwrap();
    assert_eq!(c.get_attr(small, "text").unwrap(), Value::Str("y".into()));
    assert_eq!(c.instances_of(blob, false).unwrap(), vec![big, small]);
    server.shutdown();
}

/// A peer may pipeline: two requests written back to back (one segment)
/// are answered in order.
#[test]
fn pipelined_requests_over_tcp_are_answered_in_order() {
    let server = start_default();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut wire = Vec::new();
    for req in [
        Request::Hello {
            magic: MAGIC,
            version: VERSION,
            user: 0,
        },
        Request::Ping,
        Request::ListClasses,
    ] {
        write_frame(&mut wire, &encode_request(&req)).unwrap();
    }
    std::io::Write::write_all(&mut stream, &wire).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut next = || decode_response(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(next(), Response::HelloOk { .. }));
    assert_eq!(next(), Response::Pong);
    assert!(matches!(next(), Response::OkClasses(cs) if cs.len() == 2));
    server.shutdown();
}
