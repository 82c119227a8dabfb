//! Blocking client for the CORION wire protocol.
//!
//! A thin, allocation-light wrapper over `corion-protocol`: every method
//! sends one request frame and reads one response frame (the protocol is
//! strictly request/response until [`Client::subscribe`] turns the
//! connection into a one-way event stream). See `docs/PROTOCOL.md` for
//! the wire format and `corion-server` for the semantics.
//!
//! ```no_run
//! use corion_client::Client;
//! use corion_core::Value;
//!
//! let mut c = Client::connect("127.0.0.1:4990", 0).unwrap();
//! let class = c.class_by_name("Part").unwrap();
//! c.begin().unwrap();
//! let oid = c.make(class, vec![("n".into(), Value::Int(1))], vec![]).unwrap();
//! let lsn = c.commit().unwrap();
//! println!("made {oid:?} at commit LSN {lsn}");
//! ```
//!
//! Errors carry the server's typed [`ErrorCode`]; check
//! [`ClientError::is_retryable`] before giving up — `Deadlock` in
//! particular means "retry the whole transaction", exactly like the
//! engine's own §7 victim contract.

#![warn(missing_docs)]

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use corion_core::{ClassId, Oid, Value};
use corion_protocol::{
    decode_response, encode_request_into, Delta, ErrorClass, ErrorCode, FrameError, FrameReader,
    FrameWriter, Request, Response, WireAttrDef, WireAuth, WireAuthObject, WireMakeSpec,
    WirePredicate, MAGIC, VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or framing did).
    Io(String),
    /// The server answered with a typed error.
    Server {
        /// The typed code (`code.class()` is the retry decision).
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response the call did not expect —
    /// a protocol bug on one side or the other.
    Unexpected(String),
}

impl ClientError {
    /// True when the request may simply be retried (deadlock victim,
    /// transient storage fault) or retried after a backoff (overload).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Server { code, .. } => !matches!(code.class(), ErrorClass::Terminal),
            _ => false,
        }
    }

    /// The server's error code, if this is a server-side error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// A whole object as the server renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteObject {
    /// The object's identity.
    pub oid: Oid,
    /// Attribute values by name, in class layout order.
    pub attrs: Vec<(String, Value)>,
    /// Composite parents.
    pub parents: Vec<Oid>,
}

/// One change-stream event.
#[derive(Debug, Clone)]
pub struct Event {
    /// WAL commit LSN of the transaction (strictly increasing).
    pub commit_lsn: u64,
    /// The transaction's composite-graph deltas.
    pub deltas: Vec<Delta>,
}

/// A connected, handshaken session. Generic over the byte stream so a
/// test can count its calls; every public constructor yields a
/// `Client<TcpStream>`.
pub struct Client<S = TcpStream> {
    stream: S,
    /// Server-assigned session id (diagnostics).
    session: u64,
    /// Per-connection frame buffers: a round trip is one `write` and one
    /// `read` on `stream`, and allocates nothing for framing.
    reader: FrameReader,
    writer: FrameWriter,
}

type Result<T> = std::result::Result<T, ClientError>;

impl Client {
    /// Connects and performs the version handshake as `user`
    /// (0 is the superuser).
    pub fn connect(addr: impl ToSocketAddrs, user: u32) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client::over(stream);
        match client.call(&Request::Hello {
            magic: MAGIC,
            version: VERSION,
            user,
        })? {
            Response::HelloOk { session, .. } => {
                client.session = session;
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Turns this session into a change-stream subscription
    /// (superuser only). Consumes the client: the connection becomes
    /// one-way.
    pub fn subscribe(mut self) -> Result<Subscriber> {
        match self.call(&Request::Subscribe)? {
            Response::SubscribeOk { start_lsn } => Ok(Subscriber {
                stream: self.stream,
                // Events may already sit behind SubscribeOk in the buffer.
                reader: self.reader,
                start_lsn,
            }),
            other => Err(unexpected("SubscribeOk", &other)),
        }
    }
}

impl<S: Read + Write> Client<S> {
    fn over(stream: S) -> Self {
        Client {
            stream,
            session: 0,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends one request and reads one response, surfacing wire-level
    /// `Error` responses as [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        self.writer
            .write(&mut self.stream, |buf| encode_request_into(req, buf))?;
        let payload = self.reader.read_frame(&mut self.stream)?;
        match decode_response(payload).map_err(|e| ClientError::Io(e.to_string()))? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    // ---------------------------------------------------------------
    // Transactions
    // ---------------------------------------------------------------

    /// Opens a transaction on this session (at most one may be open).
    pub fn begin(&mut self) -> Result<()> {
        self.expect_ok(&Request::Begin)
    }

    /// Commits the open transaction, returning its commit LSN: the WAL LSN
    /// of its commit marker, which is also the `commit_lsn` of the change
    /// stream [`Event`] that carries its writes. A transaction that wrote
    /// nothing answers the LSN of the last commit visible to it.
    pub fn commit(&mut self) -> Result<u64> {
        match self.call(&Request::Commit)? {
            Response::OkLsn(lsn) => Ok(lsn),
            other => Err(unexpected("OkLsn", &other)),
        }
    }

    /// Aborts the open transaction.
    pub fn abort(&mut self) -> Result<()> {
        self.expect_ok(&Request::Abort)
    }

    /// Runs `body` inside a transaction, retrying on retryable errors
    /// (deadlock victims) up to `attempts` times. The client-side
    /// mirror of the engine's `run_write`. From the third attempt on it
    /// pauses for a bounded, jittered moment first: two transactions
    /// that lock the same composites in opposite order are otherwise
    /// victimised alternately, each immediate retry re-taking its first
    /// lock before the parked survivor wakes.
    pub fn with_txn<R>(
        &mut self,
        attempts: u32,
        mut body: impl FnMut(&mut Client<S>) -> Result<R>,
    ) -> Result<R> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            std::thread::sleep(retry_pause(self.session, attempt));
            self.begin()?;
            match body(self) {
                Ok(r) => match self.commit() {
                    Ok(_) => return Ok(r),
                    Err(e) if e.is_retryable() => last = Some(e),
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    // The server already dropped the transaction for
                    // deadlock victims; Abort would answer
                    // TransactionState. Try, ignore failures.
                    let _ = self.abort();
                    last = Some(e);
                }
                Err(e) => {
                    let _ = self.abort();
                    return Err(e);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    // ---------------------------------------------------------------
    // Mutations
    // ---------------------------------------------------------------

    /// Creates an instance (§2.3 `make`).
    pub fn make(
        &mut self,
        class: ClassId,
        values: Vec<(String, Value)>,
        parents: Vec<(Oid, String)>,
    ) -> Result<Oid> {
        match self.call(&Request::Make {
            class,
            values,
            parents,
        })? {
            Response::OkOid(oid) => Ok(oid),
            other => Err(unexpected("OkOid", &other)),
        }
    }

    /// Assigns one attribute.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.expect_ok(&Request::SetAttr {
            oid,
            attr: attr.into(),
            value,
        })
    }

    /// Deletes an object (cascading); returns every deleted OID.
    pub fn delete(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::Delete { oid })
    }

    /// Makes `child` a component of `parent` through `attr`.
    pub fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<()> {
        self.expect_ok(&Request::MakeComponent {
            child,
            parent,
            attr: attr.into(),
        })
    }

    /// Removes `child` from `parent`'s composite attribute `attr`.
    pub fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<()> {
        self.expect_ok(&Request::RemoveComponent {
            child,
            parent,
            attr: attr.into(),
        })
    }

    /// Clustered bulk ingest (superuser only).
    pub fn make_many(&mut self, specs: Vec<WireMakeSpec>) -> Result<Vec<Oid>> {
        self.oids(&Request::MakeMany { specs })
    }

    // ---------------------------------------------------------------
    // Reads and traversals (§3)
    // ---------------------------------------------------------------

    /// Reads a whole object.
    pub fn get(&mut self, oid: Oid) -> Result<RemoteObject> {
        match self.call(&Request::Get { oid })? {
            Response::OkObject {
                oid,
                attrs,
                parents,
            } => Ok(RemoteObject {
                oid,
                attrs,
                parents,
            }),
            other => Err(unexpected("OkObject", &other)),
        }
    }

    /// Reads one attribute.
    pub fn get_attr(&mut self, oid: Oid, attr: &str) -> Result<Value> {
        match self.call(&Request::GetAttr {
            oid,
            attr: attr.into(),
        })? {
            Response::OkValue(v) => Ok(v),
            other => Err(unexpected("OkValue", &other)),
        }
    }

    /// True if the OID resolves to a live, visible object.
    pub fn exists(&mut self, oid: Oid) -> Result<bool> {
        match self.call(&Request::Exists { oid })? {
            Response::OkBool(b) => Ok(b),
            other => Err(unexpected("OkBool", &other)),
        }
    }

    /// The extension of a class.
    pub fn instances_of(&mut self, class: ClassId, deep: bool) -> Result<Vec<Oid>> {
        self.oids(&Request::InstancesOf { class, deep })
    }

    /// Direct components of an object.
    pub fn components_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::ComponentsOf { oid })
    }

    /// Direct composite parents of an object.
    pub fn parents_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::ParentsOf { oid })
    }

    /// Every composite ancestor of an object.
    pub fn ancestors_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::AncestorsOf { oid })
    }

    /// The component subtree below an object (itself included).
    pub fn subtree_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.oids(&Request::SubtreeOf { oid })
    }

    /// Predicate query over a class extension (§3.2). `limit` 0 means
    /// no limit.
    pub fn select(
        &mut self,
        class: ClassId,
        deep: bool,
        predicate: WirePredicate,
        limit: u32,
    ) -> Result<Vec<Oid>> {
        self.oids(&Request::Select {
            class,
            deep,
            predicate,
            limit,
        })
    }

    // ---------------------------------------------------------------
    // Catalog
    // ---------------------------------------------------------------

    /// Resolves a class name.
    pub fn class_by_name(&mut self, name: &str) -> Result<ClassId> {
        match self.call(&Request::ClassByName { name: name.into() })? {
            Response::OkClass { class, .. } => Ok(class),
            other => Err(unexpected("OkClass", &other)),
        }
    }

    /// Every class in the catalog.
    pub fn list_classes(&mut self) -> Result<Vec<(ClassId, String)>> {
        match self.call(&Request::ListClasses)? {
            Response::OkClasses(cs) => Ok(cs),
            other => Err(unexpected("OkClasses", &other)),
        }
    }

    /// Defines a class (superuser only).
    pub fn define_class(
        &mut self,
        name: &str,
        supers: Vec<String>,
        attrs: Vec<WireAttrDef>,
    ) -> Result<ClassId> {
        match self.call(&Request::DefineClass {
            name: name.into(),
            supers,
            attrs,
        })? {
            Response::OkClass { class, .. } => Ok(class),
            other => Err(unexpected("OkClass", &other)),
        }
    }

    // ---------------------------------------------------------------
    // Administration
    // ---------------------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The Prometheus rendering of every engine and server metric.
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Response::OkText(t) => Ok(t),
            other => Err(unexpected("OkText", &other)),
        }
    }

    /// Grants a §6 authorization (superuser only).
    pub fn grant(&mut self, user: u32, object: WireAuthObject, auth: WireAuth) -> Result<()> {
        self.expect_ok(&Request::Grant { user, object, auth })
    }

    /// Revokes an explicit grant (superuser only); false when no
    /// matching grant existed.
    pub fn revoke(&mut self, user: u32, object: WireAuthObject, auth: WireAuth) -> Result<bool> {
        match self.call(&Request::Revoke { user, object, auth })? {
            Response::OkBool(b) => Ok(b),
            other => Err(unexpected("OkBool", &other)),
        }
    }

    /// Asks the server to shut down (superuser only).
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.expect_ok(&Request::Shutdown)
    }

    fn expect_ok(&mut self, req: &Request) -> Result<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    fn oids(&mut self, req: &Request) -> Result<Vec<Oid>> {
        match self.call(req)? {
            Response::OkOids(oids) => Ok(oids),
            other => Err(unexpected("OkOids", &other)),
        }
    }
}

/// The pause before (0-based) `attempt` of a transaction: none for the
/// first two, then below `100 µs × attempt`, capped at 3.2 ms. The draw
/// is a SplitMix64 finalizer over the session id and the attempt, so two
/// colliding sessions fall out of lockstep without a `rand` dependency
/// and a session's schedule is reproducible.
fn retry_pause(session: u64, attempt: u32) -> Duration {
    if attempt < 2 {
        return Duration::ZERO;
    }
    let mut z = session
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_micros(z % (100 * u64::from(attempt.min(32))))
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Unexpected(format!("wanted {wanted}, got {got:?}"))
}

fn decode_event(payload: &[u8]) -> Result<Event> {
    match decode_response(payload).map_err(|e| ClientError::Io(e.to_string()))? {
        Response::Event { commit_lsn, deltas } => Ok(Event { commit_lsn, deltas }),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        other => Err(unexpected("Event", &other)),
    }
}

/// The receiving half of a change stream. Events arrive in commit-LSN
/// order; every `commit_lsn` is strictly greater than
/// [`Subscriber::start_lsn`].
pub struct Subscriber {
    stream: TcpStream,
    reader: FrameReader,
    start_lsn: u64,
}

impl Subscriber {
    /// The WAL LSN of the last commit that was durable when the stream
    /// attached — the same domain as [`Client::commit`]'s answer: commits
    /// answered with an LSN above it are on the stream, under that LSN,
    /// if they changed an object.
    pub fn start_lsn(&self) -> u64 {
        self.start_lsn
    }

    /// Blocks for the next event. A server-sent error (`SlowConsumer`,
    /// `ShuttingDown`) surfaces as [`ClientError::Server`]; a closed
    /// connection as [`ClientError::Io`].
    pub fn next_event(&mut self) -> Result<Event> {
        decode_event(self.reader.read_frame(&mut self.stream)?)
    }

    /// Like [`Subscriber::next_event`] but gives up after `timeout`,
    /// returning `Ok(None)`. Needed by tests that assert "no further
    /// events".
    pub fn next_event_timeout(&mut self, timeout: Duration) -> Result<Option<Event>> {
        self.stream.set_read_timeout(Some(timeout))?;
        let result = match self.reader.read_frame(&mut self.stream) {
            Ok(payload) => decode_event(payload).map(Some),
            // A frame cut short by the timeout stays buffered for the
            // next call.
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        };
        self.stream.set_read_timeout(None)?;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corion_protocol::{encode_response, read_frame, write_frame};
    use std::collections::VecDeque;
    use std::io;

    /// A scripted peer that counts calls: each `read` delivers one queued
    /// arrival (a whole response frame, as one TCP segment would), each
    /// `write` is recorded as one call.
    struct Counting {
        arrivals: VecDeque<Vec<u8>>,
        reads: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(arrival) = self.arrivals.pop_front() else {
                return Ok(0);
            };
            buf[..arrival.len()].copy_from_slice(&arrival);
            Ok(arrival.len())
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_response(resp)).unwrap();
        wire
    }

    #[test]
    fn a_round_trip_is_one_write_and_one_read() {
        let oids = vec![Oid::new(ClassId(3), 9); 50];
        let stream = Counting {
            arrivals: [Response::Pong, Response::OkOids(oids.clone()), Response::Ok]
                .iter()
                .map(frame)
                .collect(),
            reads: 0,
            writes: Vec::new(),
        };
        let mut client = Client::over(stream);
        client.ping().unwrap();
        assert_eq!(client.subtree_of(oids[0]).unwrap(), oids);
        client.begin().unwrap();
        assert_eq!(client.stream.reads, 3, "one read per whole-frame arrival");
        assert_eq!(client.stream.writes.len(), 3, "one write per frame");
        // Each write is exactly one well-formed frame.
        for (written, want) in client.stream.writes.iter().zip([
            Request::Ping,
            Request::SubtreeOf { oid: oids[0] },
            Request::Begin,
        ]) {
            let mut r = &written[..];
            let payload = read_frame(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(corion_protocol::decode_request(&payload).unwrap(), want);
        }
    }

    #[test]
    fn with_txn_retries_a_deadlock_victim_past_the_pause_and_then_commits() {
        let deadlock = Response::Error {
            code: ErrorCode::Deadlock,
            message: "victim".into(),
        };
        let no_txn = Response::Error {
            code: ErrorCode::TransactionState,
            message: "no open transaction".into(),
        };
        // Three victimised attempts (Begin, failing op, Abort answered
        // TransactionState), then a clean fourth.
        let mut script = Vec::new();
        for _ in 0..3 {
            script.extend([Response::Ok, deadlock.clone(), no_txn.clone()]);
        }
        script.extend([Response::Ok, Response::Ok, Response::OkLsn(9)]);
        let stream = Counting {
            arrivals: script.iter().map(frame).collect(),
            reads: 0,
            writes: Vec::new(),
        };
        let mut client = Client::over(stream);
        client.session = 5;
        let mut attempts = 0;
        client
            .with_txn(8, |c| {
                attempts += 1;
                c.ping_ok()
            })
            .unwrap();
        assert_eq!(attempts, 4);
        assert_eq!(client.stream.writes.len(), 12);

        // With the budget exhausted the last retryable error surfaces.
        let stream = Counting {
            arrivals: script[..6].iter().map(frame).collect(),
            reads: 0,
            writes: Vec::new(),
        };
        let mut client = Client::over(stream);
        let err = client.with_txn(2, |c| c.ping_ok()).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Deadlock));
    }

    impl Client<Counting> {
        /// Any request the script answers `Ok` or a typed error.
        fn ping_ok(&mut self) -> Result<()> {
            self.expect_ok(&Request::Ping)
        }
    }

    #[test]
    fn retry_pause_is_bounded_jittered_and_starts_at_the_third_attempt() {
        for session in 1..50u64 {
            assert_eq!(retry_pause(session, 0), Duration::ZERO);
            assert_eq!(retry_pause(session, 1), Duration::ZERO);
            for attempt in 2..100 {
                let pause = retry_pause(session, attempt);
                assert!(pause < Duration::from_micros(100 * u64::from(attempt.min(32))));
                assert_eq!(pause, retry_pause(session, attempt), "deterministic");
            }
        }
        // Two sessions in lockstep do not draw the same schedule.
        let schedule = |s| (2..10).map(|a| retry_pause(s, a)).collect::<Vec<_>>();
        assert_ne!(schedule(1), schedule(2));
    }
}
