//! `corion-server`: the CORION engine served over TCP.
//!
//! A thin, dependency-free network layer over the §7/MVCC concurrent
//! engine. One listener thread accepts connections; each session runs on
//! its own thread (the engine's locks are thread-blocking, so an async
//! runtime would buy nothing); change streams need no thread — the
//! committing session feeds them. The wire protocol lives in
//! `corion-protocol` and is specified in `docs/PROTOCOL.md`.
//!
//! Responsibilities of this crate, and where each lives:
//!
//! - **Admission control** ([`Server`]): a counting semaphore caps live
//!   sessions. At the cap, new connections get a typed `Overloaded`
//!   error and are closed immediately — never queued unboundedly.
//! - **Sessions** (`session`, private): handshake, request dispatch, the
//!   snapshot/transaction read paths, idle timeouts, §6 authorization.
//! - **Change streams** ([`stream`]): the engine's change sink — each
//!   durable commit arrives as the set of objects it changed, is mapped to
//!   composite-graph deltas and offered to bounded subscriber queues, by
//!   the committer, before it releases the commit latch.
//! - **Metrics** ([`metrics`]): the `corion_server_*` family, interned
//!   in the same registry as the engine's metrics so one `Metrics`
//!   request reports the whole stack.
//!
//! ```no_run
//! use corion_authz::AuthStore;
//! use corion_concurrent::{ChangeSink, ConcurrentDb};
//! use corion_server::{Server, ServerConfig};
//!
//! let server = Server::start(
//!     ConcurrentDb::new(),
//!     AuthStore::new(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! println!("serving on {}", server.local_addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod metrics;
mod session;
pub mod stream;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use corion_authz::AuthStore;
use corion_concurrent::{ChangeSink, ConcurrentDb};
use corion_protocol::{encode_response, write_frame, ErrorCode, Response};
use parking_lot::RwLock;

use metrics::ServerMetrics;
use stream::ChangeStreams;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind. Port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Admission-control cap: connections beyond this many live sessions
    /// are rejected with `Overloaded`.
    pub max_sessions: usize,
    /// Sessions idle longer than this are closed with `IdleTimeout`.
    pub idle_timeout: Duration,
    /// Bound of each change-stream subscriber queue (events, not bytes).
    /// A subscriber that falls this far behind is disconnected with
    /// `SlowConsumer`.
    pub stream_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            max_sessions: 64,
            idle_timeout: Duration::from_secs(300),
            stream_buffer: 256,
        }
    }
}

/// Shared state every session thread holds an `Arc` to.
pub(crate) struct Inner {
    pub(crate) db: ConcurrentDb,
    pub(crate) auth: RwLock<AuthStore>,
    pub(crate) streams: Arc<ChangeStreams>,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Set by [`Server::shutdown`] or a superuser `Shutdown` request;
    /// the accept loop and every session poll it.
    pub(crate) shutdown: AtomicBool,
    pub(crate) idle_timeout: Duration,
    /// Live-session count — the admission semaphore.
    sessions: AtomicUsize,
    max_sessions: usize,
    next_session: AtomicU64,
}

/// Decrements the session count (and gauge) however the session ends.
struct SessionPermit {
    inner: Arc<Inner>,
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.inner.sessions.fetch_sub(1, Ordering::SeqCst);
        // A delta, not `set(count)`: two sessions ending together could
        // store their counts out of order and leave the gauge stuck at 1.
        self.inner.metrics.sessions_active.add(-1);
    }
}

/// A running CORION server. Dropping the handle does **not** stop it;
/// call [`Server::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, registers the change-stream sink on `db`, spawns the accept
    /// loop, and returns. Every session runs against `db` through MVCC
    /// snapshots and §7 write transactions; `auth` gates every request
    /// (user 0 is the superuser and bypasses checks).
    pub fn start(
        db: ConcurrentDb,
        auth: AuthStore,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let registry = db.with_read(|d| d.metrics_registry().clone());
        let metrics = Arc::new(ServerMetrics::new(&registry));
        let streams = ChangeStreams::new(config.stream_buffer, Arc::clone(&metrics));
        db.set_change_sink(Arc::clone(&streams) as Arc<dyn ChangeSink>);
        let inner = Arc::new(Inner {
            db,
            auth: RwLock::new(auth),
            streams,
            metrics,
            shutdown: AtomicBool::new(false),
            idle_timeout: config.idle_timeout,
            sessions: AtomicUsize::new(0),
            max_sessions: config.max_sessions,
            next_session: AtomicU64::new(1),
        });

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("corion-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))?;

        Ok(Server {
            inner,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`Server::shutdown`] was called or a superuser sent
    /// `Shutdown` over the wire.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Signals shutdown and joins the accept thread. In-flight sessions —
    /// subscribed ones included — observe the flag at their next poll
    /// tick (≤ ~50 ms) and close with `ShuttingDown`.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Blocks until the server stops — e.g. a superuser `Shutdown`
    /// request. This is what `corion serve` sits in.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// How long the accept loop sleeps when `accept` would block.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.metrics.connections.inc();
                admit(stream, &inner);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Listener broke (fd limit, socket error): back off and
                // retry rather than silently dying.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Admission control: take a semaphore slot or reject with `Overloaded`.
/// The reject path never queues — bounded work under overload is the
/// whole point.
fn admit(mut stream: TcpStream, inner: &Arc<Inner>) {
    let prev = inner.sessions.fetch_add(1, Ordering::SeqCst);
    if prev >= inner.max_sessions {
        inner.sessions.fetch_sub(1, Ordering::SeqCst);
        inner.metrics.overload_rejections.inc();
        let _ = write_frame(
            &mut stream,
            &encode_response(&Response::Error {
                code: ErrorCode::Overloaded,
                message: format!("session cap {} reached; retry later", inner.max_sessions),
            }),
        );
        return; // dropping the stream closes it
    }
    inner.metrics.sessions_active.add(1);
    let permit = SessionPermit {
        inner: Arc::clone(inner),
    };
    let id = inner.next_session.fetch_add(1, Ordering::SeqCst);
    let session_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name(format!("corion-session-{id}"))
        .spawn(move || {
            let _permit = permit;
            session::run(session_inner, stream, id);
        });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion). The permit was
        // moved into the closure only on success; on failure it dropped
        // with the error, releasing the slot.
        inner.metrics.overload_rejections.inc();
    }
}
