//! The TCP front door: accept loop, per-connection handlers, connection
//! caps, and graceful drain.
//!
//! Shape: one acceptor thread polls a non-blocking [`TcpListener`]; each
//! accepted connection gets its own handler thread (bounded by
//! [`NetConfig::max_connections`] — beyond the cap a connection is
//! answered `503` and closed immediately, the connection-level twin of
//! queue shedding). Handlers speak the bounded HTTP subset
//! ([`super::http`]) with per-read socket timeouts plus a per-request
//! wall deadline, route through the private router module, and
//! keep-alive until the peer closes, errs, or the server drains.
//!
//! Graceful drain ([`NetServer::drain`], or [`DrainHandle`] from a signal
//! handler): stop accepting (the listener socket closes, so new
//! connections are *refused* by the kernel, not silently parked), let
//! every in-flight request finish and flush, then return. The worker
//! pool is shared (`Arc`) and intentionally not owned: after drain the
//! caller still holds it for final telemetry and shutdown.

use super::http::{read_request, HttpLimits, Response};
use super::router::{route, RouterCtx};
use super::shed::ShedPolicy;
use crate::pool::WorkerPool;
use crate::prom::{ConnGauges, MetricsExt};
use crate::trace::{SpanName, TraceConfig, TraceStore};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket-tier configuration.
#[derive(Clone)]
pub struct NetConfig {
    /// Most simultaneously open connections; excess connections are
    /// answered `503` and closed without reading the request.
    pub max_connections: usize,
    /// Per-read socket timeout (wakes a reader blocked on a silent peer).
    pub read_timeout: Duration,
    /// Per-write socket timeout.
    pub write_timeout: Duration,
    /// Wall-clock cap on reading one whole request — the slowloris
    /// defense: a peer trickling bytes cannot hold a handler past it.
    pub request_deadline: Duration,
    /// Byte/count caps for the HTTP parser.
    pub limits: HttpLimits,
    /// Admission control over the pool queue.
    pub shed: ShedPolicy,
    /// Most records accepted in one prediction request.
    pub max_records: usize,
    /// Request tracing; `None` disables the span layer entirely (no
    /// `x-overton-trace` echo, `/trace/<id>` answers 404).
    pub trace: Option<TraceConfig>,
    /// Extra exposition text appended to `GET /metrics` (the CLI hooks
    /// the obs layer's monitor metrics in here).
    pub metrics_ext: Option<MetricsExt>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            limits: HttpLimits::default(),
            shed: ShedPolicy::default(),
            max_records: 4096,
            trace: Some(TraceConfig::default()),
            metrics_ext: None,
        }
    }
}

impl std::fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConfig")
            .field("max_connections", &self.max_connections)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("request_deadline", &self.request_deadline)
            .field("limits", &self.limits)
            .field("shed", &self.shed)
            .field("max_records", &self.max_records)
            .field("trace", &self.trace)
            .field("metrics_ext", &self.metrics_ext.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Errors starting or running the socket tier.
#[derive(Debug)]
pub enum NetError {
    /// Binding `addr` failed — unparseable address, busy port,
    /// unroutable interface. The message names the address so `overton
    /// serve --listen` failures are actionable from the shell.
    Bind {
        /// The address as given.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A non-bind I/O failure (acceptor setup).
    Io(io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Bind { addr, source } => {
                write!(f, "cannot listen on {addr}: {source}")
            }
            NetError::Io(e) => write!(f, "socket tier i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Bind { source, .. } => Some(source),
            NetError::Io(e) => Some(e),
        }
    }
}

/// Binds a listener, reporting failures with the offending address.
///
/// Split out from [`NetServer::start`] so a caller (the CLI) can fail
/// fast on a bad `--listen` before doing any expensive artifact loading.
pub fn bind(addr: &str) -> Result<TcpListener, NetError> {
    // `ToSocketAddrs` on &str surfaces both parse failures and resolve
    // failures as io::Error; TcpListener::bind adds busy-port and
    // permission errors. All of them get the address attached.
    let wrap = |source: io::Error| NetError::Bind { addr: addr.to_string(), source };
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(wrap)?.collect();
    TcpListener::bind(&addrs[..]).map_err(wrap)
}

pub(crate) struct Shared {
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) config: NetConfig,
    pub(crate) draining: Arc<AtomicBool>,
    pub(crate) traces: Option<Arc<TraceStore>>,
    active: Mutex<usize>,
    idle: Condvar,
    accepted: AtomicU64,
    refused: AtomicU64,
}

impl Shared {
    /// Point-in-time connection gauges for `/metrics`.
    pub(crate) fn conn_gauges(&self) -> ConnGauges {
        ConnGauges {
            active: *self.active.lock().expect("active gauge poisoned") as u64,
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
        }
    }
}

/// A handle for requesting graceful drain from elsewhere — another
/// thread, or a Unix signal handler (the flag store is async-signal-safe).
#[derive(Clone)]
pub struct DrainHandle {
    draining: Arc<AtomicBool>,
}

impl DrainHandle {
    /// Requests drain: the acceptor stops within its poll interval and
    /// in-flight requests run to completion. Idempotent.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A running socket front end over a [`WorkerPool`].
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts serving on an already-bound listener (see [`bind`]).
    pub fn start(
        listener: TcpListener,
        pool: Arc<WorkerPool>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        let local_addr = listener.local_addr().map_err(NetError::Io)?;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let traces = config.trace.clone().map(|tc| Arc::new(TraceStore::new(tc)));
        let shared = Arc::new(Shared {
            pool,
            config,
            draining: Arc::new(AtomicBool::new(false)),
            traces,
            active: Mutex::new(0),
            idle: Condvar::new(),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("overton-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(NetError::Io)?
        };
        Ok(Self { shared, local_addr, acceptor: Some(acceptor) })
    }

    /// Binds `addr` and starts serving — [`bind`] + [`NetServer::start`].
    pub fn serve(addr: &str, pool: Arc<WorkerPool>, config: NetConfig) -> Result<Self, NetError> {
        Self::start(bind(addr)?, pool, config)
    }

    /// The bound address (with the kernel-assigned port when `addr` had
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable drain trigger for signal handlers and other threads.
    /// Draining via the handle stops the acceptor, but only
    /// [`NetServer::drain`] (or drop) blocks until in-flight work
    /// finishes.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle { draining: Arc::clone(&self.shared.draining) }
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Connections accepted into a handler so far.
    pub fn accepted_connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the door (over the connection cap).
    pub fn refused_connections(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }

    /// The server's trace retention store, when tracing is enabled —
    /// in-process access to the same traces `/trace/<id>` and `/traces`
    /// serve over the wire.
    pub fn trace_store(&self) -> Option<Arc<TraceStore>> {
        self.shared.traces.clone()
    }

    /// Gracefully drains: stop accepting (new connections are refused by
    /// the closed listener), finish and flush every in-flight request,
    /// then return. An idle keep-alive connection counts as in-flight
    /// until its read times out, so drain completes within roughly
    /// [`NetConfig::read_timeout`] even with lingering clients.
    pub fn drain(mut self) {
        self.drain_in_place();
    }

    fn drain_in_place(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let mut active = self.shared.active.lock().expect("active gauge poisoned");
        while *active > 0 {
            active = self.shared.idle.wait(active).expect("active gauge poisoned");
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain_in_place();
    }
}

/// How often the acceptor re-checks the drain flag while no connection
/// is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            // Dropping the listener closes the socket: subsequent
            // connects are refused by the kernel, the clean drain signal.
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => dispatch(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (aborted handshakes, fd pressure):
            // back off briefly rather than spinning or dying.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn dispatch(stream: TcpStream, shared: &Arc<Shared>) {
    {
        let mut active = shared.active.lock().expect("active gauge poisoned");
        if *active >= shared.config.max_connections {
            drop(active);
            shared.refused.fetch_add(1, Ordering::Relaxed);
            shared.pool.telemetry().record_shed();
            refuse(stream, &shared.config);
            return;
        }
        *active += 1;
    }
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name("overton-net-conn".into()).spawn(move || {
        handle_connection(stream, &conn_shared);
        let mut active = conn_shared.active.lock().expect("active gauge poisoned");
        *active -= 1;
        conn_shared.idle.notify_all();
    });
    if let Err(_e) = spawned {
        // Could not spawn (thread exhaustion): roll the gauge back; the
        // dropped stream closes the connection.
        let mut active = shared.active.lock().expect("active gauge poisoned");
        *active -= 1;
        shared.idle.notify_all();
    }
}

/// Answers an over-cap connection with an immediate `503` and closes it.
fn refuse(mut stream: TcpStream, config: &NetConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let retry = config.shed.retry_after.as_secs().max(1).to_string();
    let _ = Response::json(503, "{\"error\":\"connection limit reached\"}")
        .with_header("retry-after", &retry)
        .with_header("connection", "close")
        .write_to(&mut stream);
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let config = &shared.config;
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream.set_write_timeout(Some(config.write_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // One framing buffer per connection, reused by every response on it.
    let mut out = Vec::new();
    let ctx = RouterCtx { shared: Arc::clone(shared) };
    loop {
        // The cycle start doubles as the trace origin: the accept span
        // covers socket read (keep-alive idle wait included) + HTTP parse.
        let received = Instant::now();
        let deadline = received + config.request_deadline;
        match read_request(&mut reader, &config.limits, deadline) {
            Ok(req) => {
                // Decide connection fate *before* handling: a drain that
                // lands mid-request must still close afterwards.
                let close = req.wants_close() || shared.draining.load(Ordering::SeqCst);
                let (mut response, trace) = route(&ctx, &req, received);
                if close {
                    response = response.with_header("connection", "close");
                }
                if let Some(t) = &trace {
                    t.begin(SpanName::Write);
                }
                let wrote = write_response(&mut writer, &response, &mut out);
                if let Some(t) = &trace {
                    t.end(SpanName::Write);
                    if let Some(store) = &shared.traces {
                        store.finish(t);
                    }
                }
                if wrote.is_err() || close {
                    return;
                }
                // A request read after drain began was answered (likely
                // 503) with `connection: close`; re-check for requests
                // that were mid-flight when the flag flipped.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                // 4xx/5xx when answerable; quiet close otherwise. Either
                // way the connection is done — bounded parsing plus
                // close-on-error means a hostile peer costs at most one
                // request cycle.
                if let Some(response) = e.response() {
                    let _ = write_response(&mut writer, &response, &mut out);
                }
                return;
            }
        }
    }
}

fn write_response(w: &mut TcpStream, response: &Response, buf: &mut Vec<u8>) -> io::Result<()> {
    // Frame into one buffer so the response leaves in a single write
    // (headers are tiny; syscall-per-header would dominate small replies).
    buf.clear();
    response.write_to(buf)?;
    w.write_all(buf)
}
