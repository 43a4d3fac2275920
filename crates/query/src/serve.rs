//! A long-lived TCP query daemon with coalesced batch execution.
//!
//! The paper's premise is *ad hoc* queries arriving continuously against a
//! compressed store; a one-process-per-query CLI pays a store open (and a
//! cold page cache) per question. This module keeps one
//! [`QueryEngine`] — and therefore one `ShardedStore` page pool — alive
//! behind a TCP listener, so the batching argument of [`crate::batch`]
//! extends *across clients*: concurrently arriving cell queries are
//! collected into a small admission window and executed as one
//! [`QueryEngine::batch_cells`] run, making N clients asking about the
//! same row cost one `U`-row fetch per shard instead of N. A window
//! closes as soon as every open connection has a request in it (no one
//! else can join, so waiting longer cannot coalesce more), when it holds
//! `batch_max` requests, or at its deadline, whichever comes first.
//!
//! Aggregate queries ride the same admission window: requests collected
//! in one window are grouped by identical `(aggregate, selection)` and
//! each distinct group is scanned **once**, the result fanned out to
//! every requester — N clients asking for the same time-range average
//! cost one block scan, not N (the `STATS` counters `coalesced_aggs` /
//! `agg_scans` expose the sharing factor).
//!
//! ## Wire protocol
//!
//! Both directions speak length-prefixed frames: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8. Request payloads
//! are query lines in the [`crate::parse`] grammar (`cell 42 17`,
//! `avg rows 0..100 cols all`) or one of three verbs: `PING` (liveness),
//! `STATS` (per-connection and server-wide metrics plus I/O counters),
//! `SHUTDOWN` (graceful drain). Responses are `OK …` or `ERR …`; a
//! malformed, oversized, or unparseable request earns an `ERR` frame and
//! the connection stays healthy — the daemon never panics on input.
//!
//! ## Shutdown semantics
//!
//! Shutdown (the `SHUTDOWN` verb, or [`ServerHandle::begin_shutdown`]
//! from the hosting process — the CLI wires stdin EOF / `quit` to it)
//! stops accepting connections, lets every in-flight request finish and
//! its response be written whole, and drains any cells still queued in
//! the admission window through one final batch. Responses are never
//! torn: a connection thread only re-checks the flag *between* frames.

use crate::batch::BatchRequest;
use crate::engine::{AggregateFn, QueryEngine};
use crate::parse::{parse_query, Query};
use crate::predicate::Predicate;
use crate::selection::Selection;
use ats_common::{AtsError, Result};
use ats_storage::IoSnapshot;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Callback handing the server a fresh per-shard I/O snapshot for the
/// `STATS` verb (the query crate cannot name `ShardedStore` directly —
/// the core crate depends on this one, not the other way around).
pub type IoSnapshotFn = Box<dyn Fn() -> Vec<IoSnapshot> + Send + Sync>;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 picks a free port; see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// Worker threads for aggregate scans and batch execution.
    pub threads: usize,
    /// Admission window: once a query arrives, the batcher keeps
    /// collecting more for at most this long before executing. The
    /// window closes early once every open connection has at least one
    /// request queued — no other client can join it then — so this is an
    /// upper bound that only a connection sitting idle makes the batch
    /// wait out.
    pub window: Duration,
    /// Execute the pending batch as soon as it holds this many cells,
    /// even if the window has not expired.
    pub batch_max: usize,
    /// Largest accepted request payload in bytes; longer frames earn an
    /// `ERR` response (the payload is drained so the connection survives).
    pub max_frame: usize,
    /// Most cell queries one connection may have waiting in the batcher
    /// at once. A client pipelining faster than the admission window
    /// drains gets `ERR busy` replies beyond this depth instead of
    /// growing the batcher's queue without bound.
    pub pending_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            window: Duration::from_millis(2),
            batch_max: 64,
            max_frame: 1 << 20,
            pending_max: 64,
        }
    }
}

/// Point-in-time copy of the server-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections accepted so far.
    pub connections: u64,
    /// Queries answered with `OK` (cells + aggregates).
    pub queries: u64,
    /// Cell queries answered (each went through the admission window).
    pub cells: u64,
    /// Aggregate queries answered.
    pub aggregates: u64,
    /// `ERR` responses written (parse errors, bad frames, out-of-range).
    pub errors: u64,
    /// `ERR busy` responses: cells refused because the connection already
    /// had `pending_max` cells waiting in the batcher.
    pub busy: u64,
    /// `batch_cells` executions — the number of admission windows fired.
    pub batches: u64,
    /// Cells answered across all batches (`cells / batches` is the
    /// coalescing factor).
    pub coalesced_cells: u64,
    /// Distinct `(aggregate, selection)` scans executed by the batcher.
    pub agg_scans: u64,
    /// Aggregate requests admitted through windows (`coalesced_aggs /
    /// agg_scans` is the aggregate sharing factor).
    pub coalesced_aggs: u64,
    /// Summed request latency in microseconds (admission wait included).
    pub latency_usec: u64,
    /// Connections open right now (accepted, not yet finished).
    pub live_connections: u64,
    /// Admission windows closed early because every live connection had
    /// a request queued.
    pub windows_quorum: u64,
    /// Admission windows closed because they reached `batch_max`.
    pub windows_full: u64,
    /// Admission windows held to their deadline. (Windows flushed by
    /// shutdown count in none of the three.)
    pub windows_deadline: u64,
}

/// Live atomic counters behind the snapshot.
#[derive(Debug, Default)]
struct ServerMetrics {
    connections: AtomicU64,
    queries: AtomicU64,
    cells: AtomicU64,
    aggregates: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    coalesced_cells: AtomicU64,
    agg_scans: AtomicU64,
    coalesced_aggs: AtomicU64,
    latency_usec: AtomicU64,
    /// Only ever decremented under the queue lock (see
    /// [`Shared::connection_finished`]), which the batcher holds while it
    /// reads the count.
    live_connections: AtomicU64,
    windows_quorum: AtomicU64,
    windows_full: AtomicU64,
    windows_deadline: AtomicU64,
}

impl ServerMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections: self.connections.load(Ordering::SeqCst),
            queries: self.queries.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            aggregates: self.aggregates.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_cells: self.coalesced_cells.load(Ordering::Relaxed),
            agg_scans: self.agg_scans.load(Ordering::Relaxed),
            coalesced_aggs: self.coalesced_aggs.load(Ordering::Relaxed),
            latency_usec: self.latency_usec.load(Ordering::Relaxed),
            live_connections: self.live_connections.load(Ordering::SeqCst),
            windows_quorum: self.windows_quorum.load(Ordering::Relaxed),
            windows_full: self.windows_full.load(Ordering::Relaxed),
            windows_deadline: self.windows_deadline.load(Ordering::Relaxed),
        }
    }
}

/// One cell query waiting in the admission window. The reply is a value
/// or a rendered error message — the requesting connection thread blocks
/// on the channel until the batcher answers.
struct Pending {
    /// Id of the requesting connection (for the quorum check).
    conn: u64,
    row: usize,
    col: usize,
    tx: mpsc::Sender<std::result::Result<f64, String>>,
}

/// One aggregate query waiting in the admission window. Identical
/// `(f, sel, pred)` triples collected in the same window share one scan
/// (`pred` is `None` for plain aggregates, `Some` for `where` forms).
struct PendingAgg {
    /// Id of the requesting connection (for the quorum check).
    conn: u64,
    f: AggregateFn,
    sel: Selection,
    pred: Option<Predicate>,
    tx: mpsc::Sender<std::result::Result<f64, String>>,
}

/// The admission queue: cells and aggregates waiting for the current
/// window to fire.
#[derive(Default)]
struct BatchQueue {
    items: Vec<Pending>,
    aggs: Vec<PendingAgg>,
    /// Set by the batcher on exit: late arrivals are refused instead of
    /// waiting forever on a reply that will never come.
    closed: bool,
}

impl BatchQueue {
    fn len(&self) -> usize {
        self.items.len().saturating_add(self.aggs.len())
    }

    /// Whether at least `live` distinct connections have a request
    /// queued — with every open connection already in the window, no one
    /// else can join it. `seen` is the caller's scratch list, reused so
    /// the check does not allocate each time the batcher wakes.
    fn all_live_queued(&self, live: u64, seen: &mut Vec<u64>) -> bool {
        seen.clear();
        let ids = self.items.iter().map(|p| p.conn);
        for id in ids.chain(self.aggs.iter().map(|p| p.conn)) {
            if !seen.contains(&id) {
                seen.push(id);
                if u64::try_from(seen.len()).unwrap_or(u64::MAX) >= live {
                    return true;
                }
            }
        }
        false
    }
}

/// State shared by the acceptor, the batcher, and every connection.
struct Shared {
    engine: QueryEngine<'static>,
    window: Duration,
    batch_max: usize,
    max_frame: usize,
    pending_max: usize,
    shutdown: AtomicBool,
    queue: Mutex<BatchQueue>,
    queue_cv: Condvar,
    metrics: ServerMetrics,
    io_snapshots: Option<IoSnapshotFn>,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Lock a mutex, recovering the guard if a holder panicked — the daemon
/// keeps serving; a poisoned queue is still structurally valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Stop counting a finished connection as live and wake the batcher,
    /// so a window held open only by this connection closes at once. The
    /// decrement happens under the queue lock: a batcher between its
    /// quorum check and its wait cannot miss the wake-up.
    fn connection_finished(&self) {
        {
            let _q = lock(&self.queue);
            self.metrics.live_connections.fetch_sub(1, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
    }
}

/// A running server: the resolved address plus the handles needed to
/// stop it. Dropping the handle does *not* stop the server — call
/// [`ServerHandle::join`] (or [`ServerHandle::begin_shutdown`] followed
/// by `join`) for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `addr` asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to shut down: stop accepting, finish in-flight
    /// requests, drain the admission queue. Returns immediately;
    /// [`ServerHandle::join`] waits for the drain.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been requested (by this handle or by a
    /// client's `SHUTDOWN` verb).
    pub fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }

    /// Current server-wide counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Shut down (if not already requested) and wait for the acceptor,
    /// the batcher, and every connection thread to finish. Returns the
    /// final counters.
    pub fn join(mut self) -> Result<MetricsSnapshot> {
        self.shared.begin_shutdown();
        for h in self.accept.take().into_iter().chain(self.batcher.take()) {
            h.join()
                .map_err(|_| AtsError::internal("server thread panicked"))?;
        }
        // Take the handles inside a scoped block so the conns guard is
        // dropped before the (blocking) joins below.
        let conns = {
            let mut held = lock(&self.shared.conns);
            std::mem::take(&mut *held)
        };
        for h in conns {
            h.join()
                .map_err(|_| AtsError::internal("connection thread panicked"))?;
        }
        Ok(self.shared.metrics.snapshot())
    }
}

/// A cloneable trigger that requests shutdown from another thread —
/// the CLI hands one to its stdin watcher so EOF / `quit` drains the
/// daemon exactly like the `SHUTDOWN` verb does.
#[derive(Clone)]
pub struct ShutdownSwitch(Arc<Shared>);

impl ShutdownSwitch {
    /// Request the graceful drain (idempotent).
    pub fn trigger(&self) {
        self.0.begin_shutdown();
    }
}

impl ServerHandle {
    /// A detachable shutdown trigger for watcher threads.
    pub fn shutdown_switch(&self) -> ShutdownSwitch {
        ShutdownSwitch(Arc::clone(&self.shared))
    }
}

/// Start the daemon: bind `cfg.addr`, spawn the acceptor and the batch
/// executor, and return a [`ServerHandle`]. `io_snapshots`, when given,
/// feeds per-shard I/O counters into the `STATS` verb.
///
/// The engine must be the shared (`'static`) shape from
/// [`QueryEngine::shared`] so every connection thread can hold a clone;
/// its thread knob is overridden by `cfg.threads`.
pub fn serve(
    engine: QueryEngine<'static>,
    cfg: ServeConfig,
    io_snapshots: Option<IoSnapshotFn>,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr).map_err(AtsError::Io)?;
    let addr = listener.local_addr().map_err(AtsError::Io)?;
    // Non-blocking accept lets the acceptor poll the shutdown flag; no
    // signal machinery exists in safe std (and `unsafe` is denied
    // workspace-wide), so shutdown is always a flag, never a signal.
    listener.set_nonblocking(true).map_err(AtsError::Io)?;
    let shared = Arc::new(Shared {
        engine: engine.with_threads(cfg.threads.max(1)),
        window: cfg.window,
        batch_max: cfg.batch_max.max(1),
        max_frame: cfg.max_frame.max(16),
        pending_max: cfg.pending_max.max(1),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(BatchQueue::default()),
        queue_cv: Condvar::new(),
        metrics: ServerMetrics::default(),
        io_snapshots,
        conns: Mutex::new(Vec::new()),
    });
    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_batcher(&shared))
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_acceptor(&listener, &shared))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

/// Accept loop: poll for connections until shutdown, handing each stream
/// to its own thread (registered for join-on-shutdown).
fn run_acceptor(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is non-blocking; the per-connection
                // stream must not inherit that (reads use timeouts).
                let _ = stream.set_nonblocking(false);
                // Live before counted: once `connections` shows a client,
                // the batcher's quorum already waits for it.
                shared
                    .metrics
                    .live_connections
                    .fetch_add(1, Ordering::SeqCst);
                let id = shared.metrics.connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    handle_connection(&conn_shared, stream, id);
                    conn_shared.connection_finished();
                });
                lock(&shared.conns).push(handle);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Transient accept errors (EMFILE, resets): keep serving the
            // connections we have.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The admission/coalescing executor: wait for the first pending
/// request, keep collecting until every live connection has a request
/// queued, `batch_max` is reached, or the window expires, then run the
/// whole window as one [`QueryEngine::batch_cells`] call plus one scan
/// per distinct aggregate and scatter the replies. On shutdown the
/// remaining queue is drained through the same path before the thread
/// exits.
fn run_batcher(shared: &Shared) {
    let mut seen = Vec::new();
    loop {
        let (pending, aggs) = {
            let mut q = lock(&shared.queue);
            // Phase 1: wait for work (or shutdown + empty queue = done).
            while q.len() == 0 && !shared.is_shutdown() {
                let (guard, _timed_out) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
            if q.len() == 0 {
                q.closed = true;
                return;
            }
            // Phase 2: the admission window — collect more requests
            // until the size cap, the quorum (every live connection has
            // a request queued), the deadline, or shutdown (which
            // executes immediately so the drain finishes promptly).
            let deadline = Instant::now() + shared.window;
            let closed_by = loop {
                if shared.is_shutdown() {
                    break None;
                }
                if q.len() >= shared.batch_max {
                    break Some(&shared.metrics.windows_full);
                }
                let live = shared.metrics.live_connections.load(Ordering::SeqCst);
                if q.all_live_queued(live, &mut seen) {
                    break Some(&shared.metrics.windows_quorum);
                }
                let now = Instant::now();
                if now >= deadline {
                    break Some(&shared.metrics.windows_deadline);
                }
                let (guard, _timed_out) = shared
                    .queue_cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            };
            if let Some(counter) = closed_by {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            (std::mem::take(&mut q.items), std::mem::take(&mut q.aggs))
        };
        execute_batch(shared, pending);
        execute_aggs(shared, aggs);
    }
}

/// Run one admission window's cells as a single batch and reply to every
/// waiting connection. Cells were bounds-checked at admission, so a
/// batch error here is environmental (I/O, corrupt page) and is fanned
/// out to every requester rather than failing silently.
fn execute_batch(shared: &Shared, pending: Vec<Pending>) {
    if pending.is_empty() {
        return;
    }
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    let count = u64::try_from(pending.len()).unwrap_or(u64::MAX);
    shared
        .metrics
        .coalesced_cells
        .fetch_add(count, Ordering::Relaxed);
    let req = BatchRequest::new(pending.iter().map(|p| (p.row, p.col)).collect());
    match shared.engine.batch_cells(&req) {
        Ok(res) => {
            for (p, v) in pending.iter().zip(res.values()) {
                let _ = p.tx.send(Ok(*v));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for p in &pending {
                let _ = p.tx.send(Err(msg.clone()));
            }
        }
    }
}

/// Run one admission window's aggregates: group identical
/// `(f, sel, pred)` requests, scan each distinct group exactly once, and
/// fan the result out to every waiting requester. A failed scan errs
/// only its own group — the other groups in the window still answer.
fn execute_aggs(shared: &Shared, pending: Vec<PendingAgg>) {
    if pending.is_empty() {
        return;
    }
    let count = u64::try_from(pending.len()).unwrap_or(u64::MAX);
    shared
        .metrics
        .coalesced_aggs
        .fetch_add(count, Ordering::Relaxed);
    let mut groups: Vec<(
        AggregateFn,
        Selection,
        Option<Predicate>,
        Vec<mpsc::Sender<_>>,
    )> = Vec::new();
    for p in pending {
        match groups
            .iter_mut()
            .find(|(f, sel, pred, _)| *f == p.f && *sel == p.sel && *pred == p.pred)
        {
            Some((_, _, _, txs)) => txs.push(p.tx),
            None => groups.push((p.f, p.sel, p.pred, vec![p.tx])),
        }
    }
    for (f, sel, pred, txs) in groups {
        shared.metrics.agg_scans.fetch_add(1, Ordering::Relaxed);
        let res = match &pred {
            Some(pred) => shared.engine.aggregate_where(&sel, f, pred),
            None => shared.engine.aggregate(&sel, f),
        };
        match res {
            Ok(v) => {
                for tx in txs {
                    let _ = tx.send(Ok(v));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for tx in txs {
                    let _ = tx.send(Err(msg.clone()));
                }
            }
        }
    }
}

/// What one attempt to read a request frame produced.
enum FrameRead {
    /// A complete payload of at most `max_frame` bytes.
    Payload(Vec<u8>),
    /// The client declared a frame longer than `max_frame`; the payload
    /// was drained and discarded so the connection stays usable.
    Oversized(usize),
    /// Clean end of stream (or mid-frame disconnect) — close quietly.
    Closed,
    /// Shutdown was requested while waiting between frames.
    ShuttingDown,
}

/// Read exactly `buf.len()` bytes, riding out read timeouts so the
/// shutdown flag is polled between them. Returns `false` on EOF, a hard
/// I/O error, or shutdown-while-waiting (the caller closes either way —
/// except that `started` frames ride out shutdown so an already-sent
/// request is still answered, never torn).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared, started: bool) -> bool {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            return false;
        };
        match stream.read(rest) {
            Ok(0) => return false,
            Ok(n) => filled = filled.saturating_add(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Between frames (`!started`, nothing read yet) shutdown
                // closes the connection; inside a frame we keep reading
                // so a request already on the wire gets its response.
                if shared.is_shutdown() && !started && filled == 0 {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Read one length-prefixed frame.
fn read_frame(stream: &mut TcpStream, shared: &Shared) -> FrameRead {
    let mut header = [0u8; 4];
    if !read_full(stream, &mut header, shared, false) {
        return if shared.is_shutdown() {
            FrameRead::ShuttingDown
        } else {
            FrameRead::Closed
        };
    }
    let len = match usize::try_from(u32::from_be_bytes(header)) {
        Ok(len) => len,
        Err(_) => return FrameRead::Closed,
    };
    if len > shared.max_frame {
        // Drain the declared payload in bounded chunks so the stream
        // stays framed; give up (close) only on EOF or error.
        let mut remaining = len;
        let mut sink = vec![0u8; 8192.min(len)];
        while remaining > 0 {
            let take = sink.len().min(remaining);
            let Some(chunk) = sink.get_mut(..take) else {
                return FrameRead::Closed;
            };
            if !read_full(stream, chunk, shared, true) {
                return FrameRead::Closed;
            }
            remaining = remaining.saturating_sub(take);
        }
        return FrameRead::Oversized(len);
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, shared, true) {
        return FrameRead::Closed;
    }
    FrameRead::Payload(payload)
}

/// Write one length-prefixed response frame. A response is a single
/// `write_all` of header + payload, so it is never interleaved with
/// another response on the same connection.
fn write_frame(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "response frame too long")
    })?;
    let mut frame = Vec::with_capacity(bytes.len().saturating_add(4));
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Per-connection id and counters (the counters are reported by this
/// connection's `STATS`).
/// Atomics: the reader thread counts verbs/aggregates/errors, the writer
/// thread counts cell replies as it resolves them.
#[derive(Default)]
struct ConnMetrics {
    /// The acceptor's id for this connection; tags its queued requests.
    id: u64,
    queries: AtomicU64,
    errors: AtomicU64,
    latency_usec: AtomicU64,
}

/// One entry in a connection's in-order reply queue. The reader pushes
/// one item per request frame; the writer resolves and writes them in
/// FIFO order, so pipelined replies are never reordered.
enum WriterItem {
    /// A pre-rendered reply line (verbs, aggregates, errors) — already
    /// counted by the reader.
    Line(String),
    /// A cell or aggregate admitted to the batcher: wait for its
    /// result, count it, then write.
    Batched {
        rx: mpsc::Receiver<std::result::Result<f64, String>>,
        started: Instant,
        /// Whether this was an aggregate (counts into `aggregates`)
        /// rather than a cell (counts into `cells`).
        agg: bool,
    },
    /// The `SHUTDOWN` ack: write it, then raise the flag — the requester
    /// always hears the acknowledgment before the drain begins.
    Shutdown(String),
}

/// Serve one connection. Requests pipeline: a dedicated writer thread
/// owns the response side of the socket and resolves replies in FIFO
/// order, so a client may have up to `pending_max` cell queries in the
/// batcher at once — beyond that depth new cells earn `ERR busy` instead
/// of growing the batcher's queue. If the peer also stops *reading*
/// (so even `ERR busy` lines would pile up), the reader stops pulling
/// frames once the reply queue is twice `pending_max` deep and lets TCP
/// backpressure stall the flood.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, id: u64) {
    // Short read timeouts make the loop poll the shutdown flag; they are
    // retried inside `read_full`, invisible to the protocol.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnMetrics {
        id,
        ..ConnMetrics::default()
    });
    // Unresolved cells this connection has in the batcher (ERR-busy cap).
    let cells_in_flight = Arc::new(AtomicU64::new(0));
    // Reply-queue depth (hard backpressure cap).
    let queued = Arc::new(AtomicU64::new(0));
    let (wtx, wrx) = mpsc::channel::<WriterItem>();
    let writer = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        let cells_in_flight = Arc::clone(&cells_in_flight);
        let queued = Arc::clone(&queued);
        std::thread::spawn(move || {
            run_writer(&shared, &conn, write_half, &wrx, &cells_in_flight, &queued)
        })
    };
    let backpressure = u64::try_from(shared.pending_max.saturating_mul(2)).unwrap_or(u64::MAX);
    loop {
        // Hard backpressure: a peer that writes but never reads fills the
        // reply queue; stop reading frames and let the kernel's TCP
        // window push back instead of buffering `ERR busy` lines forever.
        while queued.load(Ordering::Acquire) >= backpressure && !shared.is_shutdown() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = match read_frame(&mut stream, shared) {
            FrameRead::Payload(p) => p,
            FrameRead::Oversized(len) => {
                conn.errors.fetch_add(1, Ordering::Relaxed);
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let msg = format!(
                    "ERR frame of {len} bytes exceeds the {} byte limit",
                    shared.max_frame
                );
                queued.fetch_add(1, Ordering::Release);
                if wtx.send(WriterItem::Line(msg)).is_err() {
                    break;
                }
                continue;
            }
            FrameRead::Closed | FrameRead::ShuttingDown => break,
        };
        let started = Instant::now();
        let item = match std::str::from_utf8(&payload) {
            Ok(text) => dispatch(shared, &conn, &cells_in_flight, text, started),
            Err(_) => immediate_err(
                shared,
                &conn,
                "request payload is not valid UTF-8".to_string(),
                started,
            ),
        };
        let done = matches!(item, WriterItem::Shutdown(_));
        queued.fetch_add(1, Ordering::Release);
        if wtx.send(item).is_err() || done {
            break;
        }
    }
    // Close the reply queue and let the writer drain it: replies for
    // cells still in the batcher are written before the thread exits.
    drop(wtx);
    let _ = writer.join();
}

/// The writer half of one connection: resolve queued replies in FIFO
/// order and write each as one frame. Keeps draining (without writing)
/// after a socket error so in-flight cell receivers still resolve.
fn run_writer(
    shared: &Shared,
    conn: &ConnMetrics,
    mut stream: TcpStream,
    wrx: &mpsc::Receiver<WriterItem>,
    cells_in_flight: &AtomicU64,
    queued: &AtomicU64,
) {
    let mut broken = false;
    while let Ok(item) = wrx.recv() {
        let (line, done) = match item {
            WriterItem::Line(s) => (s, false),
            WriterItem::Batched { rx, started, agg } => {
                let line = match rx.recv() {
                    Ok(Ok(v)) => {
                        conn.queries.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
                        if agg {
                            shared.metrics.aggregates.fetch_add(1, Ordering::Relaxed);
                        } else {
                            shared.metrics.cells.fetch_add(1, Ordering::Relaxed);
                        }
                        format!("OK {v}")
                    }
                    Ok(Err(msg)) => {
                        conn.errors.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        format!("ERR {msg}")
                    }
                    Err(_) => {
                        conn.errors.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        "ERR batch executor dropped the request".to_string()
                    }
                };
                cells_in_flight.fetch_sub(1, Ordering::Release);
                let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                conn.latency_usec.fetch_add(elapsed, Ordering::Relaxed);
                shared
                    .metrics
                    .latency_usec
                    .fetch_add(elapsed, Ordering::Relaxed);
                (line, false)
            }
            WriterItem::Shutdown(s) => (s, true),
        };
        queued.fetch_sub(1, Ordering::Release);
        if !broken && write_frame(&mut stream, &line).is_err() {
            broken = true;
        }
        if done {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Record an immediately-known `ERR` reply (reader side).
fn immediate_err(shared: &Shared, conn: &ConnMetrics, msg: String, started: Instant) -> WriterItem {
    conn.errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    count_latency(shared, conn, started);
    WriterItem::Line(format!("ERR {msg}"))
}

fn count_latency(shared: &Shared, conn: &ConnMetrics, started: Instant) {
    let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    conn.latency_usec.fetch_add(elapsed, Ordering::Relaxed);
    shared
        .metrics
        .latency_usec
        .fetch_add(elapsed, Ordering::Relaxed);
}

/// Execute one request line (reader side): a protocol verb, an aggregate
/// (answered synchronously), or a cell (admitted to the batcher, reply
/// resolved later by the writer).
fn dispatch(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    text: &str,
    started: Instant,
) -> WriterItem {
    let line = text.trim();
    if line.eq_ignore_ascii_case("ping") {
        count_latency(shared, conn, started);
        return WriterItem::Line("OK pong".to_string());
    }
    if line.eq_ignore_ascii_case("shutdown") {
        count_latency(shared, conn, started);
        return WriterItem::Shutdown("OK shutting down".to_string());
    }
    if line.eq_ignore_ascii_case("stats") {
        count_latency(shared, conn, started);
        return WriterItem::Line(format!("OK {}", render_stats(shared, conn)));
    }
    match parse_query(line) {
        Ok(Query::Cell(i, j)) => cell_via_batcher(shared, conn, cells_in_flight, i, j, started),
        Ok(Query::Aggregate(f, sel)) => {
            agg_via_batcher(shared, conn, cells_in_flight, f, sel, None, started)
        }
        Ok(Query::AggregateWhere(f, sel, pred)) => {
            agg_via_batcher(shared, conn, cells_in_flight, f, sel, Some(pred), started)
        }
        Err(e) => immediate_err(shared, conn, e.to_string(), started),
    }
}

/// Admit one cell query into the coalescing window; the writer thread
/// waits for the batch that answers it. Bounds are checked *here*, per
/// request — a bad cell earns its own `ERR` without poisoning the batch
/// the other clients' queries land in ([`QueryEngine::batch_cells`]
/// fails whole batches on any invalid cell, so invalid cells must never
/// be enqueued). A connection already at `pending_max` unresolved cells
/// is refused with `ERR busy` — the batcher's queue cannot be grown
/// without bound by one flooding peer.
fn cell_via_batcher(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    row: usize,
    col: usize,
    started: Instant,
) -> WriterItem {
    let (n, m) = (shared.engine.rows(), shared.engine.cols());
    if row >= n {
        return immediate_err(
            shared,
            conn,
            AtsError::oob("row", row, n).to_string(),
            started,
        );
    }
    if col >= m {
        return immediate_err(
            shared,
            conn,
            AtsError::oob("column", col, m).to_string(),
            started,
        );
    }
    let pending_max = u64::try_from(shared.pending_max).unwrap_or(u64::MAX);
    if cells_in_flight.load(Ordering::Acquire) >= pending_max {
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        return immediate_err(
            shared,
            conn,
            format!("busy: {pending_max} cell queries already in flight on this connection"),
            started,
        );
    }
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = lock(&shared.queue);
        if q.closed {
            false
        } else {
            q.items.push(Pending {
                conn: conn.id,
                row,
                col,
                tx,
            });
            true
        }
    };
    if !admitted {
        return immediate_err(shared, conn, "server is shutting down".to_string(), started);
    }
    cells_in_flight.fetch_add(1, Ordering::Release);
    shared.queue_cv.notify_all();
    WriterItem::Batched {
        rx,
        started,
        agg: false,
    }
}

/// Admit one aggregate query into the coalescing window; identical
/// `(aggregate, selection, predicate)` requests collected in the same
/// window share one scan. The selection is bounds-checked at admission
/// so a bad request earns its own immediate `ERR`; in-flight aggregates
/// count against the same per-connection `pending_max` cap as cells.
fn agg_via_batcher(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    f: AggregateFn,
    sel: Selection,
    pred: Option<Predicate>,
    started: Instant,
) -> WriterItem {
    if let Err(e) = sel.validate(shared.engine.rows(), shared.engine.cols()) {
        return immediate_err(shared, conn, e.to_string(), started);
    }
    let pending_max = u64::try_from(shared.pending_max).unwrap_or(u64::MAX);
    if cells_in_flight.load(Ordering::Acquire) >= pending_max {
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        return immediate_err(
            shared,
            conn,
            format!("busy: {pending_max} queries already in flight on this connection"),
            started,
        );
    }
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = lock(&shared.queue);
        if q.closed {
            false
        } else {
            q.aggs.push(PendingAgg {
                conn: conn.id,
                f,
                sel,
                pred,
                tx,
            });
            true
        }
    };
    if !admitted {
        return immediate_err(shared, conn, "server is shutting down".to_string(), started);
    }
    cells_in_flight.fetch_add(1, Ordering::Release);
    shared.queue_cv.notify_all();
    WriterItem::Batched {
        rx,
        started,
        agg: true,
    }
}

/// Render the `STATS` response: one `stats` marker line, then
/// `key value` lines for the server-wide counters, this connection's
/// counters, and (when wired) the per-shard and total I/O snapshots.
fn render_stats(shared: &Shared, conn: &ConnMetrics) -> String {
    let m = shared.metrics.snapshot();
    let mut out = String::from("stats\n");
    out.push_str(&format!(
        "server connections={} queries={} cells={} aggregates={} errors={} busy={} \
         batches={} coalesced_cells={} agg_scans={} coalesced_aggs={} latency_usec={} \
         live_connections={} windows_quorum={} windows_full={} windows_deadline={}\n",
        m.connections,
        m.queries,
        m.cells,
        m.aggregates,
        m.errors,
        m.busy,
        m.batches,
        m.coalesced_cells,
        m.agg_scans,
        m.coalesced_aggs,
        m.latency_usec,
        m.live_connections,
        m.windows_quorum,
        m.windows_full,
        m.windows_deadline
    ));
    out.push_str(&format!(
        "conn queries={} errors={} latency_usec={}\n",
        conn.queries.load(Ordering::Relaxed),
        conn.errors.load(Ordering::Relaxed),
        conn.latency_usec.load(Ordering::Relaxed)
    ));
    if let Some(io) = &shared.io_snapshots {
        let mut total = IoSnapshot::default();
        for (idx, s) in io().iter().enumerate() {
            total.merge(s);
            out.push_str(&format!(
                "io shard={idx} physical={} logical={} bytes={} hits={}\n",
                s.physical_reads, s.logical_reads, s.bytes_read, s.cache_hits
            ));
        }
        out.push_str(&format!(
            "io total physical={} logical={} bytes={} hits={}\n",
            total.physical_reads, total.logical_reads, total.bytes_read, total.cache_hits
        ));
    }
    out
}

/// Client-side frame helpers, shared by the integration tests and the
/// CI smoke client (`ats serve` is driven over a real socket in both).
pub mod client {
    use super::*;

    /// Hard cap on a response frame the client will buffer. The server
    /// never legitimately sends more (large query results stream as
    /// multiple frames); a corrupt or hostile peer declaring a huge
    /// length must not drive an allocation on the client.
    pub const MAX_RESPONSE_LEN: usize = 64 << 20;

    /// Send one request payload as a length-prefixed frame.
    pub fn send(stream: &mut TcpStream, payload: &str) -> Result<()> {
        write_frame(stream, payload).map_err(AtsError::Io)
    }

    /// Read one response frame (blocking until the peer answers).
    pub fn recv(stream: &mut TcpStream) -> Result<String> {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).map_err(AtsError::Io)?;
        let len = usize::try_from(u32::from_be_bytes(header))
            .map_err(|_| AtsError::internal("response length does not fit in usize"))?;
        if len > MAX_RESPONSE_LEN {
            return Err(AtsError::Corrupt(format!(
                "response frame declares {len} bytes (cap {MAX_RESPONSE_LEN})"
            )));
        }
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).map_err(AtsError::Io)?;
        String::from_utf8(payload)
            .map_err(|_| AtsError::Corrupt("response frame is not UTF-8".to_string()))
    }

    /// Send `payload` and wait for the reply — one round trip.
    pub fn round_trip(stream: &mut TcpStream, payload: &str) -> Result<String> {
        send(stream, payload)?;
        recv(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactMatrix;
    use ats_linalg::Matrix;

    fn start(window_ms: u64, batch_max: usize) -> (ServerHandle, QueryEngine<'static>) {
        let m = Arc::new(ExactMatrix(Matrix::from_fn(12, 9, |i, j| {
            ((i * 13 + j * 5) % 17) as f64 - 4.0
        })));
        let engine = QueryEngine::shared(m);
        let cfg = ServeConfig {
            window: Duration::from_millis(window_ms),
            batch_max,
            ..ServeConfig::default()
        };
        let handle = serve(engine.clone(), cfg, None).unwrap();
        (handle, engine)
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        TcpStream::connect(handle.addr()).unwrap()
    }

    /// Block until the acceptor has counted `k` connections. A window
    /// closes once every *counted* connection has a request queued, so a
    /// test that wants all its clients in one window waits for this
    /// before any client sends.
    fn wait_for_connections(handle: &ServerHandle, k: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().connections < k {
            assert!(Instant::now() < deadline, "only {:?}", handle.metrics());
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Whether `c` has no reply waiting (a short read times out).
    fn no_reply_yet(c: &mut TcpStream) -> bool {
        c.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let waiting = matches!(
            c.peek(&mut [0u8; 1]),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
        );
        c.set_read_timeout(None).unwrap();
        waiting
    }

    #[test]
    fn ping_query_stats_shutdown_round_trip() {
        let (handle, engine) = start(1, 8);
        let mut c = connect(&handle);
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        let cell = client::round_trip(&mut c, "cell 3 4").unwrap();
        let want = engine.cell(3, 4).unwrap();
        assert_eq!(cell, format!("OK {want}"));
        let agg = client::round_trip(&mut c, "sum rows all cols all").unwrap();
        assert!(agg.starts_with("OK "), "{agg}");
        let stats = client::round_trip(&mut c, "STATS").unwrap();
        assert!(stats.contains("server connections=1"), "{stats}");
        assert!(stats.contains("conn queries=2"), "{stats}");
        let bye = client::round_trip(&mut c, "SHUTDOWN").unwrap();
        assert_eq!(bye, "OK shutting down");
        let m = handle.join().unwrap();
        assert_eq!(m.cells, 1);
        assert_eq!(m.aggregates, 1);
        assert_eq!(m.batches, 1);
    }

    #[test]
    fn parse_and_range_errors_keep_connection_alive() {
        let (handle, _engine) = start(1, 8);
        let mut c = connect(&handle);
        for bad in ["definitely not a query", "cell 99 0", "cell 0 99", ""] {
            let r = client::round_trip(&mut c, bad).unwrap();
            assert!(r.starts_with("ERR "), "{bad:?} -> {r}");
        }
        // Still healthy afterwards.
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.errors, 4);
    }

    #[test]
    fn oversized_frame_is_refused_but_survivable() {
        let (handle, _engine) = start(1, 8);
        let mut c = connect(&handle);
        // Frame longer than max_frame: declared len 2 MiB, fully sent.
        let huge = vec![b'x'; 2 << 20];
        let len = u32::try_from(huge.len()).unwrap();
        c.write_all(&len.to_be_bytes()).unwrap();
        c.write_all(&huge).unwrap();
        let r = client::recv(&mut c).unwrap();
        assert!(r.starts_with("ERR frame of"), "{r}");
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        handle.begin_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_drains_pending_window() {
        // A huge window with a huge cap, held open by a second, idle
        // connection: the batch would sit for 30s — shutdown must flush
        // it instead, and the client still gets the right answer.
        let (handle, engine) = start(30_000, 1024);
        let mut c = connect(&handle);
        let _idle = connect(&handle);
        wait_for_connections(&handle, 2);
        client::send(&mut c, "cell 2 7").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        assert!(no_reply_yet(&mut c), "the window must still be open");
        handle.begin_shutdown();
        let r = client::recv(&mut c).unwrap();
        assert_eq!(r, format!("OK {}", engine.cell(2, 7).unwrap()));
        let m = handle.join().unwrap();
        assert_eq!(m.cells, 1);
        assert_eq!(m.batches, 1);
    }

    #[test]
    fn identical_aggregates_share_one_scan() {
        // Three clients ask the same range aggregate plus one distinct
        // one inside a single window: the batcher must run exactly two
        // scans and fan the shared answer out.
        let (handle, engine) = start(30_000, 4);
        let mut clients: Vec<TcpStream> = (0..4).map(|_| connect(&handle)).collect();
        wait_for_connections(&handle, 4);
        let queries = [
            "sum rows all cols 2..6",
            "sum rows all cols 2..6",
            "sum rows all cols 2..6",
            "max rows all cols all",
        ];
        for (c, q) in clients.iter_mut().zip(queries) {
            client::send(c, q).unwrap();
        }
        let mut replies = Vec::new();
        for c in &mut clients {
            replies.push(client::recv(c).unwrap());
        }
        let want_sum = engine
            .aggregate(
                &Selection {
                    rows: crate::selection::Axis::All,
                    cols: crate::selection::Axis::Range(2, 6),
                },
                AggregateFn::Sum,
            )
            .unwrap();
        for r in replies.iter().take(3) {
            assert_eq!(r, &format!("OK {want_sum}"));
        }
        assert!(replies[3].starts_with("OK "), "{}", replies[3]);
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 4);
        assert_eq!(m.coalesced_aggs, 4);
        assert_eq!(m.agg_scans, 2, "three identical + one distinct = two scans");
        assert_eq!(m.batches, 0, "no cell batches ran");
    }

    #[test]
    fn where_aggregates_coalesce_by_predicate() {
        // Two identical `where` queries share one scan; the same
        // selection with a different threshold — and the predicate-free
        // form of the same selection — each get their own.
        let (handle, engine) = start(30_000, 4);
        let mut clients: Vec<TcpStream> = (0..4).map(|_| connect(&handle)).collect();
        wait_for_connections(&handle, 4);
        let queries = [
            "count rows all where value > 3",
            "count rows all where value > 3",
            "count rows all where value > 5",
            "count rows all cols all",
        ];
        for (c, q) in clients.iter_mut().zip(queries) {
            client::send(c, q).unwrap();
        }
        let mut replies = Vec::new();
        for c in &mut clients {
            replies.push(client::recv(c).unwrap());
        }
        let sel = Selection {
            rows: crate::selection::Axis::All,
            cols: crate::selection::Axis::All,
        };
        let want = engine
            .aggregate_where(
                &sel,
                AggregateFn::Count,
                &Predicate::new(crate::predicate::CmpOp::Gt, 3.0).unwrap(),
            )
            .unwrap();
        assert_eq!(replies[0], format!("OK {want}"));
        assert_eq!(replies[1], format!("OK {want}"));
        assert!(replies[2].starts_with("OK "), "{}", replies[2]);
        assert_ne!(replies[2], replies[0]);
        assert_eq!(replies[3], "OK 108", "12x9 cells unfiltered");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 4);
        assert_eq!(m.coalesced_aggs, 4);
        assert_eq!(
            m.agg_scans, 3,
            "two identical where + distinct threshold + plain = three scans"
        );
    }

    #[test]
    fn aggregate_errors_err_only_their_group() {
        // An empty-selection aggregate that passes bounds validation
        // still fails at scan time; sharing a window with a healthy
        // group must not poison the healthy answers.
        let (handle, _engine) = start(30_000, 2);
        let mut a = connect(&handle);
        let mut b = connect(&handle);
        wait_for_connections(&handle, 2);
        client::send(&mut a, "avg rows all cols 4..4").unwrap();
        client::send(&mut b, "avg rows all cols all").unwrap();
        let ra = client::recv(&mut a).unwrap();
        let rb = client::recv(&mut b).unwrap();
        assert!(ra.starts_with("ERR "), "{ra}");
        assert!(rb.starts_with("OK "), "{rb}");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 1);
        assert_eq!(m.errors, 1);
        assert_eq!(m.agg_scans, 2);
    }

    #[test]
    fn batch_max_fires_without_waiting_for_window() {
        let (handle, engine) = start(30_000, 3);
        let mut clients: Vec<TcpStream> = (0..3).map(|_| connect(&handle)).collect();
        wait_for_connections(&handle, 3);
        for (t, c) in clients.iter_mut().enumerate() {
            client::send(c, &format!("cell 5 {t}")).unwrap();
        }
        for (t, c) in clients.iter_mut().enumerate() {
            let r = client::recv(c).unwrap();
            assert_eq!(r, format!("OK {}", engine.cell(5, t).unwrap()));
        }
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.batches, 1, "three cells must share one batch");
        assert_eq!(m.coalesced_cells, 3);
    }

    /// Send `cell 5 t` on each of `clients`, then read every reply.
    fn ask_cells(clients: &mut [TcpStream], engine: &QueryEngine<'static>) {
        for (t, c) in clients.iter_mut().enumerate() {
            client::send(c, &format!("cell 5 {t}")).unwrap();
        }
        for (t, c) in clients.iter_mut().enumerate() {
            let r = client::recv(c).unwrap();
            assert_eq!(r, format!("OK {}", engine.cell(5, t).unwrap()));
        }
    }

    #[test]
    fn window_closes_once_every_live_connection_has_queued() {
        // Neither the 30 s window nor the 1024 cap can fire; the second
        // connection's cell completes the quorum and closes the window.
        let (handle, engine) = start(30_000, 1024);
        let mut clients: Vec<TcpStream> = (0..2).map(|_| connect(&handle)).collect();
        wait_for_connections(&handle, 2);
        let t0 = Instant::now();
        ask_cells(&mut clients, &engine);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let m = handle.metrics();
        assert_eq!(m.live_connections, 2, "{m:?}");
        assert_eq!(m.batches, 1, "{m:?}");
        assert_eq!(m.coalesced_cells, 2, "{m:?}");
        assert_eq!(m.windows_quorum, 1, "{m:?}");
        assert_eq!((m.windows_full, m.windows_deadline), (0, 0), "{m:?}");
        handle.begin_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn idle_connection_holds_window_to_deadline() {
        let (handle, engine) = start(200, 1024);
        let mut clients: Vec<TcpStream> = (0..2).map(|_| connect(&handle)).collect();
        let _idle = connect(&handle);
        wait_for_connections(&handle, 3);
        let t0 = Instant::now();
        ask_cells(&mut clients, &engine);
        assert!(
            t0.elapsed() >= Duration::from_millis(200),
            "{:?}",
            t0.elapsed()
        );
        let m = handle.metrics();
        assert_eq!(m.live_connections, 3, "{m:?}");
        assert_eq!(m.batches, 1, "{m:?}");
        assert_eq!(m.coalesced_cells, 2, "{m:?}");
        assert_eq!(m.windows_deadline, 1, "{m:?}");
        assert_eq!((m.windows_quorum, m.windows_full), (0, 0), "{m:?}");
        handle.begin_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn dropping_idle_connection_releases_held_window() {
        let (handle, engine) = start(30_000, 1024);
        let mut clients: Vec<TcpStream> = (0..2).map(|_| connect(&handle)).collect();
        let idle = connect(&handle);
        wait_for_connections(&handle, 3);
        let t0 = Instant::now();
        for (t, c) in clients.iter_mut().enumerate() {
            client::send(c, &format!("cell 5 {t}")).unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        for c in &mut clients {
            assert!(no_reply_yet(c), "the idle connection holds the window");
        }
        drop(idle);
        for (t, c) in clients.iter_mut().enumerate() {
            let r = client::recv(c).unwrap();
            assert_eq!(r, format!("OK {}", engine.cell(5, t).unwrap()));
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        let m = handle.metrics();
        assert_eq!(m.live_connections, 2, "{m:?}");
        assert_eq!(m.batches, 1, "{m:?}");
        assert_eq!(m.coalesced_cells, 2, "{m:?}");
        assert_eq!(m.windows_quorum, 1, "{m:?}");
        assert_eq!((m.windows_full, m.windows_deadline), (0, 0), "{m:?}");
        handle.begin_shutdown();
        handle.join().unwrap();
    }
}
