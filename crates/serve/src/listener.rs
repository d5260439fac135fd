//! The pipelined front end: reader threads fill a bounded request
//! queue while the batch scheduler drains it, so I/O and compute
//! overlap (a double-buffered pipeline).
//!
//! Two transports share the pipeline:
//!
//! * [`serve_socket`] — a TCP listener speaking NDJSON, one reader and
//!   one writer thread per connection, back-pressure rejections when
//!   the queue is full;
//! * [`serve_stdin`] — stdin/stdout through the same queue, so reading
//!   the next lines overlaps with compiling the previous batch (the
//!   reader blocks instead of rejecting when the queue is full: stdin
//!   traffic is lossless).
//!
//! Every front end reads lines the same way: one bounded line reader
//! that answers an oversized line without buffering it, and one
//! classifier that splits compilation requests from control lines and
//! answers malformed control lines in place. The socket transport and
//! the fleet router (`qrc-lb`) also share one accept loop, one
//! connection loop, and one bounded reply sink per connection.
//!
//! In-band control lines are answered by the front end directly:
//! `{"cmd":"stats"}` returns a live metrics snapshot (including the
//! registry's loaded shard keys and checkpoint mtimes),
//! `{"cmd":"reload"}` rescans the models directory and atomically
//! swaps the shard map (in-flight batches finish on the old one),
//! `{"cmd":"calibrate"}` hot-swaps one device's calibration data and
//! selectively invalidates that device's fidelity-keyed cache entries,
//! and `{"cmd":"shutdown"}` begins a graceful drain — no new requests are
//! admitted, in-flight batches complete, every accepted request is
//! answered, then the serve call returns. On the socket transport,
//! control replies and back-pressure rejections are written as soon as
//! they are produced, so they may overtake compile responses that are
//! still queued; clients correlate by `id`. On the stdin transport,
//! replies come back in stream order, and a control line acts only
//! after every request read before it has been answered and before any
//! request read after it is scheduled.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::protocol::{ControlRequest, InboundLine, ServeRequest, ServeResponse};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{CompilationService, QueuedLine};

/// A cooperative shutdown signal shared by readers, the accept loop,
/// and the scheduler. Set by SIGTERM, `{"cmd":"shutdown"}`, or the
/// embedding application; once requested it never resets.
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Requests shutdown (idempotent).
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Tuning of the pipelined front end. The request-line limit is not
/// here: the readers enforce the service's own
/// [`crate::ServiceConfig::max_request_bytes`], without buffering an
/// oversized line.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Most requests per scheduled batch.
    pub batch_size: usize,
    /// How long the scheduler lingers collecting a fuller batch after
    /// the first request arrives (the batch-collection timeout).
    pub batch_wait: Duration,
    /// Bounded request-queue capacity; beyond it the socket front end
    /// rejects with a structured `overloaded` error.
    pub queue_capacity: usize,
    /// Emit one structured JSON log line per request to stderr.
    pub log_requests: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            batch_size: 16,
            batch_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            log_requests: false,
        }
    }
}

/// Decrements the active-connection count on drop — including on
/// panic — so the accept loop's drain wait can always reach zero.
struct ReaderGuard<'a>(&'a AtomicUsize);

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Routes response lines back to one socket client through a
/// *bounded* channel: if the client's reply window fills (it streams
/// requests but never reads responses), the connection is severed
/// instead of buffering unboundedly; the reader then sees EOF and the
/// writer drains what it already holds.
#[derive(Clone)]
pub(crate) struct ReplySink {
    pub(crate) tx: mpsc::SyncSender<String>,
    pub(crate) stream: Arc<TcpStream>,
}

impl ReplySink {
    pub(crate) fn send(&self, line: String) {
        if self.tx.try_send(line).is_err() {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One queued request: the raw line plus everything needed to answer
/// it later (arrival instant for queue-wait accounting, the owning
/// connection's writer).
struct Envelope {
    line: String,
    arrival: Instant,
    reply: ReplySink,
    conn: u64,
}

/// Serves NDJSON over TCP until shutdown is requested, then drains and
/// returns. The caller binds the listener (so tests and benchmarks can
/// pick an ephemeral port) and decides what requests shutdown: SIGTERM
/// plumbed into `shutdown`, or a client's `{"cmd":"shutdown"}`.
///
/// # Errors
///
/// Returns the underlying I/O error if the listener cannot be
/// configured. Per-connection errors end that connection only.
pub fn serve_socket(
    service: &Arc<CompilationService>,
    listener: TcpListener,
    config: &FrontendConfig,
    shutdown: &ShutdownFlag,
) -> std::io::Result<()> {
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity.max(1)));
    install_queue_probe(service, &queue);
    let acceptor = {
        let service = Arc::clone(service);
        let queue = Arc::clone(&queue);
        let config = config.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            let handler_queue = Arc::clone(&queue);
            let handler_shutdown = shutdown.clone();
            let accepted = accept_connections(listener, &shutdown, move |stream, conn| {
                handle_connection(
                    &service,
                    stream,
                    conn,
                    &handler_queue,
                    &config,
                    &handler_shutdown,
                );
            });
            // Every connection has finished answering or rejecting
            // what it read, so nothing more can be enqueued: close the
            // queue and the scheduler loop below runs dry.
            queue.close();
            accepted
        })
    };

    drain_queue(service, &queue, config);
    acceptor.join().expect("accept loop panicked")
}

/// One replica connection: requests are queued (or rejected as
/// `overloaded` when the queue is full); control lines, oversized
/// lines and malformed control lines are answered at once.
fn handle_connection(
    service: &Arc<CompilationService>,
    stream: TcpStream,
    conn: u64,
    queue: &BoundedQueue<Envelope>,
    config: &FrontendConfig,
    shutdown: &ShutdownFlag,
) {
    // The reply window bounds unread responses per connection. It sits
    // above the kernel's own socket buffering, so only a client that
    // has genuinely stopped reading can fill it.
    let window = config.queue_capacity.max(256);
    serve_connection(
        stream,
        window,
        service.max_request_bytes(),
        shutdown,
        |inbound, reply| {
            match inbound {
                Inbound::Request(line) => {
                    let envelope = Envelope {
                        line,
                        arrival: Instant::now(),
                        reply: reply.clone(),
                        conn,
                    };
                    match queue.try_push(envelope) {
                        Ok(()) => {}
                        Err(PushError::Full(envelope)) => {
                            service.record_rejected();
                            let response =
                                ServeResponse::overloaded(ServeRequest::recover_id(&envelope.line));
                            reply.send(log_reply(config, conn, &response));
                        }
                        Err(PushError::Closed(_)) => return true,
                    }
                }
                Inbound::Control(request, _) => {
                    reply.send(control_reply(service, &request, shutdown))
                }
                Inbound::Oversized(response) | Inbound::Malformed(response) => {
                    service.record(&response);
                    reply.send(log_reply(config, conn, &response));
                }
            }
            false
        },
    );
}

/// The accept loop of every socket front end (replicas and the fleet
/// router): accepts until shutdown is requested, runs `handle` on its
/// own thread for each connection (numbered from 1), then waits until
/// every handler has returned.
///
/// # Errors
///
/// Returns the I/O error if the listener cannot be made nonblocking.
pub(crate) fn accept_connections<H>(
    listener: TcpListener,
    shutdown: &ShutdownFlag,
    handle: H,
) -> std::io::Result<()>
where
    H: Fn(TcpStream, u64) + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let handle = Arc::new(handle);
    let active = Arc::new(AtomicUsize::new(0));
    let mut next_conn: u64 = 0;
    while !shutdown.is_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                // On BSD-likes an accepted socket inherits the
                // listener's O_NONBLOCK; force blocking so the
                // per-connection read timeout governs polling instead
                // of a busy-spin.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                next_conn += 1;
                let conn = next_conn;
                active.fetch_add(1, Ordering::SeqCst);
                let handle = Arc::clone(&handle);
                let active = Arc::clone(&active);
                std::thread::spawn(move || {
                    // Drop guard: the count must fall even if the
                    // handler panics, or the drain wait below spins
                    // forever.
                    let _guard = ReaderGuard(&active);
                    handle(stream, conn);
                });
            }
            // Nonblocking accept (or a transient accept error): poll so
            // the shutdown flag is observed even while no clients
            // connect.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    // Drain: no new connections; handlers finish what they already read.
    while active.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// One client connection, the same for replicas and the fleet router:
/// a writer thread drains the connection's [`ReplySink`] (at most
/// `reply_window` unread replies) while this thread runs the shared
/// read loop, handing each inbound line and the sink to `handle` until
/// the stream ends, shutdown is requested, or `handle` returns `true`.
pub(crate) fn serve_connection(
    stream: TcpStream,
    reply_window: usize,
    max_line_bytes: usize,
    shutdown: &ShutdownFlag,
    mut handle: impl FnMut(Inbound, &ReplySink) -> bool,
) {
    // A third handle lets the reply sink sever a connection whose
    // client stopped reading (the slow-consumer disconnect).
    let (Ok(write_half), Ok(disconnect)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let (tx, replies) = mpsc::sync_channel::<String>(reply_window);
    let reply = ReplySink {
        tx,
        stream: Arc::new(disconnect),
    };
    let writer = std::thread::spawn(move || write_loop(&mut BufWriter::new(write_half), &replies));

    // Poll reads so a quiet connection still observes shutdown.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    // A read error ends this connection only.
    let _ = read_inbound(
        &mut BufReader::new(stream),
        max_line_bytes,
        shutdown,
        |inbound| handle(inbound, &reply),
    );
    drop(reply);
    writer.join().expect("connection writer panicked");
}

/// Serves NDJSON on stdin/stdout through the same pipelined queue: a
/// reader thread pulls lines (blocking on back-pressure rather than
/// rejecting) while the scheduler compiles the previous batch.
///
/// Replies come back in stream order, and a control line acts on the
/// service only after every request read before it has been answered
/// and before any request read after it is scheduled: `stats` counts
/// exactly the lines before it, and a `reload` or `calibrate` applies
/// from the next line on.
///
/// Returns after EOF or `{"cmd":"shutdown"}` (lines after it are not
/// read), once every read request is answered — or, when `shutdown` is
/// requested out-of-band (the SIGTERM bridge), once everything already
/// read has been answered and flushed, even though the reader may
/// still be parked in a blocking stdin read that no signal will
/// interrupt.
///
/// # Errors
///
/// Returns the stdin read error if the input stream broke mid-session
/// — requests after the break were dropped, and callers should exit
/// nonzero so the client knows responses are missing.
pub fn serve_stdin(
    service: &Arc<CompilationService>,
    config: &FrontendConfig,
    shutdown: &ShutdownFlag,
) -> std::io::Result<()> {
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity.max(1)));
    install_queue_probe(service, &queue);

    // The reader only reads and classifies. Every reply — control
    // replies and in-place errors included — is produced by the drain
    // loop below, in arrival order, which leaves stdout owned by a
    // single thread: a TERM-initiated drain flushes everything it
    // answered before returning, without having to join a reader that
    // is parked in an uninterruptible blocking stdin read.
    let reader = {
        let queue = Arc::clone(&queue);
        let max_line_bytes = service.max_request_bytes();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || -> std::io::Result<()> {
            let mut input = std::io::stdin().lock();
            let read = read_inbound(&mut input, max_line_bytes, &shutdown, |inbound| {
                let last = matches!(inbound, Inbound::Control(ControlRequest::Shutdown, _));
                // Lossless: stdin lines block on a full queue instead
                // of being rejected.
                queue.push_wait((inbound, Instant::now())).is_err() || last
            });
            queue.close();
            read
        })
    };

    // The drain loop owns stdout. Between batches it wakes on an idle
    // bound so an out-of-band shutdown (SIGTERM) is observed even while
    // the reader is parked in a blocking stdin read.
    let mut out = std::io::stdout().lock();
    let mut idle_rounds = 0u32;
    loop {
        match queue.pop_batch_or_idle(
            config.batch_size,
            config.batch_wait,
            Duration::from_millis(50),
        ) {
            // Closed and drained: the reader finished (EOF, shutdown
            // command, or broken stream).
            None => break,
            Some((batch, _)) if batch.is_empty() => {
                if shutdown.is_requested() {
                    // Two consecutive idle polls after the flag: the
                    // reader is either parked or about to observe the
                    // flag, and everything it read has been answered.
                    idle_rounds += 1;
                    if idle_rounds >= 2 {
                        break;
                    }
                }
                continue;
            }
            Some((batch, assembly)) => {
                idle_rounds = 0;
                service.record_stage(
                    crate::metrics::Stage::BatchAssembly,
                    assembly.as_micros() as u64,
                );
                answer_in_order(service, config, shutdown, batch, &mut out);
                let _ = out.flush();
            }
        }
    }
    let _ = out.flush();

    // EOF / shutdown-command / broken-stream drains end with the reader
    // closing the queue and finishing: join it for the read error. A
    // TERM-initiated drain instead leaves it parked in a blocking stdin
    // read (SA_RESTART keeps the syscall alive through the signal) —
    // poll briefly, then return without joining: everything read was
    // answered and flushed above, and process exit reclaims the thread.
    if !shutdown.is_requested() {
        return reader.join().expect("stdin reader panicked");
    }
    for _ in 0..50 {
        if reader.is_finished() {
            return reader.join().expect("stdin reader panicked");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// Answers one popped stdin batch in arrival order. The batch is cut at
/// its control lines: the requests before a control line are scheduled
/// together and answered (in-place replies interleaved where they were
/// read), then the control line acts and is answered, then the next
/// stretch begins.
fn answer_in_order(
    service: &CompilationService,
    config: &FrontendConfig,
    shutdown: &ShutdownFlag,
    batch: Vec<(Inbound, Instant)>,
    out: &mut impl Write,
) {
    let mut batch = batch.into_iter();
    loop {
        let mut items = Vec::new();
        // `None` holds a scheduled request's place between the in-place
        // replies.
        let mut slots: Vec<Option<ServeResponse>> = Vec::new();
        let mut control = None;
        for (inbound, arrival) in batch.by_ref() {
            match inbound {
                Inbound::Request(line) => {
                    items.push(QueuedLine {
                        line,
                        queue_us: arrival.elapsed().as_micros() as u64,
                    });
                    slots.push(None);
                }
                Inbound::Oversized(response) | Inbound::Malformed(response) => {
                    service.record(&response);
                    slots.push(Some(response));
                }
                Inbound::Control(request, _) => {
                    control = Some(request);
                    break;
                }
            }
        }
        let mut scheduled = service.handle_queued(&items).into_iter();
        for response in slots
            .into_iter()
            .filter_map(|slot| slot.or_else(|| scheduled.next()))
        {
            if config.log_requests {
                eprintln!("{}", request_log_line(0, &response));
            }
            let _ = writeln!(out, "{}", response.to_line());
        }
        match control {
            Some(request) => {
                let _ = writeln!(out, "{}", control_reply(service, &request, shutdown));
            }
            None => return,
        }
    }
}

/// The scheduler half of the pipeline: pops batches off the queue
/// (waiting up to the batch-collection timeout for a fuller one),
/// schedules them, and routes each response line back to its
/// connection. Returns once the queue is closed and drained.
fn drain_queue(
    service: &Arc<CompilationService>,
    queue: &BoundedQueue<Envelope>,
    config: &FrontendConfig,
) {
    while let Some((batch, assembly)) = queue.pop_batch_timed(config.batch_size, config.batch_wait)
    {
        // One sample per batch: the linger the batching policy added on
        // top of queue wait (phase-1 idle blocking is excluded).
        service.record_stage(
            crate::metrics::Stage::BatchAssembly,
            assembly.as_micros() as u64,
        );
        let mut items = Vec::with_capacity(batch.len());
        let mut routes = Vec::with_capacity(batch.len());
        for envelope in batch {
            items.push(QueuedLine {
                line: envelope.line,
                queue_us: envelope.arrival.elapsed().as_micros() as u64,
            });
            routes.push((envelope.reply, envelope.conn));
        }
        let responses = service.handle_queued(&items);
        for (response, (reply, conn)) in responses.iter().zip(&routes) {
            if config.log_requests {
                eprintln!("{}", request_log_line(*conn, response));
            }
            reply.send(response.to_line());
        }
    }
}

/// Hands the service a live view of this front end's request queue:
/// `{"cmd":"stats"}` and the Prometheus rendering report its depth as
/// a gauge.
fn install_queue_probe<T: Send + 'static>(
    service: &Arc<CompilationService>,
    queue: &Arc<BoundedQueue<T>>,
) {
    let probe_queue = Arc::clone(queue);
    service.install_queue_probe(Box::new(move || probe_queue.len() as u64));
}

/// Binds `preferred` when given, falling back to an ephemeral loopback
/// port (with a warning) when that address is busy or unbindable; with
/// no preference it binds an ephemeral loopback port directly. Shared
/// by the bench harness's pipelined arm and the router/replica test
/// fixtures, which all want "the requested port if free, any free
/// port otherwise".
///
/// # Errors
///
/// Returns the I/O error if even the ephemeral fallback bind fails.
pub fn bind_ephemeral(preferred: Option<&str>) -> std::io::Result<TcpListener> {
    if let Some(addr) = preferred {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => eprintln!(
                "warning: could not bind {addr} ({e}); retrying on an ephemeral loopback port"
            ),
        }
    }
    TcpListener::bind("127.0.0.1:0")
}

/// SIGTERM → graceful drain. Signal handlers may only touch atomics,
/// so the handler sets a process-global flag and a watcher thread
/// forwards it to the front end's [`ShutdownFlag`]. Install before
/// any (possibly minutes-long) model startup: a TERM during training
/// marks the flag, startup completes, and the front end drains
/// immediately and exits cleanly instead of dying with exit 143.
#[cfg(unix)]
pub fn install_sigterm_bridge(shutdown: &ShutdownFlag) {
    static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    let shutdown = shutdown.clone();
    std::thread::spawn(move || loop {
        if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
            shutdown.request();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// SIGTERM → graceful drain (no-op off Unix: no SIGTERM to bridge).
#[cfg(not(unix))]
pub fn install_sigterm_bridge(_shutdown: &ShutdownFlag) {}

/// One inbound line as every front end classifies it.
pub(crate) enum Inbound {
    /// A compilation request, still unparsed: the scheduler (or the
    /// router's key extraction) decodes it.
    Request(String),
    /// A control command, with its raw line (the router fans it out
    /// verbatim).
    Control(ControlRequest, String),
    /// A line over the size limit (its bytes were discarded unread),
    /// answered in place.
    Oversized(ServeResponse),
    /// A control-looking line that does not parse, answered in place.
    Malformed(ServeResponse),
}

impl Inbound {
    /// Classifies one non-blank line. The substring probe keeps the
    /// common path single-parse: compilation requests are only decoded
    /// once, by the scheduler.
    fn classify(line: String) -> Inbound {
        if !line.contains("\"cmd\"") {
            return Inbound::Request(line);
        }
        match InboundLine::parse(&line) {
            Ok(InboundLine::Control(request)) => Inbound::Control(request, line),
            // `"cmd"` appeared inside an ordinary request's payload.
            Ok(InboundLine::Request(_)) => Inbound::Request(line),
            // Socket replies can overtake queued responses, so clients
            // correlate by id — echo it when present.
            Err((id, message)) => Inbound::Malformed(ServeResponse::rejected(id, message)),
        }
    }
}

/// The read loop every front end shares: bounded line reads (an
/// oversized line is answered, never buffered), blank lines skipped,
/// every other line classified and handed to `handle`. Stops at EOF,
/// once shutdown is requested, or when `handle` returns `true`.
///
/// # Errors
///
/// Returns the read error that broke the stream.
fn read_inbound<R: BufRead>(
    reader: &mut R,
    max_line_bytes: usize,
    shutdown: &ShutdownFlag,
    mut handle: impl FnMut(Inbound) -> bool,
) -> std::io::Result<()> {
    while !shutdown.is_requested() {
        let inbound = match read_bounded_line(reader, max_line_bytes, shutdown)? {
            ReadLine::Eof => break,
            ReadLine::TooLong(bytes) => {
                Inbound::Oversized(oversized_response(bytes, max_line_bytes))
            }
            ReadLine::Line(line) if line.trim().is_empty() => continue,
            ReadLine::Line(line) => Inbound::classify(line),
        };
        if handle(inbound) {
            break;
        }
    }
    Ok(())
}

/// Acts on one control command and renders its reply. A shutdown only
/// marks the flag: each front end drains in its own way.
fn control_reply(
    service: &CompilationService,
    request: &ControlRequest,
    shutdown: &ShutdownFlag,
) -> String {
    let reply = match request {
        ControlRequest::Stats => service.stats_value(),
        ControlRequest::Reload => service.reload_value(),
        ControlRequest::Snapshot => service.snapshot_value(),
        ControlRequest::Metrics => service.metrics_value(),
        ControlRequest::Calibrate {
            device,
            calibration,
        } => service.calibrate_value(device, calibration),
        ControlRequest::Shutdown => {
            shutdown.request();
            return shutdown_ack();
        }
    };
    serde_json::to_string(&reply)
}

/// The reply to `{"cmd":"shutdown"}`, the same from a replica and from
/// the fleet router.
pub(crate) fn shutdown_ack() -> String {
    serde_json::to_string(&Value::object(vec![
        ("ok", Value::from(true)),
        ("shutting_down", Value::from(true)),
    ]))
}

/// Emits the structured log line for a reader-produced response
/// (front-end error, oversized line, overload rejection) when logging
/// is enabled — the same visibility scheduled responses get in
/// [`drain_queue`] — and renders it for the wire. Metric recording
/// stays at the call site: rejections count under `rejected`, errors
/// under `errors`.
fn log_reply(config: &FrontendConfig, conn: u64, response: &ServeResponse) -> String {
    if config.log_requests {
        eprintln!("{}", request_log_line(conn, response));
    }
    response.to_line()
}

/// Writes reply lines as they arrive, coalescing bursts into one
/// flush. Exits when every sender is gone or the sink breaks.
fn write_loop<W: Write>(out: &mut W, replies: &mpsc::Receiver<String>) {
    while let Ok(line) = replies.recv() {
        if writeln!(out, "{line}").is_err() {
            return;
        }
        while let Ok(more) = replies.try_recv() {
            if writeln!(out, "{more}").is_err() {
                return;
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
    let _ = out.flush();
}

/// One bounded line read.
pub(crate) enum ReadLine {
    /// The stream ended.
    Eof,
    /// A line exceeded the byte limit (its length so far; the rest of
    /// the line was discarded without buffering).
    TooLong(usize),
    /// A complete line (without the trailing newline).
    Line(String),
}

/// Reads one `\n`-terminated line of at most `max` bytes, never
/// buffering more than the limit. Read timeouts poll the shutdown
/// flag (a requested shutdown reads as EOF), so blocked socket reads
/// wake up to drain.
pub(crate) fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    shutdown: &ShutdownFlag,
) -> std::io::Result<ReadLine> {
    let mut line: Vec<u8> = Vec::new();
    let mut total: usize = 0;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.is_requested() {
                    return Ok(ReadLine::Eof);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            return Ok(match (total, total > max) {
                (0, _) => ReadLine::Eof,
                (_, true) => ReadLine::TooLong(total),
                (_, false) => ReadLine::Line(String::from_utf8_lossy(&line).into_owned()),
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let upto = newline.unwrap_or(chunk.len());
        total += upto;
        if total <= max {
            line.extend_from_slice(&chunk[..upto]);
        } else {
            // Keep memory bounded: stop copying once over the limit.
            let room = max.saturating_sub(line.len());
            line.extend_from_slice(&chunk[..upto.min(room)]);
        }
        let consumed = upto + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            return Ok(if total > max {
                ReadLine::TooLong(total)
            } else {
                ReadLine::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

/// The structured error answering an over-limit request line (same
/// message as the service's own size check).
fn oversized_response(bytes: usize, limit: usize) -> ServeResponse {
    ServeResponse::rejected(None, crate::service::oversized_error(bytes, limit))
}

/// One structured per-request log line (stderr), emitted when
/// [`FrontendConfig::log_requests`] is set.
fn request_log_line(conn: u64, response: &ServeResponse) -> String {
    let (ok, cache) = match &response.result {
        Ok((_, status)) => (true, Value::from(status.name())),
        Err(_) => (false, Value::Null),
    };
    serde_json::to_string(&Value::object(vec![
        ("evt", Value::from("request")),
        ("conn", Value::from(conn)),
        (
            "id",
            match &response.id {
                Some(id) => Value::from(id.clone()),
                None => Value::Null,
            },
        ),
        ("ok", Value::from(ok)),
        ("cache", cache),
        (
            "shard",
            match &response.route {
                Some(route) => Value::from(route.shard.name()),
                None => Value::Null,
            },
        ),
        ("micros", Value::from(response.micros)),
        (
            // The service-assigned request ID, matching the `rid` echo
            // on the response line and the trace span's track — absent
            // for replies the front end produced without scheduling.
            "rid",
            match response.rid {
                Some(rid) => Value::from(rid),
                None => Value::Null,
            },
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flag() -> ShutdownFlag {
        ShutdownFlag::new()
    }

    #[test]
    fn bounded_line_reader_splits_and_limits() {
        let data = b"short\nexactly10\nway too long for the limit\nlast";
        let mut reader = BufReader::new(&data[..]);
        let max = 10;
        let s = flag();
        assert!(matches!(
            read_bounded_line(&mut reader, max, &s).unwrap(),
            ReadLine::Line(l) if l == "short"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader, max, &s).unwrap(),
            ReadLine::Line(l) if l == "exactly10"
        ));
        match read_bounded_line(&mut reader, max, &s).unwrap() {
            ReadLine::TooLong(bytes) => assert_eq!(bytes, "way too long for the limit".len()),
            other => panic!("expected TooLong, got {:?}", discriminant_name(&other)),
        }
        // The oversized line was fully discarded; the stream resumes
        // cleanly at the next line (unterminated final line included).
        assert!(matches!(
            read_bounded_line(&mut reader, max, &s).unwrap(),
            ReadLine::Line(l) if l == "last"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader, max, &s).unwrap(),
            ReadLine::Eof
        ));
    }

    fn discriminant_name(r: &ReadLine) -> &'static str {
        match r {
            ReadLine::Eof => "Eof",
            ReadLine::TooLong(_) => "TooLong",
            ReadLine::Line(_) => "Line",
        }
    }

    #[test]
    fn shutdown_flag_is_sticky_and_shared() {
        let a = flag();
        let b = a.clone();
        assert!(!b.is_requested());
        a.request();
        assert!(b.is_requested());
    }

    #[test]
    fn recover_id_is_best_effort() {
        assert_eq!(
            ServeRequest::recover_id(r#"{"id":"r7","qasm":"x"}"#),
            Some("r7".to_string())
        );
        assert_eq!(ServeRequest::recover_id(r#"{"qasm":"x"}"#), None);
        assert_eq!(ServeRequest::recover_id("not json"), None);
    }
}
