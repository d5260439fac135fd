//! The fleet router behind `qrc-lb`: consistent-hash request routing
//! over N `qrc-serve --listen` replicas.
//!
//! One [`FleetRouter`] fronts a fleet of NDJSON/TCP replicas. Each
//! compilation request is parsed just far enough to extract a routing
//! key — the circuit's `structural_hash` mixed with its resolved
//! [`ShardKey`] tag via [`crate::ring::mix_key`] — and consistently
//! hashed onto a [`HashRing`] of replicas with virtual nodes, so every
//! replica's LRU cache owns a disjoint slice of the repeated workload
//! and aggregate cache capacity scales linearly with replica count.
//! Lines that cannot yield a key (malformed requests, unparsable QASM)
//! fall back to round-robin and are still forwarded, so the replica
//! produces the byte-identical error payload a single-node deployment
//! would.
//!
//! Per replica the router keeps one persistent data connection with a
//! bounded in-flight window. The window is the router's overload
//! contract: sized at or below the replica's queue capacity it cannot
//! trigger `overloaded` rejections, and because the replica answers
//! scheduled requests in FIFO order per connection, responses are
//! matched to forwarded requests positionally — only an `overloaded`
//! rejection (possible when other clients share the replica) can
//! overtake, and those are matched by echoed `id` and passed through.
//! Control lines are never forwarded on the data connection: `stats` /
//! `metrics` / `snapshot` fan out over dedicated short-lived
//! connections so control replies cannot desynchronize the FIFO.
//!
//! Health: a connect failure, EOF, or I/O error ejects the replica
//! from the ring, and every request still in its window is re-routed
//! to the ring successors of its keys — rerouted, not dropped. A
//! background reconnector re-admits the replica (and exactly its old
//! arcs, see [`HashRing`]) once it answers again. On drain the router
//! can fan `{"cmd":"snapshot"}` out so replicas persist their cache
//! slice and rejoin warm via `--warm-cache`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde_json::Value;

use qrc_obs::PromText;

use crate::listener::{
    accept_connections, read_bounded_line, serve_connection, shutdown_ack, Inbound, ReadLine,
    ReplySink, ShutdownFlag,
};
use crate::metrics::{
    put, write_series, Merge, MetricsSnapshot, ReplicaStats, RouterStats, Scope, METRICS,
    PER_REPLICA,
};
use crate::protocol::{ControlRequest, ServeRequest, ServeResponse, OVERLOADED_ERROR};
use crate::ring::{mix_key, HashRing};
use crate::shard::ShardKey;

/// Tuning of the fleet router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica addresses (`host:port`), the fleet membership.
    pub replicas: Vec<String>,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Most in-flight requests per replica connection. Keep at or
    /// below the replica's `--queue` capacity so the router itself can
    /// never trigger an `overloaded` rejection.
    pub window: usize,
    /// Dial timeout for replica connections (data and control).
    pub connect_timeout: Duration,
    /// Read timeout for control fan-out replies (stats can sit behind
    /// an in-flight batch).
    pub control_timeout: Duration,
    /// How long the reconnector sleeps between re-admission probes of
    /// an ejected replica.
    pub reconnect_wait: Duration,
    /// Reject client lines longer than this many bytes.
    pub max_line_bytes: usize,
    /// Fan `{"cmd":"snapshot"}` out to every live replica when the
    /// router drains, so replicas rejoin warm via `--warm-cache`.
    pub snapshot_on_drain: bool,
    /// Also fan `{"cmd":"shutdown"}` out on drain, taking the fleet
    /// down with the router.
    pub drain_replicas: bool,
    /// Record which replica every routed key landed on (the locality
    /// log the bench harness audits); costs a map insert per request.
    pub record_routes: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: Vec::new(),
            vnodes: 64,
            window: 64,
            connect_timeout: Duration::from_secs(2),
            control_timeout: Duration::from_secs(60),
            reconnect_wait: Duration::from_millis(250),
            max_line_bytes: 1 << 20,
            snapshot_on_drain: false,
            drain_replicas: false,
            record_routes: false,
        }
    }
}

/// One request the router has forwarded and not yet seen answered:
/// the raw line (so an ejection can re-route it), the `id` and routing
/// key its one decode found (see [`decode_route`]), and the client to
/// answer.
struct Ticket {
    line: String,
    id: Option<String>,
    key: Option<u64>,
    reply: ReplySink,
}

/// Most unread replies per router client before the client is severed
/// as a slow consumer.
const CLIENT_REPLY_WINDOW: usize = 1024;

/// The per-replica connection state guarded by one mutex: the write
/// half of the data connection, the FIFO of in-flight tickets, and the
/// stop flag of the current reader generation.
struct ConnState {
    writer: Option<BufWriter<TcpStream>>,
    pending: VecDeque<Ticket>,
    /// Stops the reader of the current connection; replaced on every
    /// reconnect so a stale reader can never eject its successor.
    stop: ShutdownFlag,
    /// Bumped on ejection: an eject call carrying a stale generation
    /// is a no-op, making ejection idempotent across the racing
    /// writer-failure and reader-failure paths.
    generation: u64,
}

/// One replica of the fleet: address, health, connection state, and
/// the counters the merged stats report nests per replica.
struct Replica {
    index: usize,
    addr: String,
    sockaddr: SocketAddr,
    healthy: AtomicBool,
    state: Mutex<ConnState>,
    /// Signals window slots freeing up (a response arrived) and state
    /// transitions (ejection) to blocked forwarders.
    window_open: Condvar,
    /// Guards against concurrent reconnector threads for one replica.
    reconnecting: AtomicBool,
    /// Requests successfully written to this replica.
    routed: AtomicU64,
    /// Responses received and delivered to clients.
    completed: AtomicU64,
    /// Tickets taken back from this replica's window at ejection and
    /// re-routed to ring successors.
    rerouted: AtomicU64,
    /// Times this replica was ejected from the ring.
    ejections: AtomicU64,
}

/// Router-wide counters, read into [`RouterStats`].
#[derive(Default)]
struct RouterCounters {
    /// Requests answered inline because no replica was healthy.
    unroutable: AtomicU64,
    /// Requests forwarded round-robin because no routing key could be
    /// extracted (the replica still answers them, FIFO).
    round_robin: AtomicU64,
    /// `overloaded` rejections passed through from replicas.
    overloaded: AtomicU64,
    /// Malformed control-looking lines the router answered inline
    /// (byte-identical to the replica front end's own reply).
    parse_errors: AtomicU64,
}

/// The consistent-hash fleet router. Construct with [`FleetRouter::new`],
/// connect the fleet with [`FleetRouter::start`], then serve clients
/// with [`FleetRouter::run`].
pub struct FleetRouter {
    config: RouterConfig,
    ring: Mutex<HashRing>,
    replicas: Vec<Arc<Replica>>,
    rr_cursor: AtomicUsize,
    counters: RouterCounters,
    shutdown: ShutdownFlag,
    /// Reader/reconnector threads, joined at the end of [`FleetRouter::run`].
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// key → replicas it was routed to (only with `record_routes`).
    route_log: Mutex<HashMap<u64, Vec<usize>>>,
}

impl FleetRouter {
    /// Builds a router over `config.replicas`. Addresses are resolved
    /// here; an unresolvable address is an error.
    ///
    /// # Errors
    ///
    /// Returns an error when the replica list is empty or an address
    /// does not resolve.
    pub fn new(config: RouterConfig) -> std::io::Result<FleetRouter> {
        if config.replicas.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one --replica",
            ));
        }
        let mut replicas = Vec::with_capacity(config.replicas.len());
        for (index, addr) in config.replicas.iter().enumerate() {
            let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("replica address `{addr}` did not resolve"),
                )
            })?;
            replicas.push(Arc::new(Replica {
                index,
                addr: addr.clone(),
                sockaddr,
                healthy: AtomicBool::new(false),
                state: Mutex::new(ConnState {
                    writer: None,
                    pending: VecDeque::new(),
                    stop: ShutdownFlag::new(),
                    generation: 0,
                }),
                window_open: Condvar::new(),
                reconnecting: AtomicBool::new(false),
                routed: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                rerouted: AtomicU64::new(0),
                ejections: AtomicU64::new(0),
            }));
        }
        let ring = HashRing::new(config.vnodes);
        Ok(FleetRouter {
            config,
            ring: Mutex::new(ring),
            replicas,
            rr_cursor: AtomicUsize::new(0),
            counters: RouterCounters::default(),
            shutdown: ShutdownFlag::new(),
            threads: Mutex::new(Vec::new()),
            route_log: Mutex::new(HashMap::new()),
        })
    }

    /// The router's shutdown flag: request it (SIGTERM bridge, embedding
    /// application) to begin a graceful drain of [`FleetRouter::run`].
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Dials every replica and admits the reachable ones to the ring.
    /// Unreachable replicas start ejected with a reconnector probing
    /// for them; at least one replica must be reachable.
    ///
    /// # Errors
    ///
    /// Returns an error when no replica could be reached.
    pub fn start(self: &Arc<Self>) -> std::io::Result<()> {
        let mut reached = 0usize;
        for replica in &self.replicas {
            match self.connect_replica(replica) {
                Ok(()) => reached += 1,
                Err(e) => {
                    eprintln!(
                        "qrc-lb: replica {} unreachable at startup ({e}); probing in background",
                        replica.addr
                    );
                    self.spawn_reconnector(replica);
                }
            }
        }
        if reached == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "no replica reachable at startup",
            ));
        }
        Ok(())
    }

    /// Serves router clients on `listener` until shutdown is requested
    /// (SIGTERM bridge or a client's `{"cmd":"shutdown"}`), then
    /// drains: in-flight tickets complete or re-route, snapshot /
    /// shutdown fan-out per config, and all threads join.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the listener cannot be
    /// configured. Per-connection errors end that connection only.
    pub fn run(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        // Accept until shutdown; this returns once every client has
        // finished answering what it already forwarded…
        let router = Arc::clone(self);
        accept_connections(listener, &self.shutdown, move |stream, _| {
            router.handle_client(stream);
        })?;
        // …then every window runs dry (responses arrive or ejection
        // re-routes; an empty ring answers the leftovers inline).
        loop {
            let pending: usize = self
                .replicas
                .iter()
                .map(|r| r.state.lock().expect("replica lock poisoned").pending.len())
                .sum();
            if pending == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if self.config.snapshot_on_drain {
            for (addr, result) in self.fan_control(r#"{"cmd":"snapshot"}"#) {
                match result {
                    Ok(_) => eprintln!("qrc-lb: snapshot fanned out to {addr}"),
                    Err(e) => eprintln!("qrc-lb: snapshot fan-out to {addr} failed: {e}"),
                }
            }
        }
        if self.config.drain_replicas {
            for (addr, result) in self.fan_control(r#"{"cmd":"shutdown"}"#) {
                if let Err(e) = result {
                    eprintln!("qrc-lb: shutdown fan-out to {addr} failed: {e}");
                }
            }
        }
        // Stop replica readers and reconnectors, then join them.
        for replica in &self.replicas {
            replica
                .state
                .lock()
                .expect("replica lock poisoned")
                .stop
                .request();
        }
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads lock poisoned"));
        for handle in threads {
            let _ = handle.join();
        }
        Ok(())
    }

    /// The observed locality log: every routing key and the replicas
    /// it landed on (in landing order). Empty unless
    /// [`RouterConfig::record_routes`] is set.
    pub fn route_log(&self) -> Vec<(u64, Vec<usize>)> {
        self.route_log
            .lock()
            .expect("route log poisoned")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Each replica's counters, indexed like the config's replica list.
    pub fn replica_counters(&self) -> Vec<ReplicaStats> {
        self.replicas
            .iter()
            .map(|r| ReplicaStats {
                addr: r.addr.clone(),
                healthy: r.healthy.load(Ordering::SeqCst),
                routed: r.routed.load(Ordering::Relaxed),
                completed: r.completed.load(Ordering::Relaxed),
                rerouted: r.rerouted.load(Ordering::Relaxed),
                ejections: r.ejections.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// `merged` with the router's own counters and its replicas'.
    fn fleet_snapshot(&self, merged: MetricsSnapshot) -> MetricsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let replicas = self.replica_counters();
        let router = RouterStats {
            replicas: replicas.len() as u64,
            healthy: replicas.iter().filter(|r| r.healthy).count() as u64,
            round_robin: load(&self.counters.round_robin),
            unroutable: load(&self.counters.unroutable),
            overloaded: load(&self.counters.overloaded),
            parse_errors: load(&self.counters.parse_errors),
            vnodes: self.config.vnodes as u64,
        };
        MetricsSnapshot {
            router,
            replicas,
            ..merged
        }
    }

    /// Requests the router forwarded round-robin because no routing
    /// key could be extracted.
    pub fn round_robin_count(&self) -> u64 {
        self.counters.round_robin.load(Ordering::Relaxed)
    }

    // ----- client side ------------------------------------------------

    /// One router client: answers control lines from the fleet and
    /// forwards everything else.
    fn handle_client(self: &Arc<Self>, stream: TcpStream) {
        serve_connection(
            stream,
            CLIENT_REPLY_WINDOW,
            self.config.max_line_bytes,
            &self.shutdown,
            |inbound, reply| {
                match inbound {
                    Inbound::Request(line) => {
                        let (id, key) = decode_route(&line);
                        self.forward(Ticket {
                            line,
                            id,
                            key,
                            reply: reply.clone(),
                        });
                    }
                    Inbound::Control(ControlRequest::Stats, _) => {
                        reply.send(serde_json::to_string(&self.merged_stats()));
                    }
                    Inbound::Control(ControlRequest::Metrics, _) => {
                        reply.send(serde_json::to_string(&self.merged_metrics()));
                    }
                    Inbound::Control(ControlRequest::Shutdown, _) => {
                        self.shutdown.request();
                        reply.send(shutdown_ack());
                    }
                    // Snapshot / reload / calibrate apply fleet-wide: fan
                    // the raw line out and nest each replica's own reply.
                    Inbound::Control(_, line) => {
                        reply.send(serde_json::to_string(&self.fanned_reply(&line)));
                    }
                    // The replica front end's own in-place replies, so
                    // single-node and fleet clients see the same errors.
                    Inbound::Oversized(response) => reply.send(response.to_line()),
                    Inbound::Malformed(response) => {
                        self.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                        reply.send(response.to_line());
                    }
                }
                false
            },
        );
    }

    // ----- data path --------------------------------------------------

    /// Forwards one request: consistent-hash on its key, round-robin
    /// without one, retrying across ejections until a replica accepts
    /// it or the ring is empty.
    fn forward(self: &Arc<Self>, mut ticket: Ticket) {
        let key = ticket.key;
        if key.is_none() {
            self.counters.round_robin.fetch_add(1, Ordering::Relaxed);
        }
        loop {
            let target = match key {
                Some(k) => self.ring.lock().expect("ring lock poisoned").route(k),
                None => self.next_round_robin(),
            };
            let Some(index) = target else {
                self.counters.unroutable.fetch_add(1, Ordering::Relaxed);
                let response =
                    ServeResponse::rejected(ticket.id, "unavailable: no healthy replicas");
                ticket.reply.send(response.to_line());
                return;
            };
            match self.try_send(index, ticket) {
                Ok(()) => {
                    if self.config.record_routes {
                        if let Some(k) = key {
                            let mut log = self.route_log.lock().expect("route log poisoned");
                            let owners = log.entry(k).or_default();
                            if owners.last() != Some(&index) {
                                owners.push(index);
                            }
                        }
                    }
                    return;
                }
                // The target was ejected under us; the ring has moved
                // its arcs, so re-route.
                Err(returned) => ticket = returned,
            }
        }
    }

    /// Writes one ticket's line on `index`'s data connection and queues
    /// the ticket in its bounded window. Blocks while the window is full
    /// (lossless back-pressure toward the client). Hands the ticket back
    /// when the replica is (or becomes) unavailable.
    #[allow(clippy::result_large_err)]
    fn try_send(self: &Arc<Self>, index: usize, ticket: Ticket) -> Result<(), Ticket> {
        let replica = &self.replicas[index];
        let mut guard = replica.state.lock().expect("replica lock poisoned");
        loop {
            if guard.writer.is_none() || !replica.healthy.load(Ordering::SeqCst) {
                return Err(ticket);
            }
            if guard.pending.len() < self.config.window.max(1) {
                break;
            }
            let (next, _) = replica
                .window_open
                .wait_timeout(guard, Duration::from_millis(100))
                .expect("replica lock poisoned");
            guard = next;
        }
        let state = &mut *guard;
        let generation = state.generation;
        let writer = state.writer.as_mut().expect("writer checked above");
        match writeln!(writer, "{}", ticket.line).and_then(|()| writer.flush()) {
            Ok(()) => {
                // The lock is held until the ticket is queued, so the
                // reader cannot meet its reply first.
                state.pending.push_back(ticket);
                replica.routed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                // Eject: the ring loses this replica and the caller
                // re-routes.
                drop(guard);
                self.eject(replica, generation);
                Err(ticket)
            }
        }
    }

    /// The next healthy replica after the round-robin cursor, if any.
    fn next_round_robin(&self) -> Option<usize> {
        let n = self.replicas.len();
        let start = self.rr_cursor.fetch_add(1, Ordering::Relaxed);
        (0..n)
            .map(|offset| (start + offset) % n)
            .find(|&index| self.replicas[index].healthy.load(Ordering::SeqCst))
    }

    // ----- replica side -----------------------------------------------

    /// Dials one replica, installs its writer, marks it healthy, joins
    /// it to the ring, and spawns its response reader.
    fn connect_replica(self: &Arc<Self>, replica: &Arc<Replica>) -> std::io::Result<()> {
        let stream = TcpStream::connect_timeout(&replica.sockaddr, self.config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        read_half
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        let stop = ShutdownFlag::new();
        let generation;
        {
            let mut state = replica.state.lock().expect("replica lock poisoned");
            state.writer = Some(BufWriter::new(stream));
            state.stop = stop.clone();
            generation = state.generation;
        }
        replica.healthy.store(true, Ordering::SeqCst);
        self.ring
            .lock()
            .expect("ring lock poisoned")
            .insert(replica.index, &replica.addr);
        let router = Arc::clone(self);
        let replica = Arc::clone(replica);
        let handle = std::thread::spawn(move || {
            router.read_responses(&replica, read_half, &stop, generation);
        });
        self.threads
            .lock()
            .expect("threads lock poisoned")
            .push(handle);
        Ok(())
    }

    /// One replica connection's response reader: matches each response
    /// line to the head of the in-flight FIFO (or by `id` for an
    /// overtaking `overloaded` rejection) and delivers it.
    fn read_responses(
        self: &Arc<Self>,
        replica: &Arc<Replica>,
        read_half: TcpStream,
        stop: &ShutdownFlag,
        generation: u64,
    ) {
        let mut reader = BufReader::new(read_half);
        loop {
            match read_bounded_line(&mut reader, self.config.max_line_bytes, stop) {
                Ok(ReadLine::Line(line)) => {
                    let ticket = {
                        let mut state = replica.state.lock().expect("replica lock poisoned");
                        if line.contains(OVERLOADED_ERROR) {
                            self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                            take_by_id(&mut state.pending, &line)
                        } else {
                            state.pending.pop_front()
                        }
                    };
                    replica.window_open.notify_all();
                    if let Some(ticket) = ticket {
                        replica.completed.fetch_add(1, Ordering::Relaxed);
                        ticket.reply.send(line);
                    }
                }
                Ok(ReadLine::TooLong(_)) => {
                    // A replica response over the line limit is a
                    // protocol violation; treat like a broken stream.
                    self.eject(replica, generation);
                    return;
                }
                Ok(ReadLine::Eof) | Err(_) => {
                    // A requested stop reads as EOF: clean drain. A real
                    // EOF or error is the replica dying mid-stream.
                    if !stop.is_requested() {
                        self.eject(replica, generation);
                    }
                    return;
                }
            }
        }
    }

    /// Ejects a replica: off the ring, connection dropped, and every
    /// ticket still in its window re-routed to the keys' new owners.
    /// Idempotent per connection generation.
    fn eject(self: &Arc<Self>, replica: &Arc<Replica>, generation: u64) {
        let pending = {
            let mut state = replica.state.lock().expect("replica lock poisoned");
            if state.generation != generation {
                return;
            }
            state.generation += 1;
            state.stop.request();
            state.writer = None;
            replica.healthy.store(false, Ordering::SeqCst);
            std::mem::take(&mut state.pending)
        };
        replica.window_open.notify_all();
        self.ring
            .lock()
            .expect("ring lock poisoned")
            .remove(replica.index);
        replica.ejections.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "qrc-lb: replica {} ejected ({} in-flight re-routed)",
            replica.addr,
            pending.len()
        );
        if !self.shutdown.is_requested() {
            self.spawn_reconnector(replica);
        }
        for ticket in pending {
            replica.rerouted.fetch_add(1, Ordering::Relaxed);
            self.forward(ticket);
        }
    }

    /// Probes an ejected replica until it answers again, then re-admits
    /// it (the ring hands back exactly its old arcs). One probe thread
    /// per replica at a time.
    fn spawn_reconnector(self: &Arc<Self>, replica: &Arc<Replica>) {
        if replica
            .reconnecting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let router = Arc::clone(self);
        let replica = Arc::clone(replica);
        let handle = std::thread::spawn(move || {
            while !router.shutdown.is_requested() {
                std::thread::sleep(router.config.reconnect_wait);
                match router.connect_replica(&replica) {
                    Ok(()) => {
                        eprintln!("qrc-lb: replica {} re-admitted", replica.addr);
                        break;
                    }
                    Err(_) => continue,
                }
            }
            replica.reconnecting.store(false, Ordering::SeqCst);
        });
        self.threads
            .lock()
            .expect("threads lock poisoned")
            .push(handle);
    }

    // ----- control fan-out --------------------------------------------

    /// Sends one control line to every replica over a dedicated
    /// short-lived connection (never the data connection, which must
    /// stay FIFO) and collects each reply.
    fn fan_control(&self, line: &str) -> Vec<(String, Result<Value, String>)> {
        self.replicas
            .iter()
            .map(|replica| (replica.addr.clone(), self.control_round_trip(replica, line)))
            .collect()
    }

    /// One control round trip to one replica.
    fn control_round_trip(&self, replica: &Replica, line: &str) -> Result<Value, String> {
        let stream = TcpStream::connect_timeout(&replica.sockaddr, self.config.connect_timeout)
            .map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(self.config.control_timeout))
            .ok();
        let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        writeln!(writer, "{line}").map_err(|e| format!("write: {e}"))?;
        writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?;
        if reply.trim().is_empty() {
            return Err("empty reply".to_string());
        }
        serde_json::from_str(reply.trim()).map_err(|e| format!("parse: {e}"))
    }

    /// Fans a control line out and nests every replica's reply under
    /// its address, with a top-level `ok` that ands the fleet.
    fn fanned_reply(&self, line: &str) -> Value {
        let nested: Vec<(String, Value)> = self
            .fan_control(line)
            .into_iter()
            .map(|(addr, result)| (addr, result.unwrap_or_else(failed)))
            .collect();
        let all_ok = nested
            .iter()
            .all(|(_, reply)| reply.get("ok") == Some(&Value::from(true)));
        Value::object(vec![
            ("ok", Value::from(all_ok)),
            ("replicas", Value::Object(nested)),
        ])
    }

    /// The merged `{"cmd":"stats"}` reply: the replicas' replies
    /// merged row by row through the metric table (counters summed,
    /// start time and uptime by their rows' rules, derived values such
    /// as the hit rate recomputed; no latency quantiles, which cannot
    /// be merged), plus a `fleet` block with the router's own counters
    /// and each replica's, its own stats reply nested under `stats`.
    pub fn merged_stats(&self) -> Value {
        let per = self.fan_control(r#"{"cmd":"stats"}"#);
        let replies: Vec<&Value> = per.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
        let mut value = self
            .fleet_snapshot(MetricsSnapshot::merge_stats(&replies))
            .fleet_value();
        for (addr, result) in per {
            let path = [PER_REPLICA[0], PER_REPLICA[1], &addr, "stats"];
            put(&mut value, &path, result.unwrap_or_else(failed));
        }
        value
    }

    /// The merged `{"cmd":"metrics"}` reply: every replica's Prometheus
    /// exposition fetched and merged series by series, each by its
    /// table row's rule, followed by the router's own series.
    pub fn merged_metrics(&self) -> Value {
        let per = self.fan_control(r#"{"cmd":"metrics"}"#);
        let texts: Vec<Option<&str>> = per
            .iter()
            .map(|(_, result)| result.as_ref().ok()?.get("metrics")?.as_str())
            .collect();
        let oks = per
            .iter()
            .zip(&texts)
            .map(|((addr, _), text)| (addr.clone(), Value::from(text.is_some())))
            .collect();
        let mut own = PromText::new();
        let mut snapshot = self.fleet_snapshot(MetricsSnapshot::default());
        write_series(&mut own, &mut snapshot, Scope::Router);
        write_series(&mut own, &mut snapshot, Scope::Replica);
        let merged = merge_prometheus(texts.iter().flatten().copied()) + &own.finish();
        Value::object(vec![
            ("ok", Value::from(texts.iter().all(Option::is_some))),
            ("format", Value::from("prometheus_text_0_0_4")),
            ("metrics", Value::from(merged)),
            ("replicas", Value::Object(oks)),
        ])
    }
}

/// The reply nested for a replica whose control round trip failed.
fn failed(error: String) -> Value {
    Value::object(vec![
        ("ok", Value::from(false)),
        ("error", Value::from(error)),
    ])
}

/// Decodes a forwarded request line once, for its `id` (the one
/// [`ServeRequest::recover_id`] reads, also from a rejected line) and
/// its consistent-hash routing key: the circuit's `structural_hash`
/// mixed with the resolved shard tag. The key is `None` (→ round-robin)
/// when the request or its QASM does not parse — the replica still
/// answers the line, producing the same error payload a single node
/// would.
fn decode_route(line: &str) -> (Option<String>, Option<u64>) {
    let request = match ServeRequest::decode(line) {
        Ok(request) => request,
        Err((id, _)) => return (id, None),
    };
    let key = qrc_circuit::qasm::from_qasm(&request.qasm)
        .ok()
        .map(|circuit| {
            let width = circuit.num_qubits();
            let tag = ShardKey::for_request(request.objective, request.device_pin, width).tag();
            mix_key(circuit.structural_hash(), tag)
        });
    (request.id, key)
}

/// Removes the pending ticket whose request `id` matches the one
/// echoed on `line` (an overtaking `overloaded` rejection); falls back
/// to the FIFO head when no id matches. Only `line` is decoded: each
/// ticket keeps the id its request was decoded with.
fn take_by_id(pending: &mut VecDeque<Ticket>, line: &str) -> Option<Ticket> {
    if let Some(id) = ServeRequest::recover_id(line) {
        if let Some(at) = pending
            .iter()
            .position(|t| t.id.as_deref() == Some(id.as_str()))
        {
            return pending.remove(at);
        }
    }
    pending.pop_front()
}

/// Merges Prometheus text expositions series-by-series. Samples with
/// the same series key (name plus labels) merge by the rule of their
/// family's row in [`METRICS`]; histogram series, which have no row,
/// add up. Comment lines and series order follow the first exposition;
/// series only later replicas expose are appended.
fn merge_prometheus(texts: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    enum Entry {
        Comment(String),
        Series(String),
    }
    let mut order: Vec<Entry> = Vec::new();
    let mut values: HashMap<String, f64> = HashMap::new();
    for (i, text) in texts.into_iter().enumerate() {
        for line in text.as_ref().lines() {
            if line.is_empty() {
                continue;
            }
            if line.starts_with('#') {
                if i == 0 {
                    order.push(Entry::Comment(line.to_string()));
                }
                continue;
            }
            let Some(split) = line.rfind(' ') else {
                continue;
            };
            let key = &line[..split];
            let value: f64 = line[split + 1..].parse().unwrap_or(0.0);
            match values.get_mut(key) {
                None => {
                    order.push(Entry::Series(key.to_string()));
                    values.insert(key.to_string(), value);
                }
                Some(merged) => {
                    let family = key.split('{').next().unwrap_or(key);
                    let rule = METRICS
                        .iter()
                        .find(|metric| metric.name == family)
                        .map_or(Merge::Sum, |metric| metric.merge);
                    *merged = rule.pick(*merged, value);
                }
            }
        }
    }
    let mut out = String::new();
    for entry in order {
        match entry {
            Entry::Comment(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Entry::Series(key) => {
                let value = values[&key];
                if value.fract() == 0.0 && value.abs() < 9.0e15 {
                    out.push_str(&format!("{key} {}\n", value as i64));
                } else {
                    out.push_str(&format!("{key} {value}\n"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_none_for_unparsable_lines() {
        assert_eq!(decode_route("not json").1, None);
        assert_eq!(decode_route(r#"{"id":"a","qasm":"h q[0];"}"#).1, None);
    }

    #[test]
    fn routing_key_stable_and_tag_sensitive() {
        let circuit = qrc_benchgen::BenchmarkFamily::Ghz.generate(3);
        let qasm = qrc_circuit::qasm::to_qasm(&circuit);
        let line = |objective: &str| {
            serde_json::to_string(&Value::object(vec![
                ("id", Value::from("k")),
                ("qasm", Value::from(qasm.clone())),
                ("objective", Value::from(objective)),
            ]))
        };
        let key = |objective: &str| decode_route(&line(objective)).1.unwrap();
        let depth = key("critical_depth");
        assert_eq!(key("critical_depth"), depth);
        // Same circuit, different objective → different shard tag →
        // different routing key.
        assert_ne!(key("fidelity"), depth);
    }

    #[test]
    fn stored_id_is_the_recovered_id() {
        let qasm = serde_json::to_string(&Value::from(qrc_circuit::qasm::to_qasm(
            &qrc_benchgen::BenchmarkFamily::Ghz.generate(3),
        )));
        let valid = [
            format!(r#"{{"id":"with-id","qasm":{qasm}}}"#),
            format!(r#"{{"qasm":{qasm},"objective":"critical_depth"}}"#),
            format!(r#"{{"id":"first","qasm":{qasm},"id":"second"}}"#),
        ];
        for line in &valid {
            let (id, key) = decode_route(line);
            assert!(key.is_some(), "{line} is a valid request");
            assert_eq!(id, ServeRequest::recover_id(line), "{line}");
        }
        assert_eq!(decode_route(&valid[2]).0.as_deref(), Some("first"));
        // Every rejection class `request_fuzz.rs` checks `decode` on.
        for line in [
            r#"{"id":"no-qasm"}"#,
            r#"{"qasm":5,"id":"mistyped-qasm"}"#,
            r#"{"id":"objective","qasm":"x","objective":"speed"}"#,
            r#"{"id":"device","qasm":"x","device":"nowhere"}"#,
            r#"{"id":"mistyped","qasm":"x","objective":7}"#,
            r#"{"id":7,"qasm":"x"}"#,
            r#"{"id":7}"#,
            r#"{"id":"first","id":8,"qasm":"x","device":"nowhere"}"#,
            r#"{"id":"control","cmd":"reboot"}"#,
            r#"{"cmd":"calibrate","id":"calibrate"}"#,
            "[1]",
            "not json",
        ] {
            assert_eq!(
                decode_route(line),
                (ServeRequest::recover_id(line), None),
                "{line}"
            );
        }
    }

    #[test]
    fn prometheus_merge_sums_series() {
        let a = "# HELP x a counter\n# TYPE x counter\nx_total 3\ny{q=\"0.5\"} 1.5\n".to_string();
        let b = "# HELP x a counter\n# TYPE x counter\nx_total 4\ny{q=\"0.5\"} 2.5\nz_only 1\n"
            .to_string();
        let merged = merge_prometheus(&[a, b]);
        assert!(merged.contains("x_total 7\n"), "{merged}");
        assert!(merged.contains("y{q=\"0.5\"} 4\n"), "{merged}");
        assert!(merged.contains("z_only 1\n"), "{merged}");
        assert_eq!(merged.matches("# HELP x").count(), 1);

        // Process-age gauges do not add up: the fleet started when its
        // first replica did and has been up as long as its oldest one.
        // Queue depth still sums.
        let a = "qrc_uptime_seconds 12.5\nqrc_start_time_seconds 1792278889\nqrc_queue_depth 2\n"
            .to_string();
        let b = "qrc_uptime_seconds 40.25\nqrc_start_time_seconds 1792278861\nqrc_queue_depth 3\n"
            .to_string();
        let merged = merge_prometheus(&[a, b]);
        assert!(merged.contains("qrc_uptime_seconds 40.25\n"), "{merged}");
        assert!(
            merged.contains("qrc_start_time_seconds 1792278861\n"),
            "{merged}"
        );
        assert!(merged.contains("qrc_queue_depth 5\n"), "{merged}");
    }

    #[test]
    fn take_by_id_matches_overtaking_rejections() {
        let (tx, _rx) = std::sync::mpsc::sync_channel(4);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let sink = ReplySink {
            tx,
            stream: Arc::new(stream),
        };
        let mut pending = VecDeque::new();
        for id in ["a", "b", "c"] {
            let line = format!(r#"{{"id":"{id}","qasm":"x"}}"#);
            let (id, key) = decode_route(&line);
            pending.push_back(Ticket {
                line,
                id,
                key,
                reply: sink.clone(),
            });
        }
        let taken = take_by_id(&mut pending, r#"{"id":"b","ok":false}"#).unwrap();
        assert!(taken.line.contains(r#""id":"b""#));
        assert_eq!(pending.len(), 2);
        // No id → FIFO head.
        let taken = take_by_id(&mut pending, r#"{"ok":false}"#).unwrap();
        assert!(taken.line.contains(r#""id":"a""#));
    }
}
