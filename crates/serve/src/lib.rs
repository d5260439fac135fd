//! # qrc-serve
//!
//! A long-lived compilation service on top of the trained RL policies:
//! the paper's deliverable as infrastructure rather than a one-shot
//! script. Load models once, answer many compilation requests fast.
//!
//! Four layers, composed by [`CompilationService`]:
//!
//! * [`ModelRegistry`] — persists
//!   [`TrainedPredictor`](qrc_predictor::TrainedPredictor) checkpoints to
//!   disk, keyed by [`ShardKey`] (`objective × device-class × width
//!   band`); the scheduler routes each request to the most specific
//!   matching shard through a deterministic fallback chain, and the
//!   registry hot-reloads by copy-on-swap (`{"cmd":"reload"}`) without
//!   dropping traffic,
//! * [`ResultCache`] — a sharded LRU keyed by (structural circuit
//!   hash, device pin, serving shard); repeated traffic never re-runs
//!   the policy,
//! * [`scheduler`] — batches requests, deduplicates in-flight
//!   identical jobs, runs each model's misses as one lockstep rollout,
//!   and fans those rollouts across a rayon pool with content-derived
//!   seeds so concurrent results are byte-identical to serial
//!   execution,
//! * [`persist`] — cache persistence & warmup: crash-safe NDJSON
//!   snapshots of the hot cache next to the checkpoints (validated
//!   against checkpoint identity on restore, so a swapped model never
//!   serves a stale persisted answer), a traffic log of served
//!   requests, and warmup that pre-loads/pre-compiles the head of the
//!   distribution before the listener accepts traffic,
//! * [`protocol`] — the newline-delimited JSON wire format,
//! * [`queue`] + [`listener`] — the pipelined front end: a bounded
//!   request queue filled by reader threads (TCP socket or stdin)
//!   while the scheduler drains batches, so I/O overlaps compute;
//!   with request size/width limits, batch-collection timeouts,
//!   back-pressure rejections, live `{"cmd":"stats"}`, and graceful
//!   `{"cmd":"shutdown"}`/SIGTERM/EOF draining,
//! * [`ring`] + [`router`] — horizontal scale-out: the `qrc-lb`
//!   consistent-hash router fronts N socket replicas, routing each
//!   request's `structural_hash` (mixed with its shard tag) onto a
//!   virtual-node hash ring so every replica's cache owns a disjoint
//!   slice of the workload; ejected replicas spill their arcs to ring
//!   successors and rejoin warm,
//! * [`retrain`] — the closed loop: `qrc-retrain` fine-tunes shard
//!   specialists offline on a frequency-weighted curriculum drawn from
//!   the traffic log (with entropy-bonus action-diversity shaping),
//!   and a promotion gate installs only candidates that are no worse
//!   on held-out reward and strictly better on the logged head; the
//!   next `{"cmd":"reload"}` swaps them in with zero stale answers.
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out:
//!
//! ```text
//! → {"id":"r1","qasm":"OPENQASM 2.0;...","objective":"fidelity","device":"ionq_harmony"}
//! ← {"id":"r1","ok":true,"qasm":"...","device":"ionq_harmony","actions":[...],
//!    "reward":0.93,"cache":"miss","micros":1412}
//! ```
//!
//! `objective` is one of `fidelity` / `critical_depth` / `combination`
//! (default `fidelity`); `device` optionally pins the hardware target
//! (the policy still chooses synthesis/layout/routing/optimization).
//!
//! Control lines carry `cmd` instead of `qasm`: `{"cmd":"stats"}`
//! answers with a live metrics snapshot (per-shard routing counters
//! plus the registry's shard keys and checkpoint mtimes),
//! `{"cmd":"reload"}` hot-swaps the shard map from disk,
//! `{"cmd":"snapshot"}` persists the result cache for the next
//! restart's warmup, and `{"cmd":"shutdown"}` drains and stops the
//! server. When the request
//! queue is full the socket front end answers
//! `{"ok":false,"error":"overloaded: …"}` instead of queueing
//! unboundedly.
//!
//! # Example
//!
//! ```no_run
//! use qrc_serve::{CompilationService, ServiceConfig};
//!
//! let service = CompilationService::start(&ServiceConfig {
//!     models_dir: "models".into(),
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let reply = service.handle_line(r#"{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"}"#);
//! assert!(reply.contains("\"ok\""));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cliargs;
pub mod http;
pub mod listener;
pub mod metrics;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod retrain;
pub mod ring;
pub mod router;
pub mod scheduler;
pub mod service;
pub mod shard;
pub mod traffic;

pub use cache::{device_seed_tag, CacheKey, CacheStats, ResultCache};
pub use http::serve_metrics_http;
pub use listener::{
    bind_ephemeral, install_sigterm_bridge, serve_socket, serve_stdin, FrontendConfig, ShutdownFlag,
};
pub use metrics::{
    Kind, Merge, Metric, MetricsSnapshot, ReplicaStats, RouteCounts, RouterStats, Scope,
    ServeMetrics, ShardCounterSnapshot, ShardCounters, Stage, METRICS,
};
pub use persist::{
    head_of_distribution, head_of_distribution_counts, load_snapshot_file, snapshot_path,
    CacheSnapshot, PersistedEntry, SnapshotLoad, SnapshotShardStamp, TrafficLog, SNAPSHOT_FILE,
    SNAPSHOT_VERSION,
};
pub use protocol::{
    CacheStatus, CompiledResult, ControlRequest, InboundLine, ServeRequest, ServeResponse,
    OVERLOADED_ERROR,
};
pub use queue::{BoundedQueue, PushError};
pub use registry::{CheckpointIdentity, ModelRegistry, ReloadReport, RoutedShard};
pub use retrain::{
    build_curriculum, candidate_path, gate_candidate, install_or_quarantine, load_retrain_state,
    rejected_path, run_retrain, serving_shard, shard_slice, split_log, Curriculum, GateDecision,
    RetrainConfig, RetrainReport, ShardOutcome, RETRAIN_STATE_FILE,
};
pub use ring::{mix_key, splitmix64, HashRing};
pub use router::{FleetRouter, RouterConfig};
pub use scheduler::{BatchOptions, BatchReport};
pub use service::{
    CompilationService, QueuedLine, ReplayWarmup, ServiceConfig, SnapshotWarmup, SnapshotWritten,
};
pub use shard::{DeviceClass, RouteLevel, ShardKey, ShardRoute, WidthBand};
pub use traffic::{synthetic_mix, TrafficConfig};
