//! The `serve` throughput target: replay a synthetic traffic mix
//! through the compilation service four ways — scheduler in serial
//! mode, blocking batches on the rayon pool, the pipelined socket
//! front end (real TCP on a loopback port, reader thread overlapping
//! I/O with compute), and a *sharded* registry (policies keyed by
//! `objective × device-class × width band`) against the monolithic
//! baseline over a multi-device, width-skewed mix — verify every
//! replay produces the same compilation payloads as its serial
//! counterpart, and measure throughput, cache behavior, per-shard
//! routing, and latency percentiles for `BENCH_serve.json`.
//!
//! A fifth arm measures restart warmup: a never-restarted reference
//! service persists its cache at drain, then a cold restart and a
//! snapshot-warmed restart replay the same skewed mix — payloads must
//! be byte-identical across all three, and the warmed restart's hit
//! rate must beat the cold one's.
//!
//! A sixth arm prices the observability surface: an all-distinct,
//! unpinned, cold-cache mix (every request is a policy-inference miss)
//! replayed through the queued front-end path (stage histograms,
//! request ids, span sampling all live) with the global profiler and
//! 1-in-N trace sampling on vs fully off, best-of-five cold rounds
//! each. Payloads must be byte-identical — instrumentation must never
//! leak into results — and the instrumented round's per-stage
//! histograms must account for (nearly all of) the mean miss latency
//! the responses themselves reported.
//!
//! A seventh arm scales out horizontally: the arm-1 mix streamed
//! through a real `FleetRouter` fronting three in-process socket
//! replicas, each owning a third of the single-node cache capacity so
//! total capacity matches the single-node arms. Payloads must be
//! byte-identical to the serial replay, consistent hashing must keep
//! every routed key on exactly one replica, and the fleet's aggregate
//! cache hit rate must not fall below the single-node pipelined
//! baseline — the whole point of content-hashed routing is that
//! splitting the cache three ways loses no locality.
//!
//! An eighth arm exercises the dynamic device registry: a runtime
//! device spec is registered alongside the built-ins and the arm-1 mix
//! is extended with requests pinned to it. The built-in prefix must be
//! byte-identical to the arm-1 serial payloads (registering extra
//! devices must not perturb anything), and a live calibration swap on
//! the dynamic device mid-run must change exactly the
//! calibration-keyed payloads pinned to it — every other payload stays
//! byte-identical, with zero failed requests. This arm stays last: the
//! calibration swap mutates the process-wide device registry.
//!
//! A ninth arm closes the training loop (it runs just *before* the
//! dynamic-device arm, which must stay last): deliberately weak
//! wildcard checkpoints serve a skewed, traffic-logged mix, the
//! offline retrain flow builds a frequency-weighted curriculum from
//! the logged head and fine-tunes the traffic-bearing shard with the
//! action-diversity entropy bonus, and the promotion gate replays
//! held-out logged traffic candidate-vs-incumbent — only a candidate
//! no worse on held-out reward and strictly better on the logged head
//! installs. The promoted checkpoint then swaps into the live service
//! through the `reload()` path while worker threads keep the request
//! stream flowing: zero failed requests across the swap, candidate
//! rollout entropy at or above the collapse floor, and every
//! post-swap answer byte-identical to a fresh serial service started
//! from the promoted checkpoints.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrc_predictor::task_seed;
use qrc_serve::{
    bind_ephemeral, head_of_distribution_counts, run_retrain, serve_socket, synthetic_mix,
    CacheStatus, CompilationService, DeviceClass, FleetRouter, FrontendConfig, ModelRegistry,
    QueuedLine, ReplicaStats, RetrainConfig, RouteCounts, RouterConfig, ServeRequest,
    ServeResponse, ServiceConfig, ShardCounterSnapshot, ShardKey, ShutdownFlag, Stage,
    TrafficConfig, WidthBand,
};
use serde_json::Value;

use crate::{train_models, EvalSettings};

/// Shape of one serve benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchSettings {
    /// Number of requests in the synthetic mix.
    pub requests: usize,
    /// Requests per scheduled batch.
    pub batch_size: usize,
    /// Preferred listen address for the pipelined socket arm. When the
    /// port is busy the bench retries on an ephemeral port instead of
    /// failing (or silently measuring nothing); the actually bound
    /// port lands in the report.
    pub listen: Option<String>,
}

impl Default for ServeBenchSettings {
    fn default() -> Self {
        ServeBenchSettings {
            requests: 400,
            batch_size: 32,
            listen: None,
        }
    }
}

/// Per-replica outcome of the fleet arm: the router's view (routing
/// counters) joined with the replica's own cache counters.
#[derive(Debug, Clone)]
pub struct FleetReplicaStat {
    /// The replica's loopback address.
    pub addr: String,
    /// Requests the router consistently hashed onto this replica.
    pub routed: u64,
    /// Responses the replica actually returned through the router.
    pub completed: u64,
    /// In-flight requests re-forwarded here after another replica's
    /// ejection (zero in the steady-state bench).
    pub rerouted: u64,
    /// Times the router ejected this replica (zero in the bench).
    pub ejections: u64,
    /// Cache hits this replica's service recorded during the replay.
    pub hits: u64,
    /// Cache misses this replica's service recorded during the replay.
    pub misses: u64,
}

/// Measured results of one serve benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Requests replayed per pass.
    pub requests: usize,
    /// Requests per scheduled batch.
    pub batch_size: usize,
    /// Worker threads available to the batched pass.
    pub threads: usize,
    /// Seconds to train the three monolithic models (once, shared).
    pub train_secs: f64,
    /// Wall-clock of the serial replay (seconds).
    pub serial_secs: f64,
    /// Wall-clock of the blocking batched replay (seconds): batches are
    /// handed to the scheduler synchronously, so I/O (here: request
    /// assembly) and compute never overlap.
    pub batched_secs: f64,
    /// Wall-clock of the pipelined socket replay (seconds): NDJSON over
    /// loopback TCP, a reader thread filling the bounded queue while
    /// the scheduler drains it.
    pub pipelined_secs: f64,
    /// The loopback port the pipelined arm actually bound (the
    /// requested one, or the ephemeral fallback when it was busy).
    pub pipelined_port: u16,
    /// `true` iff serial and blocking-batched replays produced
    /// byte-identical response bodies.
    pub identical: bool,
    /// `true` iff the pipelined socket replay produced the same
    /// compilation payloads as the serial replay (cache statuses are
    /// excluded: they legitimately depend on batch boundaries, which
    /// timing decides on the pipelined path).
    pub pipelined_identical: bool,
    /// Cache hits during the batched replay.
    pub hits: u64,
    /// Cache misses during the batched replay.
    pub misses: u64,
    /// Cache hit rate of the batched replay.
    pub hit_rate: f64,
    /// Error responses during the batched replay.
    pub errors: u64,
    /// Median per-request latency of the batched replay (µs).
    pub p50_us: u64,
    /// 99th-percentile per-request latency of the batched replay (µs).
    pub p99_us: u64,
    /// 99.9th-percentile per-request latency of the batched replay (µs).
    pub p999_us: u64,
    /// Fastest per-request latency of the batched replay (µs).
    pub min_us: u64,
    /// Slowest per-request latency of the batched replay (µs).
    pub max_us: u64,
    /// Seconds to train the extra (non-wildcard) shards on their
    /// scoped benchmark slices.
    pub shard_train_secs: f64,
    /// Requests in the sharded arm's multi-device, width-skewed mix.
    pub sharded_requests: usize,
    /// Wall-clock of the sharded registry's per-request serial replay.
    pub sharded_serial_secs: f64,
    /// Wall-clock of the sharded registry's batched replay.
    pub sharded_secs: f64,
    /// Wall-clock of the monolithic registry's batched replay over the
    /// *same* sharded-arm mix (the apples-to-apples baseline).
    pub monolithic_secs: f64,
    /// `true` iff the sharded batched replay produced the same
    /// compilation payloads as per-request serial compilation on the
    /// same sharded registry.
    pub sharded_identical: bool,
    /// Per-shard routing stats of the sharded batched replay.
    pub shard_stats: Vec<ShardCounterSnapshot>,
    /// Requests per routing fallback level in the sharded replay.
    pub route_counts: RouteCounts,
    /// Requests replayed per restart-warmup pass (the skewed mix).
    pub restart_requests: usize,
    /// Entries the never-restarted service persisted at drain.
    pub snapshot_entries: u64,
    /// Wall-clock of the cold-restart replay (fresh cache, seconds).
    pub cold_restart_secs: f64,
    /// Wall-clock of the warmed-restart replay (snapshot imported
    /// before the first request, seconds).
    pub warmed_restart_secs: f64,
    /// Cache hit rate of the cold restart (in-mix repeats only).
    pub cold_hit_rate: f64,
    /// Cache hits/misses of the cold restart.
    pub cold_hits: u64,
    /// Cache misses of the cold restart.
    pub cold_misses: u64,
    /// Cache hit rate of the warmed restart.
    pub warmed_hit_rate: f64,
    /// Cache hits/misses of the warmed restart.
    pub warmed_hits: u64,
    /// Cache misses of the warmed restart.
    pub warmed_misses: u64,
    /// Of the warmed restart's hits, those served from pre-warmed
    /// (snapshot-imported) entries.
    pub warm_hits: u64,
    /// `true` iff the never-restarted, cold-restarted, and
    /// warmed-restarted replays produced byte-identical compilation
    /// payloads for every request.
    pub restart_identical: bool,
    /// Requests in the observability arm (an all-distinct, unpinned
    /// mix replayed cold through the queued front-end path, so every
    /// request is a miss and stage histograms, request ids, and span
    /// sampling are all exercised).
    pub obs_requests: usize,
    /// Trace sampling rate of the instrumented replay (1-in-N).
    pub obs_trace_sample: u64,
    /// Best-of-five cold wall-clock with the observability surface off
    /// (profiler and tracing disabled; seconds).
    pub obs_disabled_secs: f64,
    /// Best-of-five cold wall-clock with the full observability
    /// surface on (global profiler + 1-in-N span sampling; seconds).
    pub obs_enabled_secs: f64,
    /// `true` iff the instrumented and uninstrumented replays produced
    /// byte-identical compilation payloads.
    pub obs_identical: bool,
    /// Requests the instrumented replay's trace sink sampled.
    pub obs_sampled_requests: u64,
    /// Spans those sampled requests produced.
    pub obs_trace_events: u64,
    /// `true` iff the sink rendered a well-formed Chrome trace: a
    /// non-empty `traceEvents` array of complete (`"ph":"X"`) events.
    pub obs_trace_valid: bool,
    /// Mean reported latency of the instrumented replay's cache misses
    /// (µs) — what the per-stage breakdown must reconstruct.
    pub obs_mean_miss_us: f64,
    /// Mean per-request parse time from the stage histograms (µs).
    pub obs_parse_mean_us: f64,
    /// Mean per-request admission time from the stage histograms (µs).
    pub obs_admission_mean_us: f64,
    /// Mean per-miss compute time from the stage histograms (µs).
    pub obs_compute_mean_us: f64,
    /// Profiler-attributed time (rollout ticks + named compute
    /// sections) per miss (µs) — the drill-down under `compute`.
    pub obs_profile_mean_us: f64,
    /// Socket replicas behind the fleet arm's router.
    pub fleet_replicas: usize,
    /// Requests streamed through the router (the arm-1 mix).
    pub fleet_requests: usize,
    /// Wall-clock of the routed fleet replay (seconds).
    pub fleet_secs: f64,
    /// `true` iff every fleet response's compilation payload was
    /// byte-identical to the serial replay's answer for the same
    /// request id.
    pub fleet_identical: bool,
    /// Cache hits summed across all replicas.
    pub fleet_hits: u64,
    /// Cache misses summed across all replicas.
    pub fleet_misses: u64,
    /// Aggregate effective hit rate: the fraction of requests the
    /// fleet answered *without* a fresh policy inference
    /// (`1 − misses/requests`, so cache hits and in-batch coalescing
    /// both count — which of the two a repeat becomes depends only on
    /// batch-boundary timing, not on cache locality).
    pub fleet_hit_rate: f64,
    /// The single-node pipelined arm's effective hit rate over the
    /// same mix and the same total cache capacity — the locality
    /// baseline the fleet must not fall below. A key that bounced
    /// between replicas would miss (and infer) more than once and
    /// drag the fleet below this line.
    pub fleet_single_hit_rate: f64,
    /// `true` iff every routed key landed on exactly one replica for
    /// the whole replay (consistent hashing held; nothing bounced).
    pub fleet_locality_ok: bool,
    /// Error responses across the fleet replay (router-synthesized or
    /// replica-returned; must be 0).
    pub fleet_errors: u64,
    /// In-flight requests re-forwarded after an ejection (0 here: no
    /// replica dies in the bench; the kill path is CI's job).
    pub fleet_rerouted: u64,
    /// Requests that fell back to round-robin because no routing key
    /// could be extracted (0: the synthetic mix is all well-formed).
    pub fleet_round_robin: u64,
    /// Per-replica routing and cache counters.
    pub fleet_stats: Vec<FleetReplicaStat>,
    /// Logged requests the closed-loop arm served (and retrained from).
    pub retrain_requests: usize,
    /// Shards the retrain flow considered (registry keys, or the
    /// configured restriction).
    pub retrain_shards_considered: usize,
    /// Shards skipped for thin traffic (below the request floor).
    pub retrain_skipped: usize,
    /// Candidate checkpoints fine-tuned and gated.
    pub retrain_candidates: usize,
    /// Candidates the gate promoted into the live directory (the arm
    /// requires exactly 1 — the traffic-bearing wildcard shard).
    pub retrain_promoted: usize,
    /// Candidates the gate quarantined (must be 0 here: weak
    /// incumbents leave real headroom).
    pub retrain_rejected: usize,
    /// Incumbent's frequency-weighted mean reward on the logged head.
    pub retrain_incumbent_head_reward: f64,
    /// Promoted candidate's reward on the same head — the gate
    /// requires this strictly above the incumbent's.
    pub retrain_candidate_head_reward: f64,
    /// Incumbent's weighted mean reward on the held-out log slice.
    pub retrain_incumbent_holdout_reward: f64,
    /// Candidate's held-out reward — the gate requires no regression.
    pub retrain_candidate_holdout_reward: f64,
    /// Minimum rollout entropy (nats) a candidate may promote with.
    pub retrain_entropy_floor: f64,
    /// Promoted candidate's rollout entropy over the curriculum —
    /// reported so action-diversity is auditable, must be ≥ the floor.
    pub retrain_candidate_entropy: f64,
    /// Wall-clock of the offline retrain (curriculum + fine-tune +
    /// gate replay), seconds.
    pub retrain_secs: f64,
    /// Requests the load workers served across the live swap (> 0, or
    /// the swap was not exercised under load).
    pub retrain_swap_served: u64,
    /// Failed requests across the live swap (must be 0).
    pub retrain_swap_failed: u64,
    /// `true` iff every post-swap answer was byte-identical to a fresh
    /// *serial* service started from the promoted checkpoints — the
    /// generation-stamped cache keys left nothing stale behind.
    pub retrain_identical: bool,
    /// Mean served reward over the distinct logged circuits before the
    /// swap (the weak incumbents' answers).
    pub retrain_before_mean_reward: f64,
    /// Mean served reward over the same circuits after the swap.
    pub retrain_after_mean_reward: f64,
    /// Requests in the dynamic-device arm's mix (the arm-1 mix plus
    /// requests pinned to the runtime-registered device).
    pub dyn_requests: usize,
    /// Name of the runtime-registered device the arm pins.
    pub dyn_device: String,
    /// Structural seed tag of the dynamic device (built-ins own 1–5;
    /// dynamic devices must land strictly above).
    pub dyn_seed_tag: u64,
    /// Wall-clock of the pre-calibration replay (seconds).
    pub dyn_before_secs: f64,
    /// Wall-clock of the post-calibration replay (seconds).
    pub dyn_after_secs: f64,
    /// `true` iff the built-in prefix of the mix produced payloads
    /// byte-identical to the arm-1 serial replay — registering dynamic
    /// devices must not perturb built-in answers.
    pub dyn_builtin_parity: bool,
    /// Calibration generation the live swap produced (0 means
    /// never-swapped, so this is ≥ 1).
    pub dyn_calibration_generation: u64,
    /// Cached entries the live swap invalidated (the dynamic device's
    /// calibration-keyed results, and nothing else).
    pub dyn_invalidated: u64,
    /// Dynamic-pinned, calibration-dependent payloads (calibration-
    /// keyed objective AND a nonzero-reward compile) whose bytes
    /// changed after the swap.
    pub dyn_changed: usize,
    /// Dynamic-pinned, calibration-dependent payloads in the mix —
    /// every one of them must change. (Zero-reward rollouts render the
    /// same body under any calibration and are excluded.)
    pub dyn_expected_changed: usize,
    /// `true` iff every payload outside that set was byte-identical
    /// across the swap.
    pub dyn_others_identical: bool,
    /// Error responses across both dynamic-arm replays (must be 0: a
    /// calibration swap never fails a request).
    pub dyn_errors: u64,
}

impl ServeBenchReport {
    /// Requests per second of the batched pass.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.batched_secs.max(1e-12)
    }

    /// Requests per second of the serial pass.
    pub fn requests_per_sec_serial(&self) -> f64 {
        self.requests as f64 / self.serial_secs.max(1e-12)
    }

    /// Requests per second of the pipelined socket pass.
    pub fn requests_per_sec_pipelined(&self) -> f64 {
        self.requests as f64 / self.pipelined_secs.max(1e-12)
    }

    /// Serial wall-clock divided by batched wall-clock.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.batched_secs.max(1e-12)
    }

    /// Blocking-batched wall-clock divided by pipelined wall-clock:
    /// the I/O/compute overlap win of the socket front end.
    pub fn pipelined_speedup(&self) -> f64 {
        self.batched_secs / self.pipelined_secs.max(1e-12)
    }

    /// Requests per second of the sharded batched pass.
    pub fn requests_per_sec_sharded(&self) -> f64 {
        self.sharded_requests as f64 / self.sharded_secs.max(1e-12)
    }

    /// Monolithic wall-clock divided by sharded wall-clock over the
    /// same mix: > 1 means the sharded fleet answered faster.
    pub fn sharded_vs_monolithic(&self) -> f64 {
        self.monolithic_secs / self.sharded_secs.max(1e-12)
    }

    /// Cold-restart wall-clock divided by warmed-restart wall-clock:
    /// what pre-warming the cache from a snapshot bought.
    pub fn warmed_vs_cold(&self) -> f64 {
        self.cold_restart_secs / self.warmed_restart_secs.max(1e-12)
    }

    /// Instrumented wall-clock over uninstrumented, minus one: the
    /// throughput cost of leaving the full observability surface on.
    /// Negative values are measurement noise (the surface is cheaper
    /// than run-to-run variance).
    pub fn obs_overhead_frac(&self) -> f64 {
        self.obs_enabled_secs / self.obs_disabled_secs.max(1e-12) - 1.0
    }

    /// Fraction of the mean reported miss latency the per-stage
    /// histograms account for (parse + admission + compute; queue wait
    /// is zero on this path).
    pub fn obs_breakdown_frac(&self) -> f64 {
        (self.obs_parse_mean_us + self.obs_admission_mean_us + self.obs_compute_mean_us)
            / self.obs_mean_miss_us.max(1e-12)
    }

    /// Requests per second of the routed fleet replay.
    pub fn requests_per_sec_fleet(&self) -> f64 {
        self.fleet_requests as f64 / self.fleet_secs.max(1e-12)
    }

    /// Serial wall-clock divided by fleet wall-clock: what three
    /// routed replicas bought over one serial node on the same mix.
    pub fn fleet_vs_serial(&self) -> f64 {
        self.serial_secs / self.fleet_secs.max(1e-12)
    }

    /// `true` iff the live calibration swap changed every
    /// calibration-dependent payload pinned to the dynamic device (and
    /// the set was non-empty to begin with).
    pub fn dyn_recalibration_ok(&self) -> bool {
        self.dyn_expected_changed > 0 && self.dyn_changed == self.dyn_expected_changed
    }

    /// Reward the promoted candidate gained over the incumbent on the
    /// logged head — the quantity the promotion gate requires to be
    /// strictly positive.
    pub fn retrain_head_improvement(&self) -> f64 {
        self.retrain_candidate_head_reward - self.retrain_incumbent_head_reward
    }

    /// `true` iff the closed loop did what it promises: a promotion
    /// happened, nothing was quarantined, the head strictly improved,
    /// held-out reward did not regress, the candidate kept action
    /// diversity, the live swap failed zero requests while actually
    /// carrying load, and post-swap answers were byte-identical to
    /// fresh serial compilation under the new checkpoint.
    pub fn retrain_loop_ok(&self) -> bool {
        self.retrain_promoted == 1
            && self.retrain_rejected == 0
            && self.retrain_head_improvement() > 0.0
            && self.retrain_candidate_holdout_reward >= self.retrain_incumbent_holdout_reward
            && self.retrain_candidate_entropy >= self.retrain_entropy_floor
            && self.retrain_swap_failed == 0
            && self.retrain_swap_served > 0
            && self.retrain_identical
    }
}

/// The extra shards the sharded arm trains on scoped suite slices: a
/// narrow-band specialist per objective, plus one device-class
/// specialist to exercise device routing.
pub fn bench_shard_keys() -> Vec<ShardKey> {
    let mut keys: Vec<ShardKey> = qrc_predictor::RewardKind::ALL
        .into_iter()
        .map(|objective| ShardKey {
            objective,
            device_class: DeviceClass::Any,
            width_band: WidthBand::Narrow,
        })
        .collect();
    keys.push(ShardKey {
        objective: qrc_predictor::RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Class(qrc_device::Platform::Ionq),
        width_band: WidthBand::Any,
    });
    keys
}

/// Trains the models, replays the mix serially, batched, and through
/// the pipelined socket, then runs the sharded-vs-monolithic arm over
/// a multi-device, width-skewed mix, and compares the response
/// streams.
pub fn run_serve_bench(settings: &EvalSettings, serve: &ServeBenchSettings) -> ServeBenchReport {
    let suite = qrc_benchgen::paper_suite(2, settings.max_qubits);
    let train_start = Instant::now();
    let models = train_models(&suite, settings);
    let train_secs = train_start.elapsed().as_secs_f64();

    let traffic = synthetic_mix(&TrafficConfig {
        requests: serve.requests,
        min_qubits: 2,
        max_qubits: settings.max_qubits,
        seed: settings.seed,
        ..TrafficConfig::default()
    });
    let service_config = |parallel: bool| ServiceConfig {
        parallel,
        seed: settings.seed,
        verbose: false,
        ..ServiceConfig::default()
    };
    let replay = |registry: ModelRegistry,
                  parallel: bool,
                  traffic: &[ServeRequest],
                  chunk: usize|
     -> (Vec<ServeResponse>, f64, CompilationService) {
        let service = CompilationService::with_registry(registry, &service_config(parallel));
        let start = Instant::now();
        let mut responses = Vec::with_capacity(traffic.len());
        for chunk in traffic.chunks(chunk.max(1)) {
            responses.extend(service.handle_batch(chunk));
        }
        (responses, start.elapsed().as_secs_f64(), service)
    };

    let (serial_responses, serial_secs, _) = replay(
        ModelRegistry::from_models(models.clone()),
        false,
        &traffic,
        serve.batch_size,
    );
    let (batched_responses, batched_secs, batched_service) = replay(
        ModelRegistry::from_models(models.clone()),
        true,
        &traffic,
        serve.batch_size,
    );
    let service = Arc::new(CompilationService::with_registry(
        ModelRegistry::from_models(models.clone()),
        &service_config(true),
    ));
    let (pipelined_payloads, pipelined_secs, pipelined_port) = replay_pipelined(
        &service,
        &traffic,
        serve.batch_size,
        serve.listen.as_deref(),
    );

    let identical = serial_responses.len() == batched_responses.len()
        && serial_responses
            .iter()
            .zip(batched_responses.iter())
            .all(|(a, b)| a.body_value() == b.body_value());
    // The pipelined path cuts the stream into batches by arrival
    // timing, so cache statuses differ run to run; the compilation
    // payloads must not.
    let pipelined_identical = serial_responses.len() == pipelined_payloads.len()
        && serial_responses
            .iter()
            .zip(pipelined_payloads.iter())
            .all(|(a, b)| a.payload_value() == *b);

    // --- The sharded arm -------------------------------------------------
    // A multi-device, width-skewed mix: device pins are common and
    // narrow circuits dominate, so the specialized shards see the
    // slice they were trained for.
    let sharded_traffic = synthetic_mix(&TrafficConfig {
        requests: serve.requests,
        min_qubits: 2,
        max_qubits: settings.max_qubits,
        seed: settings.seed,
        pin_fraction: 0.4,
        narrow_fraction: 0.5,
        ..TrafficConfig::default()
    });
    let shard_train_start = Instant::now();
    let extra_shards = train_bench_shards(&suite, settings);
    let shard_train_secs = shard_train_start.elapsed().as_secs_f64();
    let sharded_registry = || {
        let mut shards: Vec<(ShardKey, qrc_predictor::TrainedPredictor)> = models
            .iter()
            .map(|m| (ShardKey::wildcard(m.reward()), m.clone()))
            .collect();
        shards.extend(extra_shards.clone());
        ModelRegistry::from_shards(shards)
    };
    // Per-request serial compilation on the sharded registry is the
    // routing-correctness baseline: chunk size 1, serial scheduler.
    let (sharded_serial, sharded_serial_secs, _) =
        replay(sharded_registry(), false, &sharded_traffic, 1);
    let (sharded_batched, sharded_secs, sharded_service) =
        replay(sharded_registry(), true, &sharded_traffic, serve.batch_size);
    // The monolithic baseline answers the same mix with wildcard-only
    // routing.
    let (_, monolithic_secs, _) = replay(
        ModelRegistry::from_models(models.clone()),
        true,
        &sharded_traffic,
        serve.batch_size,
    );
    // Chunk sizes differ between the two sharded replays, so cache
    // statuses legitimately differ (dup-in-batch coalesces vs hits);
    // the compilation payloads — including the shard echo — must not.
    let sharded_identical = sharded_serial.len() == sharded_batched.len()
        && sharded_serial
            .iter()
            .zip(sharded_batched.iter())
            .all(|(a, b)| a.payload_value() == b.payload_value());
    let sharded_metrics = sharded_service.metrics();

    // --- The restart-warmup arm ------------------------------------------
    // Three disk-backed services over the same skewed mix: a
    // never-restarted reference (whose drain persists the cache), a
    // cold restart (same checkpoints, empty cache), and a warmed
    // restart (snapshot imported before the first request). The warmed
    // server must answer byte-identically at a strictly higher hit
    // rate — the whole point of cache persistence.
    let restart_dir =
        std::env::temp_dir().join(format!("qrc_serve_bench_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&restart_dir).ok();
    std::fs::create_dir_all(&restart_dir).expect("create restart-arm models dir");
    for model in &models {
        model
            .save(&ModelRegistry::model_path(
                &restart_dir,
                ShardKey::wildcard(model.reward()),
            ))
            .expect("save restart-arm checkpoint");
    }
    let disk_config = ServiceConfig {
        models_dir: restart_dir.clone(),
        seed: settings.seed,
        verbose: false,
        ..ServiceConfig::default()
    };
    let replay_disk = |service: &CompilationService| -> (Vec<Value>, f64) {
        let start = Instant::now();
        let mut payloads = Vec::with_capacity(traffic.len());
        for chunk in traffic.chunks(serve.batch_size.max(1)) {
            payloads.extend(
                service
                    .handle_batch(chunk)
                    .iter()
                    .map(ServeResponse::payload_value),
            );
        }
        (payloads, start.elapsed().as_secs_f64())
    };

    let never_restarted =
        CompilationService::start(&disk_config).expect("start never-restarted service");
    let (reference_payloads, _) = replay_disk(&never_restarted);
    let snapshot = never_restarted
        .write_snapshot()
        .expect("snapshot the primed cache");
    drop(never_restarted);

    let cold = CompilationService::start(&disk_config).expect("start cold-restart service");
    let (cold_payloads, cold_restart_secs) = replay_disk(&cold);
    let cold_cache = cold.metrics().cache;

    let warmed = CompilationService::start(&disk_config).expect("start warmed-restart service");
    warmed.load_snapshot().expect("import the cache snapshot");
    warmed.finish_warmup();
    let (warmed_payloads, warmed_restart_secs) = replay_disk(&warmed);
    let warmed_cache = warmed.metrics().cache;
    std::fs::remove_dir_all(&restart_dir).ok();

    let restart_identical = reference_payloads == cold_payloads
        && reference_payloads == warmed_payloads
        && reference_payloads.len() == traffic.len();

    // --- The observability arm -------------------------------------------
    // Every request distinct and unpinned, replayed against a cold
    // cache: no hits, no coalescing, so every request is a miss.
    let miss_suite = qrc_benchgen::paper_suite(2, settings.max_qubits.min(3));
    let miss_traffic: Vec<ServeRequest> = miss_suite
        .iter()
        .enumerate()
        .flat_map(|(index, qc)| {
            let text = qrc_circuit::qasm::to_qasm(qc);
            qrc_predictor::RewardKind::ALL
                .into_iter()
                .map(move |objective| ServeRequest {
                    id: Some(format!("miss-{index}-{}", objective.name())),
                    qasm: text.clone(),
                    objective,
                    device_pin: None,
                })
        })
        .collect();
    // The mix runs through the queued front-end path (`handle_queued`)
    // so every surface the serving stack instruments is live: stage
    // histograms, request ids, span synthesis. The full observability
    // surface on (global profiler + 1-in-N trace sampling) vs off,
    // best-of-five cold rounds each — must produce byte-identical
    // payloads, and the instrumented rounds' stage histograms must
    // reconstruct the miss latency the responses themselves reported.
    const OBS_TRACE_SAMPLE: u64 = 4;
    let obs_lines: Vec<String> = miss_traffic.iter().map(ServeRequest::to_line).collect();
    let obs_round =
        |instrumented: bool| -> (Vec<Value>, f64, Vec<ServeResponse>, CompilationService) {
            qrc_obs::profile::reset();
            qrc_obs::profile::set_enabled(instrumented);
            let service = CompilationService::with_registry(
                ModelRegistry::from_models(models.clone()),
                &ServiceConfig {
                    // Serial scheduling: the two rounds must differ
                    // only in instrumentation.
                    parallel: false,
                    seed: settings.seed,
                    verbose: false,
                    ..ServiceConfig::default()
                },
            );
            if instrumented {
                service.enable_tracing(OBS_TRACE_SAMPLE);
            }
            let queued: Vec<QueuedLine> = obs_lines
                .iter()
                .map(|line| QueuedLine {
                    line: line.clone(),
                    queue_us: 0,
                })
                .collect();
            let start = Instant::now();
            let mut responses = Vec::with_capacity(queued.len());
            for chunk in queued.chunks(serve.batch_size.max(1)) {
                responses.extend(service.handle_queued(chunk));
            }
            let secs = start.elapsed().as_secs_f64();
            let payloads = responses.iter().map(ServeResponse::payload_value).collect();
            (payloads, secs, responses, service)
        };
    // Five off/on round *pairs*: the overhead gate compares two
    // near-identical wall-clocks, so the arms are interleaved (any
    // ambient load drift hits both equally) and the minimum gets
    // enough draws to shake scheduler noise out.
    let mut obs_disabled_secs = f64::INFINITY;
    let mut obs_enabled_secs = f64::INFINITY;
    let mut obs_off_payloads = Vec::new();
    let mut obs_kept = None;
    for _ in 0..5 {
        let (payloads, secs, _, _) = obs_round(false);
        obs_disabled_secs = obs_disabled_secs.min(secs);
        obs_off_payloads = payloads;
        let (payloads, secs, responses, service) = obs_round(true);
        obs_enabled_secs = obs_enabled_secs.min(secs);
        obs_kept = Some((payloads, responses, service));
    }
    let (obs_on_payloads, obs_responses, obs_service) =
        obs_kept.expect("at least one observability round pair");
    // Snapshot the global profiler before anything else perturbs it; it
    // reflects the instrumented arm's final round, as do the service's
    // stage histograms and responses below (each round resets it).
    let obs_profile = qrc_obs::profile::snapshot();
    qrc_obs::profile::set_enabled(false);
    qrc_obs::profile::reset();

    let obs_identical =
        obs_off_payloads == obs_on_payloads && obs_on_payloads.len() == miss_traffic.len();
    let obs_miss_micros: Vec<u64> = obs_responses
        .iter()
        .filter(|r| matches!(r.result, Ok((_, CacheStatus::Miss))))
        .map(|r| r.micros)
        .collect();
    let obs_mean_miss_us = if obs_miss_micros.is_empty() {
        0.0
    } else {
        obs_miss_micros.iter().sum::<u64>() as f64 / obs_miss_micros.len() as f64
    };
    let stage_mean = |stage: Stage| -> f64 {
        let h = obs_service.stage_histogram(stage);
        if h.count() == 0 {
            0.0
        } else {
            h.sum() as f64 / h.count() as f64
        }
    };
    let obs_profile_mean_us = if obs_miss_micros.is_empty() {
        0.0
    } else {
        obs_profile.total_us() as f64 / obs_miss_micros.len() as f64
    };
    let obs_sink = obs_service.trace_sink();
    let obs_trace = obs_sink.to_chrome_value();
    let obs_trace_events = match &obs_trace {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(key, _)| key == "traceEvents")
            .map(|(_, events)| events),
        _ => None,
    };
    let (obs_trace_events, obs_trace_valid) = match obs_trace_events {
        Some(Value::Array(events)) => (
            events.len() as u64,
            !events.is_empty()
                && events.iter().all(|event| {
                    matches!(event, Value::Object(pairs)
                        if pairs.iter().any(|(key, value)| key == "ph" && value == &Value::from("X")))
                }),
        ),
        _ => (0, false),
    };

    // --- The fleet arm ----------------------------------------------------
    // The arm-1 mix streamed through a real consistent-hash router
    // over three in-process socket replicas. Total cache capacity
    // matches the single-node arms (each replica owns a third), so
    // any hit-rate loss would be a routing-locality failure, not a
    // memory handicap. The single-node pipelined service's hit rate
    // over the same streamed mix is the baseline.
    const FLEET_REPLICAS: usize = 3;
    // Effective hit rate — requests answered without a fresh policy
    // inference. Raw hit counters are timing-dependent (a repeat that
    // lands in the same batch as its first occurrence coalesces
    // instead of hitting), but every *miss* is an inference, so
    // 1 − misses/requests is the batch-boundary-invariant locality
    // measure.
    let effective_hit_rate = |misses: u64| 1.0 - misses as f64 / (traffic.len() as f64).max(1.0);
    let fleet_single_hit_rate = effective_hit_rate(service.metrics().cache.misses);
    let fleet = replay_fleet(
        &models,
        &traffic,
        &serial_responses,
        serve.batch_size,
        settings.seed,
        FLEET_REPLICAS,
    );

    // --- The closed-loop retrain arm --------------------------------------
    // Deliberately weak wildcard checkpoints (a 300-timestep budget,
    // far too small to learn even this toy suite) serve a skewed,
    // traffic-logged mix; the offline retrain flow fine-tunes the
    // traffic-bearing shard on the logged head with the entropy
    // bonus, the gate replays held-out traffic, and `reload()` swaps
    // the promoted checkpoint in while three workers keep requests
    // flowing. Weak incumbents are the point: promotion must
    // deterministically fire, so the arm measures the whole loop, not
    // a coin flip on whether fine-tuning happened to help.
    const RETRAIN_WEAK_TIMESTEPS: usize = 300;
    let retrain_dir =
        std::env::temp_dir().join(format!("qrc_serve_bench_retrain_{}", std::process::id()));
    std::fs::remove_dir_all(&retrain_dir).ok();
    std::fs::create_dir_all(&retrain_dir).expect("create retrain-arm models dir");
    let weak_suite = vec![
        qrc_benchgen::BenchmarkFamily::Ghz.generate(3),
        qrc_benchgen::BenchmarkFamily::Dj.generate(3),
    ];
    let weak_settings = EvalSettings {
        timesteps: RETRAIN_WEAK_TIMESTEPS,
        verbose: false,
        ..settings.clone()
    };
    for model in &train_models(&weak_suite, &weak_settings) {
        model
            .save(&ModelRegistry::model_path(
                &retrain_dir,
                ShardKey::wildcard(model.reward()),
            ))
            .expect("save retrain-arm weak checkpoint");
    }
    let retrain_log = retrain_dir.join("traffic.ndjson");
    let retrain_service = Arc::new(
        CompilationService::start(&ServiceConfig {
            models_dir: retrain_dir.clone(),
            seed: settings.seed,
            verbose: false,
            ..ServiceConfig::default()
        })
        .expect("start retrain-arm service"),
    );
    retrain_service
        .set_traffic_log(&retrain_log)
        .expect("attach retrain-arm traffic log");
    // The skewed mix the loop learns from: one hot circuit dominating,
    // a warm and a cool one behind it, and a one-off tail —
    // interleaved so the frequency ranking is real work.
    let retrain_request = |family: qrc_benchgen::BenchmarkFamily, qubits: u32, id: String| {
        let mut request = ServeRequest::new(qrc_circuit::qasm::to_qasm(&family.generate(qubits)));
        request.id = Some(id);
        request
    };
    let mut retrain_traffic = Vec::new();
    for i in 0..12 {
        retrain_traffic.push(retrain_request(
            qrc_benchgen::BenchmarkFamily::Ghz,
            3,
            format!("hot-{i}"),
        ));
        if i < 6 {
            retrain_traffic.push(retrain_request(
                qrc_benchgen::BenchmarkFamily::Dj,
                3,
                format!("warm-{i}"),
            ));
        }
        if i < 3 {
            retrain_traffic.push(retrain_request(
                qrc_benchgen::BenchmarkFamily::Ghz,
                2,
                format!("cool-{i}"),
            ));
        }
    }
    retrain_traffic.push(retrain_request(
        qrc_benchgen::BenchmarkFamily::Ghz,
        4,
        "tail-0".into(),
    ));
    for chunk in retrain_traffic.chunks(serve.batch_size.max(1)) {
        for response in retrain_service.handle_batch(chunk) {
            assert!(
                response.result.is_ok(),
                "retrain-arm serve failed: {:?}",
                response.result
            );
        }
    }
    let retrain_uniques: Vec<ServeRequest> =
        head_of_distribution_counts(&retrain_traffic, usize::MAX)
            .into_iter()
            .map(|(request, _)| request)
            .collect();
    let retrain_payload = |service: &CompilationService, request: &ServeRequest| -> Value {
        service.handle_batch(std::slice::from_ref(request))[0].payload_value()
    };
    let mean_reward = |payloads: &[Value]| -> f64 {
        payloads
            .iter()
            .map(|p| p.get("reward").and_then(Value::as_f64).unwrap_or(0.0))
            .sum::<f64>()
            / (payloads.len() as f64).max(1.0)
    };
    let retrain_before: Vec<Value> = retrain_uniques
        .iter()
        .map(|r| retrain_payload(&retrain_service, r))
        .collect();
    let retrain_before_mean_reward = mean_reward(&retrain_before);

    let retrain_start = Instant::now();
    let retrain_outcome = run_retrain(&RetrainConfig {
        models_dir: retrain_dir.clone(),
        log_path: retrain_log.clone(),
        timesteps: 1500,
        curriculum_cap: 8,
        max_repeats: 6,
        min_requests: 4,
        seed: settings.seed,
        verbose: false,
        ..RetrainConfig::default()
    })
    .expect("offline retrain over the logged traffic");
    let retrain_secs = retrain_start.elapsed().as_secs_f64();
    let promoted_gate = retrain_outcome
        .outcomes
        .iter()
        .find(|o| o.gate.promoted)
        .map(|o| o.gate.clone())
        .unwrap_or_else(|| panic!("retrain arm promotes a candidate: {:?}", retrain_outcome));

    // Swap the promoted checkpoint in through the live reload path
    // under 3-thread load; a served counter brackets the reload so the
    // swap provably happens while traffic flows.
    let retrain_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let retrain_served = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let retrain_workers: Vec<_> = (0..3)
        .map(|w| {
            let service = Arc::clone(&retrain_service);
            let stop = Arc::clone(&retrain_stop);
            let served = Arc::clone(&retrain_served);
            let mix = retrain_traffic.clone();
            std::thread::spawn(move || -> (u64, u64) {
                use std::sync::atomic::Ordering;
                let (mut ok, mut failed, mut i) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::SeqCst) {
                    let mut request = mix[(i as usize) % mix.len()].clone();
                    request.id = Some(format!("swap-w{w}-{i}"));
                    match service.handle_batch(std::slice::from_ref(&request))[0].result {
                        Ok(_) => ok += 1,
                        Err(_) => failed += 1,
                    }
                    served.fetch_add(1, Ordering::SeqCst);
                    i += 1;
                }
                (ok, failed)
            })
        })
        .collect();
    {
        use std::sync::atomic::Ordering;
        while retrain_served.load(Ordering::SeqCst) < 6 {
            std::thread::yield_now();
        }
        let reload = retrain_service
            .reload()
            .expect("reload promoted checkpoint");
        assert!(
            !reload.loaded.is_empty(),
            "the promoted checkpoint is picked up: {reload:?}"
        );
        let at_swap = retrain_served.load(Ordering::SeqCst);
        while retrain_served.load(Ordering::SeqCst) < at_swap + 6 {
            std::thread::yield_now();
        }
        retrain_stop.store(true, Ordering::SeqCst);
    }
    let (mut retrain_swap_served, mut retrain_swap_failed) = (0u64, 0u64);
    for worker in retrain_workers {
        let (ok, failed) = worker.join().expect("join retrain-arm load worker");
        retrain_swap_served += ok;
        retrain_swap_failed += failed;
    }
    // Zero stale answers: post-swap payloads must be byte-identical to
    // a fresh *serial* service started from the promoted checkpoints.
    let retrain_fresh = CompilationService::start(&ServiceConfig {
        models_dir: retrain_dir.clone(),
        parallel: false,
        seed: settings.seed,
        verbose: false,
        ..ServiceConfig::default()
    })
    .expect("start fresh post-promotion reference service");
    let retrain_after: Vec<Value> = retrain_uniques
        .iter()
        .map(|r| retrain_payload(&retrain_service, r))
        .collect();
    let retrain_identical = retrain_uniques
        .iter()
        .zip(retrain_after.iter())
        .all(|(request, swapped)| *swapped == retrain_payload(&retrain_fresh, request));
    let retrain_after_mean_reward = mean_reward(&retrain_after);
    drop(retrain_fresh);
    drop(retrain_service);
    std::fs::remove_dir_all(&retrain_dir).ok();

    // --- The dynamic-device / live-calibration arm ------------------------
    // A runtime spec joins the built-ins in the process-wide registry,
    // and the arm-1 mix is extended with requests pinned to it. One
    // service answers the whole mix, the dynamic device is
    // live-calibrated, and the mix replays on the same (warm) service:
    // exactly the calibration-keyed payloads pinned to the dynamic
    // device may change. This arm runs last — the calibration swap
    // mutates the process-wide registry, and nothing after it may
    // depend on the original synthetic calibration.
    const DYN_DEVICE: &str = "bench_dyn_ring_12";
    let dynamic_id = qrc_device::DeviceRegistry::register(
        qrc_device::DeviceSpec::synthetic(
            DYN_DEVICE,
            qrc_device::Platform::Oqc,
            qrc_device::TopologySpec::Ring { qubits: 12 },
        ),
        qrc_device::DeviceSource::Runtime,
    )
    .expect("register the bench's dynamic device");
    let dyn_seed_tag = qrc_device::DeviceRegistry::seed_tag(dynamic_id);
    let mut dynamic_traffic = traffic.clone();
    let dyn_suite = qrc_benchgen::paper_suite(2, settings.max_qubits.min(4));
    dynamic_traffic.extend(dyn_suite.iter().enumerate().flat_map(|(index, qc)| {
        let text = qrc_circuit::qasm::to_qasm(qc);
        qrc_predictor::RewardKind::ALL
            .into_iter()
            .map(move |objective| ServeRequest {
                id: Some(format!("dyn-{index}-{}", objective.name())),
                qasm: text.clone(),
                objective,
                device_pin: Some(dynamic_id),
            })
    }));
    let dynamic_service = CompilationService::with_registry(
        ModelRegistry::from_models(models.clone()),
        &service_config(true),
    );
    let replay_dynamic = |service: &CompilationService| -> (Vec<Value>, f64) {
        let start = Instant::now();
        let mut payloads = Vec::with_capacity(dynamic_traffic.len());
        for chunk in dynamic_traffic.chunks(serve.batch_size.max(1)) {
            payloads.extend(
                service
                    .handle_batch(chunk)
                    .iter()
                    .map(ServeResponse::payload_value),
            );
        }
        (payloads, start.elapsed().as_secs_f64())
    };
    let (dyn_before, dyn_before_secs) = replay_dynamic(&dynamic_service);
    // The mix's prefix IS the arm-1 mix: with dynamic devices
    // registered, the built-in answers must not move a byte.
    let dyn_builtin_parity = dyn_before.len() == dynamic_traffic.len()
        && dyn_before[..traffic.len()]
            .iter()
            .zip(serial_responses.iter())
            .all(|(a, b)| *a == b.payload_value());
    let recalibration = qrc_device::CalibrationSpec::Synthetic {
        profile: qrc_device::ProfileSpec::Named("superconducting_oqc".into()),
        seed: Some(format!("{DYN_DEVICE}_recal")),
    }
    .to_value();
    let (dyn_calibration_generation, dyn_invalidated) = dynamic_service
        .calibrate(DYN_DEVICE, &recalibration)
        .expect("live-calibrate the dynamic device");
    let (dyn_after, dyn_after_secs) = replay_dynamic(&dynamic_service);
    // A payload embeds the calibration only when the rollout actually
    // compiled onto the device (nonzero reward); a failed rollout
    // renders the same zero-reward body under any calibration, so only
    // calibration-dependent payloads are *required* to change.
    let reward_of = |payload: &Value| -> f64 {
        payload
            .get("reward")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let mut dyn_changed = 0usize;
    let mut dyn_expected_changed = 0usize;
    let mut dyn_others_identical = dyn_after.len() == dyn_before.len();
    for (index, (before, after)) in dyn_before.iter().zip(dyn_after.iter()).enumerate() {
        let calibration_keyed =
            index >= traffic.len() && dynamic_traffic[index].objective.uses_calibration();
        if calibration_keyed {
            if reward_of(before) != 0.0 || reward_of(after) != 0.0 {
                dyn_expected_changed += 1;
                if before != after {
                    dyn_changed += 1;
                }
            }
        } else if before != after {
            dyn_others_identical = false;
        }
    }
    let dyn_errors = dynamic_service.metrics().errors;

    let metrics = batched_service.metrics();
    ServeBenchReport {
        requests: traffic.len(),
        batch_size: serve.batch_size,
        threads: rayon::current_num_threads(),
        train_secs,
        serial_secs,
        batched_secs,
        pipelined_secs,
        pipelined_port,
        identical,
        pipelined_identical,
        hits: metrics.cache.hits,
        misses: metrics.cache.misses,
        hit_rate: metrics.cache.hit_rate(),
        errors: metrics.errors,
        p50_us: metrics.p50_us,
        p99_us: metrics.p99_us,
        p999_us: metrics.p999_us,
        min_us: metrics.min_us,
        max_us: metrics.max_us,
        shard_train_secs,
        sharded_requests: sharded_traffic.len(),
        sharded_serial_secs,
        sharded_secs,
        monolithic_secs,
        sharded_identical,
        shard_stats: sharded_metrics.shards,
        route_counts: sharded_metrics.routes,
        restart_requests: traffic.len(),
        snapshot_entries: snapshot.entries,
        cold_restart_secs,
        warmed_restart_secs,
        cold_hit_rate: cold_cache.hit_rate(),
        cold_hits: cold_cache.hits,
        cold_misses: cold_cache.misses,
        warmed_hit_rate: warmed_cache.hit_rate(),
        warmed_hits: warmed_cache.hits,
        warmed_misses: warmed_cache.misses,
        warm_hits: warmed_cache.warm_hits,
        restart_identical,
        obs_requests: miss_traffic.len(),
        obs_trace_sample: OBS_TRACE_SAMPLE,
        obs_disabled_secs,
        obs_enabled_secs,
        obs_identical,
        obs_sampled_requests: obs_sink.sampled_requests(),
        obs_trace_events,
        obs_trace_valid,
        obs_mean_miss_us,
        obs_parse_mean_us: stage_mean(Stage::Parse),
        obs_admission_mean_us: stage_mean(Stage::Admission),
        obs_compute_mean_us: stage_mean(Stage::Compute),
        obs_profile_mean_us,
        fleet_replicas: fleet.replicas,
        fleet_requests: traffic.len(),
        fleet_secs: fleet.secs,
        fleet_identical: fleet.identical,
        fleet_hits: fleet.hits,
        fleet_misses: fleet.misses,
        fleet_hit_rate: effective_hit_rate(fleet.misses),
        fleet_single_hit_rate,
        fleet_locality_ok: fleet.locality_ok,
        fleet_errors: fleet.errors,
        fleet_rerouted: fleet.rerouted,
        fleet_round_robin: fleet.round_robin,
        fleet_stats: fleet.stats,
        retrain_requests: retrain_traffic.len(),
        retrain_shards_considered: retrain_outcome.shards_considered,
        retrain_skipped: retrain_outcome.skipped,
        retrain_candidates: retrain_outcome.candidates,
        retrain_promoted: retrain_outcome.promoted,
        retrain_rejected: retrain_outcome.rejected,
        retrain_incumbent_head_reward: promoted_gate.incumbent_head_reward,
        retrain_candidate_head_reward: promoted_gate.candidate_head_reward,
        retrain_incumbent_holdout_reward: promoted_gate.incumbent_holdout_reward,
        retrain_candidate_holdout_reward: promoted_gate.candidate_holdout_reward,
        retrain_entropy_floor: retrain_outcome.entropy_floor,
        retrain_candidate_entropy: promoted_gate.candidate_entropy,
        retrain_secs,
        retrain_swap_served,
        retrain_swap_failed,
        retrain_identical,
        retrain_before_mean_reward,
        retrain_after_mean_reward,
        dyn_requests: dynamic_traffic.len(),
        dyn_device: DYN_DEVICE.to_string(),
        dyn_seed_tag,
        dyn_before_secs,
        dyn_after_secs,
        dyn_builtin_parity,
        dyn_calibration_generation,
        dyn_invalidated,
        dyn_changed,
        dyn_expected_changed,
        dyn_others_identical,
        dyn_errors,
    }
}

/// Trains the extra bench shards on their scoped suite slices, each
/// with a shard-tag-mixed seed (the same derivation
/// [`ModelRegistry::ensure_with_shards`] uses for checkpoints).
fn train_bench_shards(
    suite: &[qrc_circuit::QuantumCircuit],
    settings: &EvalSettings,
) -> Vec<(ShardKey, qrc_predictor::TrainedPredictor)> {
    bench_shard_keys()
        .into_iter()
        .map(|key| {
            if settings.verbose {
                eprintln!("training shard `{key}` on its scoped slice…");
            }
            let mut config = qrc_predictor::PredictorConfig::new(key.objective, settings.timesteps);
            config.seed = task_seed(settings.seed, key.tag());
            config.step_penalty = settings.step_penalty;
            let model = qrc_predictor::train(key.suite_slice(suite), &config);
            (key, model)
        })
        .collect()
}

/// Replays the traffic through a real loopback TCP connection against
/// the pipelined socket front end: a writer thread streams every
/// request while this thread collects responses, then the server is
/// shut down gracefully. Binds `listen` when given, retrying on an
/// ephemeral loopback port if that address is busy (never silently
/// skipping the arm). Returns each response as a payload value (cache
/// status, latency, and service-assigned `rid` stripped — all three
/// depend on timing or arrival order, not content), the replay
/// wall-clock, and the port actually bound.
fn replay_pipelined(
    service: &Arc<CompilationService>,
    traffic: &[ServeRequest],
    batch_size: usize,
    listen: Option<&str>,
) -> (Vec<Value>, f64, u16) {
    let listener = bind_ephemeral(listen).expect("bind ephemeral loopback port");
    let local = listener.local_addr().expect("local addr");
    let port = local.port();
    let frontend = FrontendConfig {
        batch_size: batch_size.max(1),
        batch_wait: Duration::from_micros(500),
        // The benchmark measures pipelining, not overload: size the
        // queue so no request is rejected.
        queue_capacity: traffic.len().max(16),
        ..FrontendConfig::default()
    };
    let shutdown = ShutdownFlag::new();
    let server = {
        let service = Arc::clone(service);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || serve_socket(&service, listener, &frontend, &shutdown))
    };

    let start = Instant::now();
    // Connect to the address actually bound — `--listen` may name a
    // non-loopback interface.
    let stream = TcpStream::connect(local).expect("connect to replay server");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("set read timeout");
    let writer = {
        let mut write_half = stream.try_clone().expect("clone stream for writing");
        let lines: Vec<String> = traffic.iter().map(ServeRequest::to_line).collect();
        std::thread::spawn(move || {
            for line in lines {
                if writeln!(write_half, "{line}").is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
    };
    let mut payloads = Vec::with_capacity(traffic.len());
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream for reading"));
    let mut line = String::new();
    while payloads.len() < traffic.len() {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut value = serde_json::from_str(line.trim_end()).expect("response line is JSON");
        if let Value::Object(pairs) = &mut value {
            pairs.retain(|(key, _)| key != "cache" && key != "micros" && key != "rid");
        }
        payloads.push(value);
    }
    let elapsed = start.elapsed().as_secs_f64();
    writer.join().expect("request writer panicked");

    let mut control = stream;
    let _ = control.write_all(b"{\"cmd\":\"shutdown\"}\n");
    let _ = control.flush();
    server
        .join()
        .expect("serve thread panicked")
        .expect("socket front end failed");
    (payloads, elapsed, port)
}

/// Everything the fleet arm measures in one replay.
struct FleetOutcome {
    replicas: usize,
    secs: f64,
    identical: bool,
    errors: u64,
    hits: u64,
    misses: u64,
    locality_ok: bool,
    round_robin: u64,
    rerouted: u64,
    stats: Vec<FleetReplicaStat>,
}

/// Streams the traffic through a real `FleetRouter` fronting
/// `replicas` in-process socket replicas of the same registry, each
/// given an equal slice of the single-node cache capacity (so total
/// capacity matches the single-node arms and the comparison isolates
/// routing, not memory). Responses come back in per-replica order, so
/// they are correlated with the serial baseline by request id.
fn replay_fleet(
    models: &[qrc_predictor::TrainedPredictor],
    traffic: &[ServeRequest],
    serial_responses: &[ServeResponse],
    batch_size: usize,
    seed: u64,
    replicas: usize,
) -> FleetOutcome {
    let per_replica_cache = (ServiceConfig::default().cache_capacity / replicas).max(1);
    let frontend = FrontendConfig {
        batch_size: batch_size.max(1),
        batch_wait: Duration::from_micros(500),
        // The benchmark measures routing, not overload: size each
        // replica's queue so nothing is ever rejected.
        queue_capacity: traffic.len().max(16),
        ..FrontendConfig::default()
    };
    let mut services = Vec::with_capacity(replicas);
    let mut servers = Vec::with_capacity(replicas);
    let mut flags = Vec::with_capacity(replicas);
    let mut addrs = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let service = Arc::new(CompilationService::with_registry(
            ModelRegistry::from_models(models.to_vec()),
            &ServiceConfig {
                parallel: true,
                seed,
                verbose: false,
                cache_capacity: per_replica_cache,
                ..ServiceConfig::default()
            },
        ));
        let listener = bind_ephemeral(None).expect("bind replica listener");
        addrs.push(listener.local_addr().expect("replica addr").to_string());
        let shutdown = ShutdownFlag::new();
        flags.push(shutdown.clone());
        servers.push({
            let service = Arc::clone(&service);
            let frontend = frontend.clone();
            std::thread::spawn(move || serve_socket(&service, listener, &frontend, &shutdown))
        });
        services.push(service);
    }

    let router = Arc::new(
        FleetRouter::new(RouterConfig {
            replicas: addrs.clone(),
            record_routes: true,
            ..RouterConfig::default()
        })
        .expect("resolve replica addresses"),
    );
    router.start().expect("dial the replica fleet");
    let listener = bind_ephemeral(None).expect("bind router listener");
    let local = listener.local_addr().expect("router addr");
    let router_thread = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.run(listener))
    };

    let start = Instant::now();
    let stream = TcpStream::connect(local).expect("connect to router");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("set read timeout");
    let writer = {
        let mut write_half = stream.try_clone().expect("clone stream for writing");
        let lines: Vec<String> = traffic.iter().map(ServeRequest::to_line).collect();
        std::thread::spawn(move || {
            for line in lines {
                if writeln!(write_half, "{line}").is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
    };
    let mut by_id: Vec<Option<Value>> = Vec::new();
    by_id.resize(traffic.len(), None);
    let mut errors = 0u64;
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream for reading"));
    let mut line = String::new();
    let mut received = 0usize;
    while received < traffic.len() {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        received += 1;
        let mut value = serde_json::from_str(line.trim_end()).expect("response line is JSON");
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            errors += 1;
        }
        if let Value::Object(pairs) = &mut value {
            pairs.retain(|(key, _)| key != "cache" && key != "micros" && key != "rid");
        }
        // `synthetic_mix` ids are `req-{index}`: recover the slot.
        let slot = value
            .get("id")
            .and_then(Value::as_str)
            .and_then(|id| id.strip_prefix("req-"))
            .and_then(|index| index.parse::<usize>().ok());
        match slot {
            Some(index) if index < by_id.len() && by_id[index].is_none() => {
                by_id[index] = Some(value);
            }
            _ => errors += 1,
        }
    }
    let secs = start.elapsed().as_secs_f64();
    writer.join().expect("request writer panicked");

    let identical = received == traffic.len()
        && serial_responses.len() == traffic.len()
        && by_id
            .iter()
            .zip(serial_responses.iter())
            .all(|(got, want)| got.as_ref() == Some(&want.payload_value()));
    let locality_ok = !router.route_log().is_empty()
        && router
            .route_log()
            .iter()
            .all(|(_, owners)| owners.len() == 1);
    let round_robin = router.round_robin_count();

    // Drain the router (replicas stay up so their metrics can be
    // read), then stop each replica.
    let mut control = stream;
    let _ = control.write_all(b"{\"cmd\":\"shutdown\"}\n");
    let _ = control.flush();
    line.clear();
    let _ = reader.read_line(&mut line);
    drop(control);
    drop(reader);
    router_thread
        .join()
        .expect("router thread panicked")
        .expect("router failed");

    let counters = router.replica_counters();
    let mut stats = Vec::with_capacity(replicas);
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut rerouted = 0u64;
    for (index, service) in services.iter().enumerate() {
        let metrics = service.metrics();
        errors += metrics.errors;
        hits += metrics.cache.hits;
        misses += metrics.cache.misses;
        let replica = counters
            .iter()
            .find(|replica| replica.addr == addrs[index])
            .cloned()
            .unwrap_or_else(|| ReplicaStats {
                addr: addrs[index].clone(),
                ..ReplicaStats::default()
            });
        rerouted += replica.rerouted;
        stats.push(FleetReplicaStat {
            addr: replica.addr,
            routed: replica.routed,
            completed: replica.completed,
            rerouted: replica.rerouted,
            ejections: replica.ejections,
            hits: metrics.cache.hits,
            misses: metrics.cache.misses,
        });
    }
    for flag in &flags {
        flag.request();
    }
    for server in servers {
        server
            .join()
            .expect("replica thread panicked")
            .expect("replica front end failed");
    }

    FleetOutcome {
        replicas,
        secs,
        identical,
        errors,
        hits,
        misses,
        locality_ok,
        round_robin,
        rerouted,
        stats,
    }
}
