//! The `serve` target: replay synthetic traffic through the compilation
//! service in seven arms, write what they measure as `BENCH_serve.json`,
//! and check every guarantee in [`GATES`] on that artifact.
//!
//! [`run_serve_bench`] runs the arms in order. Each arm runs its replays
//! and returns its block of the artifact:
//!
//! - `replay`, whose fields sit at the artifact's top level: the arm-1
//!   mix served by the scheduler in serial mode, in blocking batches on
//!   the rayon pool, and over the pipelined socket front end (real
//!   loopback TCP, a reader thread overlapping I/O with compute).
//! - `sharded`: a registry of policies keyed by `objective ×
//!   device-class × width band` against the monolithic baseline over a
//!   multi-device, width-skewed mix.
//! - `restart`: a never-restarted service persists its cache at drain,
//!   then a cold and a snapshot-warmed restart replay the same mix.
//! - `observability`: an all-miss mix through the queued front-end path
//!   with the global profiler and 1-in-N span sampling on vs off, and
//!   the per-stage histograms reconciled against the reported latency.
//! - `fleet`: the arm-1 mix through a `FleetRouter` over three socket
//!   replicas that together hold the single node's cache capacity.
//! - `retrain`: weak checkpoints serve a traffic-logged mix, the offline
//!   retrain flow fine-tunes and gates a candidate, and `reload()` swaps
//!   it in while workers keep requests flowing.
//! - `dynamic_devices`: a runtime-registered device joins the arm-1 mix
//!   and is live-calibrated between two replays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrc_benchgen::BenchmarkFamily;
use qrc_circuit::qasm::to_qasm;
use qrc_predictor::{RewardKind, TrainedPredictor};
use qrc_serve::{
    bind_ephemeral, head_of_distribution_counts, run_retrain, serve_socket, synthetic_mix,
    CacheStatus, CompilationService, DeviceClass, FleetRouter, FrontendConfig, MetricsSnapshot,
    ModelRegistry, QueuedLine, RetrainConfig, RouterConfig, Scope, ServeRequest, ServeResponse,
    ServiceConfig, ShardCounterSnapshot, ShardKey, ShutdownFlag, Stage, TrafficConfig, WidthBand,
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
    /// port lands in the artifact.
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

/// Trains the models, then runs every arm in order and returns each
/// arm's block of `BENCH_serve.json` under its name
/// ([`crate::report::bench_serve_value`] assembles the artifact).
pub fn run_serve_bench(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
) -> Vec<(&'static str, Value)> {
    let suite = qrc_benchgen::paper_suite(2, settings.max_qubits);
    let start = Instant::now();
    let models = train_models(&suite, settings);
    let train_secs = start.elapsed().as_secs_f64();
    let mix = synthetic_mix(&TrafficConfig {
        requests: serve.requests,
        min_qubits: 2,
        max_qubits: settings.max_qubits,
        seed: settings.seed,
        ..TrafficConfig::default()
    });
    let (replay, serial, serial_secs, pipelined_misses) =
        replay_arm(settings, serve, &models, &mix, train_secs);
    vec![
        ("replay", replay),
        ("sharded", sharded_arm(settings, serve, &suite, &models)),
        ("restart", restart_arm(settings, serve, &models, &mix)),
        ("observability", observability_arm(settings, serve, &models)),
        (
            "fleet",
            fleet_arm(
                settings,
                serve,
                &models,
                &mix,
                &serial,
                serial_secs,
                pipelined_misses,
            ),
        ),
        ("retrain", retrain_arm(settings, serve)),
        // Last: its calibration swap changes the process-wide device
        // registry, which no arm after it may depend on.
        (
            "dynamic_devices",
            dynamic_devices_arm(settings, serve, &models, &mix, &serial),
        ),
    ]
}

/// The replay arm: the arm-1 mix served serially, in blocking batches
/// (request assembly and compute never overlap), and over the pipelined
/// socket. Returns its top-level fields, the serial answers and
/// wall-clock later arms compare against, and the pipelined node's
/// misses (the fleet arm's locality baseline).
fn replay_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    models: &[TrainedPredictor],
    mix: &[ServeRequest],
    train_secs: f64,
) -> (Value, Vec<ServeResponse>, f64, u64) {
    let monolithic = || ModelRegistry::from_models(models.to_vec());
    let serial_service = service(monolithic(), settings.seed, false);
    let (serial, serial_secs) = replay(mix, serve.batch_size, |chunk| {
        serial_service.handle_batch(chunk)
    });
    let batched_service = service(monolithic(), settings.seed, true);
    let (batched, batched_secs) = replay(mix, serve.batch_size, |chunk| {
        batched_service.handle_batch(chunk)
    });
    let pipelined_service = Arc::new(service(monolithic(), settings.seed, true));
    let listener = bind_ephemeral(serve.listen.as_deref()).expect("bind the pipelined arm's port");
    // Connect to the address actually bound: `--listen` may name a
    // non-loopback interface.
    let addr = listener.local_addr().expect("pipelined arm address");
    let (_, server) = spawn_server(&pipelined_service, listener, serve.batch_size, mix.len());
    let (pipelined, pipelined_secs) = replay_socket(addr, mix);
    server
        .join()
        .expect("serve thread panicked")
        .expect("socket front end failed");

    let batched_identical = serial.len() == batched.len()
        && serial
            .iter()
            .zip(&batched)
            .all(|(a, b)| a.body_value() == b.body_value());
    // The pipelined path cuts the stream into batches by arrival
    // timing, so cache statuses differ run to run; the compilation
    // payloads must not.
    let pipelined_identical = serial.len() == pipelined.len()
        && serial
            .iter()
            .zip(&pipelined)
            .all(|(a, b)| a.payload_value() == *b);
    let n = mix.len() as f64;
    let metrics = batched_service.metrics();
    let block = Value::object(vec![
        ("requests", Value::from(mix.len())),
        ("batch_size", Value::from(serve.batch_size)),
        ("threads", Value::from(rayon::current_num_threads())),
        (
            "timings",
            Value::object(vec![
                ("train_secs", Value::from(train_secs)),
                ("replay_serial_secs", Value::from(serial_secs)),
                ("replay_batched_secs", Value::from(batched_secs)),
                ("replay_pipelined_secs", Value::from(pipelined_secs)),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                (
                    "requests_per_sec_serial",
                    Value::from(ratio(n, serial_secs)),
                ),
                (
                    "requests_per_sec_batched",
                    Value::from(ratio(n, batched_secs)),
                ),
                (
                    "requests_per_sec_pipelined",
                    Value::from(ratio(n, pipelined_secs)),
                ),
                (
                    "speedup_vs_serial",
                    Value::from(ratio(serial_secs, batched_secs)),
                ),
                (
                    "pipelined_vs_batched",
                    Value::from(ratio(batched_secs, pipelined_secs)),
                ),
            ]),
        ),
        ("cache", cache_rows(&metrics, Value::Object(Vec::new()))),
        (
            "latency_us",
            Value::object(vec![
                ("p50", Value::from(metrics.p50_us)),
                ("p99", Value::from(metrics.p99_us)),
                ("p999", Value::from(metrics.p999_us)),
                ("min", Value::from(metrics.min_us)),
                ("max", Value::from(metrics.max_us)),
            ]),
        ),
        ("errors", Value::from(metrics.errors)),
        ("batched_equals_serial", Value::from(batched_identical)),
        ("pipelined_equals_serial", Value::from(pipelined_identical)),
        ("pipelined_port", Value::from(u64::from(addr.port()))),
    ]);
    let pipelined_misses = pipelined_service.metrics().cache.misses;
    (block, serial, serial_secs, pipelined_misses)
}

/// The sharded arm: narrow-band specialists per objective plus an
/// IonQ-class specialist, trained on scoped suite slices, answer a
/// multi-device, width-skewed mix; the monolithic models answer the
/// same mix as the baseline.
fn sharded_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    suite: &[qrc_circuit::QuantumCircuit],
    models: &[TrainedPredictor],
) -> Value {
    // Device pins are common and narrow circuits dominate, so the
    // specialized shards see the slice they were trained for.
    let mix = synthetic_mix(&TrafficConfig {
        requests: serve.requests,
        min_qubits: 2,
        max_qubits: settings.max_qubits,
        seed: settings.seed,
        pin_fraction: 0.4,
        narrow_fraction: 0.5,
        ..TrafficConfig::default()
    });
    let start = Instant::now();
    let extra = train_bench_shards(suite, settings);
    let train_extra_secs = start.elapsed().as_secs_f64();
    let sharded = || {
        let mut shards: Vec<(ShardKey, TrainedPredictor)> = models
            .iter()
            .map(|m| (ShardKey::wildcard(m.reward()), m.clone()))
            .collect();
        shards.extend(extra.clone());
        ModelRegistry::from_shards(shards)
    };
    // Per-request serial compilation on the sharded registry is the
    // routing-correctness baseline: chunk size 1, serial scheduler.
    let serial_service = service(sharded(), settings.seed, false);
    let (serial, serial_secs) = replay(&mix, 1, |chunk| serial_service.handle_batch(chunk));
    let sharded_service = service(sharded(), settings.seed, true);
    let (batched, batched_secs) = replay(&mix, serve.batch_size, |chunk| {
        sharded_service.handle_batch(chunk)
    });
    let monolithic = service(
        ModelRegistry::from_models(models.to_vec()),
        settings.seed,
        true,
    );
    let (_, monolithic_secs) = replay(&mix, serve.batch_size, |chunk| {
        monolithic.handle_batch(chunk)
    });
    let metrics = sharded_service.metrics();
    Value::object(vec![
        ("requests", Value::from(mix.len())),
        ("train_extra_secs", Value::from(train_extra_secs)),
        ("replay_serial_secs", Value::from(serial_secs)),
        ("replay_batched_secs", Value::from(batched_secs)),
        ("monolithic_batched_secs", Value::from(monolithic_secs)),
        (
            "requests_per_sec",
            Value::from(ratio(mix.len() as f64, batched_secs)),
        ),
        (
            "vs_monolithic",
            Value::from(ratio(monolithic_secs, batched_secs)),
        ),
        // Chunk sizes differ between the two replays, so cache statuses
        // legitimately differ (in-batch coalescing vs hits); the
        // payloads, shard echo included, must not.
        (
            "sharded_equals_serial",
            Value::from(same_payloads(&serial, &batched)),
        ),
        ("routes", metrics.routes.to_value()),
        (
            "shards",
            Value::Array(
                metrics
                    .shards
                    .iter()
                    .map(ShardCounterSnapshot::to_value)
                    .collect(),
            ),
        ),
    ])
}

/// Trains the sharded arm's extra shards (a narrow-band specialist per
/// objective, plus one device-class specialist to exercise device
/// routing) with [`ShardKey::train`], the recipe behind the service's
/// own checkpoints.
fn train_bench_shards(
    suite: &[qrc_circuit::QuantumCircuit],
    settings: &EvalSettings,
) -> Vec<(ShardKey, TrainedPredictor)> {
    let narrow = RewardKind::ALL.into_iter().map(|objective| ShardKey {
        objective,
        device_class: DeviceClass::Any,
        width_band: WidthBand::Narrow,
    });
    let ionq = ShardKey {
        objective: RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Class(qrc_device::Platform::Ionq),
        width_band: WidthBand::Any,
    };
    narrow
        .chain([ionq])
        .map(|key| {
            if settings.verbose {
                eprintln!("training shard `{key}` on its scoped slice…");
            }
            let model = key.train(
                suite,
                settings.timesteps,
                settings.seed,
                settings.step_penalty,
            );
            (key, model)
        })
        .collect()
}

/// The restart-warmup arm: three disk-backed services over the arm-1
/// mix. A never-restarted reference persists its cache, then a cold
/// restart (same checkpoints, empty cache) and a warmed restart
/// (snapshot imported before the first request) replay the mix.
fn restart_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    models: &[TrainedPredictor],
    mix: &[ServeRequest],
) -> Value {
    let dir = std::env::temp_dir().join(format!("qrc_serve_bench_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create restart-arm models dir");
    for model in models {
        model
            .save(&ModelRegistry::model_path(
                &dir,
                ShardKey::wildcard(model.reward()),
            ))
            .expect("save restart-arm checkpoint");
    }
    let config = ServiceConfig {
        models_dir: dir.clone(),
        seed: settings.seed,
        verbose: false,
        ..ServiceConfig::default()
    };
    let never = CompilationService::start(&config).expect("start never-restarted service");
    let (reference, _) = replay(mix, serve.batch_size, |chunk| never.handle_batch(chunk));
    let snapshot = never.write_snapshot().expect("snapshot the primed cache");
    drop(never);

    let cold = CompilationService::start(&config).expect("start cold-restart service");
    let (cold_answers, cold_secs) = replay(mix, serve.batch_size, |chunk| cold.handle_batch(chunk));
    let warmed = CompilationService::start(&config).expect("start warmed-restart service");
    warmed.load_snapshot().expect("import the cache snapshot");
    warmed.finish_warmup();
    let (warmed_answers, warmed_secs) =
        replay(mix, serve.batch_size, |chunk| warmed.handle_batch(chunk));
    std::fs::remove_dir_all(&dir).ok();

    let block = |secs: f64, service: &CompilationService| {
        let timing = Value::object(vec![("replay_secs", Value::from(secs))]);
        cache_rows(&service.metrics(), timing)
    };
    Value::object(vec![
        ("requests", Value::from(mix.len())),
        ("snapshot_entries", Value::from(snapshot.entries)),
        ("cold", block(cold_secs, &cold)),
        ("warmed", block(warmed_secs, &warmed)),
        ("warmed_vs_cold", Value::from(ratio(cold_secs, warmed_secs))),
        (
            "payloads_identical",
            Value::from(
                reference.len() == mix.len()
                    && same_payloads(&reference, &cold_answers)
                    && same_payloads(&reference, &warmed_answers),
            ),
        ),
    ])
}

/// The observability arm: every request distinct and unpinned, replayed
/// against a cold cache (so every request is a miss) through the queued
/// front-end path, where stage histograms, request ids and span
/// synthesis are all live. The full observability surface (global
/// profiler plus 1-in-N trace sampling) on vs off must leave payloads
/// byte-identical, and the instrumented round's stage histograms must
/// reconstruct the miss latency the responses themselves reported.
fn observability_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    models: &[TrainedPredictor],
) -> Value {
    const TRACE_SAMPLE: u64 = 4;
    let suite = qrc_benchgen::paper_suite(2, settings.max_qubits.min(3));
    let queued: Vec<QueuedLine> = suite
        .iter()
        .enumerate()
        .flat_map(|(index, qc)| {
            let qasm = to_qasm(qc);
            RewardKind::ALL
                .into_iter()
                .map(move |objective| QueuedLine {
                    line: ServeRequest {
                        id: Some(format!("miss-{index}-{}", objective.name())),
                        qasm: qasm.clone(),
                        objective,
                        device_pin: None,
                    }
                    .to_line(),
                    queue_us: 0,
                })
        })
        .collect();
    let round = |instrumented: bool| {
        qrc_obs::profile::reset();
        qrc_obs::profile::set_enabled(instrumented);
        // Serial scheduling: the two rounds must differ only in
        // instrumentation.
        let service = service(
            ModelRegistry::from_models(models.to_vec()),
            settings.seed,
            false,
        );
        if instrumented {
            service.enable_tracing(TRACE_SAMPLE);
        }
        let (answers, secs) = replay(&queued, serve.batch_size, |chunk| {
            service.handle_queued(chunk)
        });
        (answers, secs, service)
    };
    // Five off/on round *pairs*: the overhead gate compares two
    // near-identical wall-clocks, so the rounds are interleaved (any
    // ambient load drift hits both equally) and the minimum gets
    // enough draws to shake scheduler noise out.
    let (mut disabled_secs, mut enabled_secs) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..5 {
        let (off, secs, _) = round(false);
        disabled_secs = disabled_secs.min(secs);
        let (on, secs, service) = round(true);
        enabled_secs = enabled_secs.min(secs);
        last = Some((off, on, service));
    }
    let (off, on, service) = last.expect("five round pairs ran");
    // The profiler, like the stage histograms and responses, reflects
    // the final instrumented round (each round resets it).
    let profile = qrc_obs::profile::snapshot();
    qrc_obs::profile::set_enabled(false);
    qrc_obs::profile::reset();

    let miss_micros: Vec<u64> = on
        .iter()
        .filter(|r| matches!(r.result, Ok((_, CacheStatus::Miss))))
        .map(|r| r.micros)
        .collect();
    let per_miss = |total: f64| {
        if miss_micros.is_empty() {
            0.0
        } else {
            total / miss_micros.len() as f64
        }
    };
    let mean_miss_us = per_miss(miss_micros.iter().sum::<u64>() as f64);
    let stage_mean = |stage: Stage| {
        let h = service.stage_histogram(stage);
        if h.count() == 0 {
            0.0
        } else {
            h.sum() as f64 / h.count() as f64
        }
    };
    let (parse, admission, compute) = (
        stage_mean(Stage::Parse),
        stage_mean(Stage::Admission),
        stage_mean(Stage::Compute),
    );
    let sink = service.trace_sink();
    let trace = sink.to_chrome_value();
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or_default();
    let trace_valid = !events.is_empty()
        && events
            .iter()
            .all(|event| event.get("ph") == Some(&Value::from("X")));
    Value::object(vec![
        ("requests", Value::from(queued.len())),
        ("trace_sample", Value::from(TRACE_SAMPLE)),
        ("disabled_secs", Value::from(disabled_secs)),
        ("enabled_secs", Value::from(enabled_secs)),
        // Negative values are noise: the surface costs less than the
        // run-to-run spread.
        (
            "overhead_frac",
            Value::from(ratio(enabled_secs, disabled_secs) - 1.0),
        ),
        (
            "payloads_identical",
            Value::from(on.len() == queued.len() && same_payloads(&off, &on)),
        ),
        (
            "trace",
            Value::object(vec![
                ("sampled_requests", Value::from(sink.sampled_requests())),
                ("events", Value::from(events.len())),
                ("valid", Value::from(trace_valid)),
            ]),
        ),
        ("mean_miss_us", Value::from(mean_miss_us)),
        (
            "stage_means_us",
            Value::object(vec![
                ("parse", Value::from(parse)),
                ("admission", Value::from(admission)),
                ("compute", Value::from(compute)),
                (
                    "profile_drilldown",
                    Value::from(per_miss(profile.total_us() as f64)),
                ),
            ]),
        ),
        // Queue wait is zero on this path, so parse, admission and
        // compute make up the whole reported latency.
        (
            "stage_breakdown_frac",
            Value::from(ratio(parse + admission + compute, mean_miss_us)),
        ),
    ])
}

/// The fleet arm: the arm-1 mix streamed through a real consistent-hash
/// router over three in-process socket replicas. Each replica owns a
/// third of the single-node cache capacity, so a hit-rate loss against
/// the single pipelined node would be a routing-locality failure, not a
/// memory handicap.
fn fleet_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    models: &[TrainedPredictor],
    mix: &[ServeRequest],
    serial: &[ServeResponse],
    serial_secs: f64,
    single_node_misses: u64,
) -> Value {
    const REPLICAS: usize = 3;
    let config = ServiceConfig {
        parallel: true,
        seed: settings.seed,
        verbose: false,
        cache_capacity: (ServiceConfig::default().cache_capacity / REPLICAS).max(1),
        ..ServiceConfig::default()
    };
    let mut replicas = Vec::with_capacity(REPLICAS);
    for _ in 0..REPLICAS {
        let service = Arc::new(CompilationService::with_registry(
            ModelRegistry::from_models(models.to_vec()),
            &config,
        ));
        let listener = bind_ephemeral(None).expect("bind replica listener");
        let addr = listener.local_addr().expect("replica addr").to_string();
        let (stop, server) = spawn_server(&service, listener, serve.batch_size, mix.len());
        replicas.push((service, addr, stop, server));
    }
    let router = Arc::new(
        FleetRouter::new(RouterConfig {
            replicas: replicas.iter().map(|(_, addr, ..)| addr.clone()).collect(),
            record_routes: true,
            ..RouterConfig::default()
        })
        .expect("resolve replica addresses"),
    );
    router.start().expect("dial the replica fleet");
    let listener = bind_ephemeral(None).expect("bind router listener");
    let addr = listener.local_addr().expect("router addr");
    let router_thread = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.run(listener))
    };
    let (replies, secs) = replay_socket(addr, mix);
    // The shutdown line drained the router; the replicas stay up until
    // their counters are read.
    router_thread
        .join()
        .expect("router thread panicked")
        .expect("router failed");
    let (slots, errors) = collate(replies, mix.len());
    let route_log = router.route_log();

    let (mut hits, mut misses, mut rerouted) = (0, 0, 0);
    let routing = MetricsSnapshot {
        replicas: router.replica_counters(),
        ..MetricsSnapshot::default()
    };
    let mut per_replica = Vec::with_capacity(REPLICAS);
    for (item, (counters, (service, _, stop, server))) in
        routing.replicas.iter().zip(replicas).enumerate()
    {
        let metrics = service.metrics();
        hits += metrics.cache.hits;
        misses += metrics.cache.misses;
        rerouted += counters.rerouted;
        let mut replica = Value::object(vec![("addr", Value::from(counters.addr.clone()))]);
        routing.write_rows(Scope::Replica, item, &[], &mut replica);
        per_replica.push(cache_rows(&metrics, replica));
        stop.request();
        server
            .join()
            .expect("replica thread panicked")
            .expect("replica front end failed");
    }
    // Effective hit rate: the share of requests answered without a
    // fresh policy inference. Raw hit counters depend on timing (a
    // repeat in the same batch as its first occurrence coalesces
    // instead of hitting), but every miss is an inference, so
    // 1 − misses/requests measures locality whatever the batch
    // boundaries.
    let n = mix.len() as f64;
    let effective_hit_rate = |misses: u64| 1.0 - misses as f64 / n.max(1.0);
    Value::object(vec![
        ("replicas_count", Value::from(REPLICAS)),
        ("requests", Value::from(mix.len())),
        ("secs", Value::from(secs)),
        ("requests_per_sec", Value::from(ratio(n, secs))),
        ("vs_serial", Value::from(ratio(serial_secs, secs))),
        (
            "payloads_identical",
            Value::from(
                serial.len() == mix.len()
                    && slots
                        .iter()
                        .zip(serial)
                        .all(|(got, want)| got.as_ref() == Some(&want.payload_value())),
            ),
        ),
        ("hits", Value::from(hits)),
        ("misses", Value::from(misses)),
        ("hit_rate", Value::from(effective_hit_rate(misses))),
        (
            "single_node_hit_rate",
            Value::from(effective_hit_rate(single_node_misses)),
        ),
        // Consistent hashing held: every routed key landed on exactly
        // one replica for the whole replay.
        (
            "locality_ok",
            Value::from(
                !route_log.is_empty() && route_log.iter().all(|(_, owners)| owners.len() == 1),
            ),
        ),
        ("errors", Value::from(errors)),
        ("rerouted", Value::from(rerouted)),
        ("round_robin", Value::from(router.round_robin_count())),
        ("replicas", Value::Array(per_replica)),
    ])
}

/// Places each fleet reply in its request's slot (`synthetic_mix` ids
/// are `req-{index}`) and counts failed requests, each once: a request
/// failed when its reply is not `ok`, is missing, or matches no slot.
fn collate(replies: Vec<Value>, requests: usize) -> (Vec<Option<Value>>, u64) {
    let mut slots: Vec<Option<Value>> = vec![None; requests];
    for reply in replies {
        let index = reply
            .get("id")
            .and_then(Value::as_str)
            .and_then(|id| id.strip_prefix("req-"))
            .and_then(|index| index.parse::<usize>().ok());
        if let Some(slot @ None) = index.and_then(|index| slots.get_mut(index)) {
            *slot = Some(reply);
        }
    }
    let failed = slots
        .iter()
        .filter(|slot| {
            let ok = slot.as_ref().and_then(|reply| reply.get("ok"));
            ok.and_then(Value::as_bool) != Some(true)
        })
        .count();
    (slots, failed as u64)
}

/// The closed-loop retrain arm. Deliberately weak wildcard checkpoints
/// (a 300-timestep budget, far too small to learn even this toy suite)
/// serve a skewed, traffic-logged mix; the offline retrain flow
/// fine-tunes the traffic-bearing shard on the logged head with the
/// entropy bonus, the gate replays held-out traffic, and `reload()`
/// swaps the promoted checkpoint in while three workers keep requests
/// flowing. Weak incumbents are the point: promotion must fire
/// deterministically, so the arm measures the whole loop, not a coin
/// flip on whether fine-tuning happened to help.
fn retrain_arm(settings: &EvalSettings, serve: &ServeBenchSettings) -> Value {
    const WEAK_TIMESTEPS: usize = 300;
    let dir = std::env::temp_dir().join(format!("qrc_serve_bench_retrain_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create retrain-arm models dir");
    let weak_suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
    let weak_settings = EvalSettings {
        timesteps: WEAK_TIMESTEPS,
        verbose: false,
        ..settings.clone()
    };
    for model in &train_models(&weak_suite, &weak_settings) {
        model
            .save(&ModelRegistry::model_path(
                &dir,
                ShardKey::wildcard(model.reward()),
            ))
            .expect("save retrain-arm weak checkpoint");
    }
    let log = dir.join("traffic.ndjson");
    let start_service = |parallel: bool| {
        CompilationService::start(&ServiceConfig {
            models_dir: dir.clone(),
            parallel,
            seed: settings.seed,
            verbose: false,
            ..ServiceConfig::default()
        })
    };
    let live = Arc::new(start_service(true).expect("start retrain-arm service"));
    live.set_traffic_log(&log)
        .expect("attach retrain-arm traffic log");
    // The skewed mix the loop learns from: one hot circuit dominating,
    // a warm and a cool one behind it, and a one-off tail, interleaved
    // so the frequency ranking is real work.
    let request = |family: BenchmarkFamily, qubits: u32, id: String| ServeRequest {
        id: Some(id),
        ..ServeRequest::new(to_qasm(&family.generate(qubits)))
    };
    let mut mix = Vec::new();
    for i in 0..12 {
        mix.push(request(BenchmarkFamily::Ghz, 3, format!("hot-{i}")));
        if i < 6 {
            mix.push(request(BenchmarkFamily::Dj, 3, format!("warm-{i}")));
        }
        if i < 3 {
            mix.push(request(BenchmarkFamily::Ghz, 2, format!("cool-{i}")));
        }
    }
    mix.push(request(BenchmarkFamily::Ghz, 4, "tail-0".into()));
    let (logged, _) = replay(&mix, serve.batch_size, |chunk| live.handle_batch(chunk));
    if let Some(failed) = logged.iter().find(|r| r.result.is_err()) {
        panic!("retrain-arm serve failed: {:?}", failed.result);
    }
    let uniques: Vec<ServeRequest> = head_of_distribution_counts(&mix, usize::MAX)
        .into_iter()
        .map(|(request, _)| request)
        .collect();
    let payloads = |service: &CompilationService| -> Vec<Value> {
        uniques
            .iter()
            .map(|r| service.handle_batch(std::slice::from_ref(r))[0].payload_value())
            .collect()
    };
    let mean_reward = |payloads: &[Value]| {
        payloads
            .iter()
            .map(|p| p.get("reward").and_then(Value::as_f64).unwrap_or(0.0))
            .sum::<f64>()
            / (payloads.len() as f64).max(1.0)
    };
    let before = payloads(&live);

    let start = Instant::now();
    let outcome = run_retrain(&RetrainConfig {
        models_dir: dir.clone(),
        log_path: log.clone(),
        timesteps: 1500,
        curriculum_cap: 8,
        max_repeats: 6,
        min_requests: 4,
        seed: settings.seed,
        verbose: false,
        ..RetrainConfig::default()
    })
    .expect("offline retrain over the logged traffic");
    let retrain_secs = start.elapsed().as_secs_f64();
    let gate = outcome
        .outcomes
        .iter()
        .find(|o| o.gate.promoted)
        .map(|o| o.gate.clone())
        .unwrap_or_else(|| panic!("retrain arm promotes a candidate: {outcome:?}"));

    // Swap the promoted checkpoint in through the live reload path
    // under 3-thread load; a served counter brackets the reload so the
    // swap provably happens while traffic flows.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let service = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let mix = mix.clone();
            std::thread::spawn(move || -> (u64, u64) {
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
    while served.load(Ordering::SeqCst) < 6 {
        std::thread::yield_now();
    }
    let reload = live.reload().expect("reload promoted checkpoint");
    assert!(
        !reload.loaded.is_empty(),
        "the promoted checkpoint is picked up: {reload:?}"
    );
    let at_swap = served.load(Ordering::SeqCst);
    while served.load(Ordering::SeqCst) < at_swap + 6 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    let (mut swap_served, mut swap_failed) = (0u64, 0u64);
    for worker in workers {
        let (ok, failed) = worker.join().expect("join retrain-arm load worker");
        swap_served += ok;
        swap_failed += failed;
    }
    // Zero stale answers: post-swap payloads must be byte-identical to
    // a fresh *serial* service started from the promoted checkpoints.
    let fresh = start_service(false).expect("start fresh post-promotion reference service");
    let after = payloads(&live);
    let identical = after == payloads(&fresh);
    drop(fresh);
    drop(live);
    std::fs::remove_dir_all(&dir).ok();

    let improvement = gate.candidate_head_reward - gate.incumbent_head_reward;
    // The loop did what it promises: one promotion and no quarantine, a
    // strictly better head, no held-out regression, action diversity
    // kept, a live swap that carried load and failed nothing, and
    // post-swap answers equal to fresh compilation under the new
    // checkpoint.
    let loop_ok = outcome.promoted == 1
        && outcome.rejected == 0
        && improvement > 0.0
        && gate.candidate_holdout_reward >= gate.incumbent_holdout_reward
        && gate.candidate_entropy >= outcome.entropy_floor
        && swap_failed == 0
        && swap_served > 0
        && identical;
    Value::object(vec![
        ("requests", Value::from(mix.len())),
        ("shards_considered", Value::from(outcome.shards_considered)),
        ("skipped", Value::from(outcome.skipped)),
        ("candidates", Value::from(outcome.candidates)),
        ("promoted", Value::from(outcome.promoted)),
        ("rejected", Value::from(outcome.rejected)),
        (
            "head",
            Value::object(vec![
                ("incumbent_reward", Value::from(gate.incumbent_head_reward)),
                ("candidate_reward", Value::from(gate.candidate_head_reward)),
                ("improvement", Value::from(improvement)),
            ]),
        ),
        (
            "holdout",
            Value::object(vec![
                (
                    "incumbent_reward",
                    Value::from(gate.incumbent_holdout_reward),
                ),
                (
                    "candidate_reward",
                    Value::from(gate.candidate_holdout_reward),
                ),
            ]),
        ),
        (
            "entropy",
            Value::object(vec![
                ("floor", Value::from(outcome.entropy_floor)),
                ("candidate", Value::from(gate.candidate_entropy)),
            ]),
        ),
        ("secs", Value::from(retrain_secs)),
        ("swap_served", Value::from(swap_served)),
        ("swap_failed", Value::from(swap_failed)),
        ("payloads_identical", Value::from(identical)),
        (
            "served_reward",
            Value::object(vec![
                ("before", Value::from(mean_reward(&before))),
                ("after", Value::from(mean_reward(&after))),
            ]),
        ),
        ("loop_ok", Value::from(loop_ok)),
    ])
}

/// The dynamic-device arm: a runtime spec joins the built-ins in the
/// process-wide registry, and the arm-1 mix is extended with requests
/// pinned to it. One service answers the whole mix, the dynamic device
/// is live-calibrated, and the mix replays on the same (warm) service:
/// exactly the calibration-keyed payloads pinned to the dynamic device
/// may change.
fn dynamic_devices_arm(
    settings: &EvalSettings,
    serve: &ServeBenchSettings,
    models: &[TrainedPredictor],
    mix: &[ServeRequest],
    serial: &[ServeResponse],
) -> Value {
    const DEVICE: &str = "bench_dyn_ring_12";
    let device = qrc_device::DeviceRegistry::register(
        qrc_device::DeviceSpec::synthetic(
            DEVICE,
            qrc_device::Platform::Oqc,
            qrc_device::TopologySpec::Ring { qubits: 12 },
        ),
        qrc_device::DeviceSource::Runtime,
    )
    .expect("register the bench's dynamic device");
    let mut dynamic_mix = mix.to_vec();
    let suite = qrc_benchgen::paper_suite(2, settings.max_qubits.min(4));
    dynamic_mix.extend(suite.iter().enumerate().flat_map(|(index, qc)| {
        let qasm = to_qasm(qc);
        RewardKind::ALL
            .into_iter()
            .map(move |objective| ServeRequest {
                id: Some(format!("dyn-{index}-{}", objective.name())),
                qasm: qasm.clone(),
                objective,
                device_pin: Some(device),
            })
    }));
    let service = service(
        ModelRegistry::from_models(models.to_vec()),
        settings.seed,
        true,
    );
    let (before, before_secs) = replay(&dynamic_mix, serve.batch_size, |chunk| {
        service.handle_batch(chunk)
    });
    let recalibration = qrc_device::CalibrationSpec::Synthetic {
        profile: qrc_device::ProfileSpec::Named("superconducting_oqc".into()),
        seed: Some(format!("{DEVICE}_recal")),
    }
    .to_value();
    let (generation, invalidated) = service
        .calibrate(DEVICE, &recalibration)
        .expect("live-calibrate the dynamic device");
    let (after, after_secs) = replay(&dynamic_mix, serve.batch_size, |chunk| {
        service.handle_batch(chunk)
    });

    // A payload embeds the calibration only when the rollout actually
    // compiled onto the device (nonzero reward); a failed rollout
    // renders the same zero-reward body under any calibration, so only
    // calibration-dependent payloads are *required* to change.
    let reward = |payload: &Value| payload.get("reward").and_then(Value::as_f64).unwrap_or(0.0);
    let (mut changed, mut expected_changed) = (0usize, 0usize);
    let mut others_identical = after.len() == before.len();
    for (index, (old, new)) in before.iter().zip(&after).enumerate() {
        let (old, new) = (old.payload_value(), new.payload_value());
        let calibration_keyed =
            index >= mix.len() && dynamic_mix[index].objective.uses_calibration();
        if calibration_keyed {
            if reward(&old) != 0.0 || reward(&new) != 0.0 {
                expected_changed += 1;
                changed += usize::from(old != new);
            }
        } else if old != new {
            others_identical = false;
        }
    }
    Value::object(vec![
        ("requests", Value::from(dynamic_mix.len())),
        ("device", Value::from(DEVICE)),
        (
            "seed_tag",
            Value::from(qrc_device::DeviceRegistry::seed_tag(device)),
        ),
        ("before_secs", Value::from(before_secs)),
        ("after_secs", Value::from(after_secs)),
        // The mix's prefix is the arm-1 mix: registering a dynamic
        // device must not move a byte of the built-in answers.
        (
            "builtin_parity",
            Value::from(
                before.len() == dynamic_mix.len() && same_payloads(&before[..mix.len()], serial),
            ),
        ),
        (
            "calibration",
            Value::object(vec![
                ("generation", Value::from(generation)),
                ("invalidated", Value::from(invalidated)),
            ]),
        ),
        ("changed", Value::from(changed)),
        ("expected_changed", Value::from(expected_changed)),
        ("others_identical", Value::from(others_identical)),
        ("errors", Value::from(service.metrics().errors)),
    ])
}

/// An in-process service over `registry`.
fn service(registry: ModelRegistry, seed: u64, parallel: bool) -> CompilationService {
    CompilationService::with_registry(
        registry,
        &ServiceConfig {
            parallel,
            seed,
            verbose: false,
            ..ServiceConfig::default()
        },
    )
}

/// Replays `mix` in chunks of `chunk` through `handle` (one in-process
/// service entry point); returns the responses and the wall-clock
/// seconds.
fn replay<T>(
    mix: &[T],
    chunk: usize,
    mut handle: impl FnMut(&[T]) -> Vec<ServeResponse>,
) -> (Vec<ServeResponse>, f64) {
    let start = Instant::now();
    let mut responses = Vec::with_capacity(mix.len());
    for chunk in mix.chunks(chunk.max(1)) {
        responses.extend(handle(chunk));
    }
    (responses, start.elapsed().as_secs_f64())
}

/// Serves `service` on `listener` from a thread of its own, in batches
/// of `batch_size` behind a queue deep enough that none of `requests`
/// is rejected: the socket arms measure pipelining and routing, not
/// overload. Request shutdown with the flag or a `shutdown` line.
fn spawn_server(
    service: &Arc<CompilationService>,
    listener: TcpListener,
    batch_size: usize,
    requests: usize,
) -> (ShutdownFlag, JoinHandle<std::io::Result<()>>) {
    let frontend = FrontendConfig {
        batch_size: batch_size.max(1),
        batch_wait: Duration::from_micros(500),
        queue_capacity: requests.max(16),
        ..FrontendConfig::default()
    };
    let shutdown = ShutdownFlag::new();
    let server = {
        let service = Arc::clone(service);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || serve_socket(&service, listener, &frontend, &shutdown))
    };
    (shutdown, server)
}

/// Streams `mix` to the NDJSON server at `addr`: a writer thread sends
/// every request while this thread reads one reply per request, each
/// without `cache`, `micros` and `rid` (they depend on timing and
/// arrival order, not content). Then it sends `{"cmd":"shutdown"}` and
/// waits for the acknowledgement. Returns the replies in arrival order
/// and the wall-clock from connecting to the last reply.
fn replay_socket(addr: SocketAddr, mix: &[ServeRequest]) -> (Vec<Value>, f64) {
    let start = Instant::now();
    let stream = TcpStream::connect(addr).expect("connect to the replay server");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("set read timeout");
    let writer = {
        let mut write_half = stream.try_clone().expect("clone stream for writing");
        let lines: Vec<String> = mix.iter().map(ServeRequest::to_line).collect();
        std::thread::spawn(move || {
            for line in lines {
                if writeln!(write_half, "{line}").is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
    };
    let mut replies = Vec::with_capacity(mix.len());
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream for reading"));
    let mut line = String::new();
    while replies.len() < mix.len() {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut reply = serde_json::from_str(line.trim_end()).expect("reply line is JSON");
        if let Value::Object(pairs) = &mut reply {
            pairs.retain(|(key, _)| key != "cache" && key != "micros" && key != "rid");
        }
        replies.push(reply);
    }
    let secs = start.elapsed().as_secs_f64();
    writer.join().expect("request writer panicked");
    let mut control = stream;
    let _ = control.write_all(b"{\"cmd\":\"shutdown\"}\n");
    let _ = control.flush();
    line.clear();
    let _ = reader.read_line(&mut line);
    (replies, secs)
}

/// `true` iff both response lists carry the same compilation payloads
/// (cache statuses aside), in the same order.
fn same_payloads(a: &[ServeResponse], b: &[ServeResponse]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a.payload_value() == b.payload_value())
}

/// `block` with the node's `cache` rows of `snapshot` added at its top
/// level, as the metric table renders them.
fn cache_rows(snapshot: &MetricsSnapshot, mut block: Value) -> Value {
    snapshot.write_rows(Scope::Node, 0, &["cache"], &mut block);
    block
}

/// `numerator / denominator`, with the denominator floored at 1e-12 so
/// a zero wall-clock reads as a large ratio, not infinity.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    numerator / denominator.max(1e-12)
}

/// One row of [`GATES`]: a guarantee `evaluate serve` checks on its
/// artifact.
pub struct Gate {
    /// What the row requires.
    pub name: &'static str,
    /// The check on `BENCH_serve.json`; an error names every value it
    /// compared.
    pub check: fn(&Value) -> Result<(), String>,
}

/// Every guarantee `evaluate serve` checks, one row each, in arm order.
/// A run checks every row on the artifact it wrote, prints each failing
/// row, and fails if any did. Two rows time the service on the host
/// that runs it: the observability overhead and the fleet against one
/// serial node. Every other row holds on any host.
pub const GATES: &[Gate] = &[
    Gate {
        name: "batched serving equals serial",
        check: |a| holds(a, "batched_equals_serial"),
    },
    Gate {
        name: "pipelined socket serving equals serial",
        check: |a| holds(a, "pipelined_equals_serial"),
    },
    Gate {
        name: "sharded serving equals per-request serial compilation",
        check: |a| holds(a, "sharded.sharded_equals_serial"),
    },
    Gate {
        name: "the traffic replay hits the cache",
        check: |a| above(a, "cache.hit_rate", 0.0),
    },
    Gate {
        name: "restarts serve the never-restarted payloads",
        check: |a| holds(a, "restart.payloads_identical"),
    },
    Gate {
        name: "the warmed restart beats the cold one",
        check: |a| {
            let warmed = num(a, "restart.warmed.hit_rate")?;
            let cold = num(a, "restart.cold.hit_rate")?;
            ensure(warmed > cold, || {
                format!(
                    "restart.warmed.hit_rate {warmed} is not above restart.cold.hit_rate {cold}"
                )
            })
        },
    },
    Gate {
        name: "the warmed restart hits pre-warmed entries",
        check: |a| above(a, "restart.warmed.warm_hits", 0.0),
    },
    Gate {
        name: "instrumentation leaves payloads unchanged",
        check: |a| holds(a, "observability.payloads_identical"),
    },
    Gate {
        name: "observability costs at most 5% (timing)",
        check: |a| {
            let overhead = num(a, "observability.overhead_frac")?;
            ensure(overhead <= 0.05, || {
                format!(
                    "observability.overhead_frac {overhead:.4} exceeds 0.05 \
                     (enabled_secs {} vs disabled_secs {})",
                    at(a, "observability.enabled_secs").unwrap_or(&Value::Null),
                    at(a, "observability.disabled_secs").unwrap_or(&Value::Null)
                )
            })
        },
    },
    Gate {
        name: "stage histograms account for the miss latency",
        check: |a| at_least(a, "observability.stage_breakdown_frac", 0.9),
    },
    Gate {
        name: "the instrumented replay writes a valid trace",
        check: |a| {
            holds(a, "observability.trace.valid")?;
            above(a, "observability.trace.sampled_requests", 0.0)
        },
    },
    Gate {
        name: "fleet serving equals serial",
        check: |a| holds(a, "fleet.payloads_identical"),
    },
    Gate {
        name: "every routed key stays on one replica",
        check: |a| holds(a, "fleet.locality_ok"),
    },
    Gate {
        name: "the fleet hits as often as one node with the same cache",
        check: |a| {
            let fleet = num(a, "fleet.hit_rate")?;
            let single = num(a, "fleet.single_node_hit_rate")?;
            ensure(fleet >= single, || {
                format!("fleet.hit_rate {fleet} is below fleet.single_node_hit_rate {single}")
            })
        },
    },
    // With one worker thread the replicas share a single core with the
    // router, so beating the zero-I/O in-process serial replay is
    // impossible by construction; the row applies once the host can
    // run replicas in parallel.
    Gate {
        name: "the fleet does not lose to one serial node on a multi-core host (timing)",
        check: |a| {
            let (threads, vs_serial) = (num(a, "threads")?, num(a, "fleet.vs_serial")?);
            ensure(threads <= 1.0 || vs_serial >= 1.0, || {
                format!(
                    "fleet.vs_serial {vs_serial:.3} is below 1 with {threads} threads \
                     (fleet.secs {} vs timings.replay_serial_secs {})",
                    at(a, "fleet.secs").unwrap_or(&Value::Null),
                    at(a, "timings.replay_serial_secs").unwrap_or(&Value::Null)
                )
            })
        },
    },
    // Losing 4x to serial means the router itself is broken, whatever
    // the hardware.
    Gate {
        name: "the fleet loses at most 4x to one serial node",
        check: |a| at_least(a, "fleet.vs_serial", 0.25),
    },
    Gate {
        name: "the fleet fails no request",
        check: |a| at_most(a, "fleet.errors", 0.0),
    },
    Gate {
        name: "the retrain loop promotes, swaps and serves fresh answers",
        check: |a| holds(a, "retrain.loop_ok"),
    },
    Gate {
        name: "a dynamic device leaves built-in payloads unchanged",
        check: |a| holds(a, "dynamic_devices.builtin_parity"),
    },
    Gate {
        name: "calibration changes every calibration-keyed payload",
        check: |a| {
            let changed = num(a, "dynamic_devices.changed")?;
            let expected = num(a, "dynamic_devices.expected_changed")?;
            ensure(expected > 0.0 && changed == expected, || {
                format!(
                    "dynamic_devices.changed {changed} of dynamic_devices.expected_changed \
                     {expected} (all must change, and there must be some)"
                )
            })
        },
    },
    Gate {
        name: "calibration changes no other payload",
        check: |a| holds(a, "dynamic_devices.others_identical"),
    },
    Gate {
        name: "calibration invalidates cached entries",
        check: |a| above(a, "dynamic_devices.calibration.invalidated", 0.0),
    },
    Gate {
        name: "calibration fails no request",
        check: |a| at_most(a, "dynamic_devices.errors", 0.0),
    },
];

/// The value at a dotted key path of the artifact.
fn at<'a>(artifact: &'a Value, path: &str) -> Result<&'a Value, String> {
    path.split('.')
        .try_fold(artifact, |value, key| value.get(key))
        .ok_or_else(|| format!("{path} is missing"))
}

/// The number at `path`.
fn num(artifact: &Value, path: &str) -> Result<f64, String> {
    let value = at(artifact, path)?;
    value
        .as_f64()
        .ok_or_else(|| format!("{path} is {value}, not a number"))
}

/// Requires the number at `path` to exceed `limit`.
fn above(artifact: &Value, path: &str, limit: f64) -> Result<(), String> {
    let value = num(artifact, path)?;
    ensure(value > limit, || {
        format!("{path} is {value}, not above {limit}")
    })
}

/// Requires the number at `path` to be at least `limit`.
fn at_least(artifact: &Value, path: &str, limit: f64) -> Result<(), String> {
    let value = num(artifact, path)?;
    ensure(value >= limit, || {
        format!("{path} is {value}, below {limit}")
    })
}

/// Requires the number at `path` to be at most `limit`.
fn at_most(artifact: &Value, path: &str, limit: f64) -> Result<(), String> {
    let value = num(artifact, path)?;
    ensure(value <= limit, || {
        format!("{path} is {value}, above {limit}")
    })
}

/// Requires `path` to hold `true`.
fn holds(artifact: &Value, path: &str) -> Result<(), String> {
    let value = at(artifact, path)?;
    ensure(*value == Value::Bool(true), || format!("{path} is {value}"))
}

/// `Ok` when `ok` holds, else the message `failure` writes.
fn ensure(ok: bool, failure: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(failure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BENCH_SCHEMA_VERSION;
    use crate::report::{bench_eval_value, bench_serve_value, ThroughputReport};
    use crate::{EvalTiming, Evaluation};

    /// The committed default-scale artifact.
    const COMMITTED: &str = include_str!("../../../BENCH_serve.json");

    /// Replaces the value at a dotted key path.
    fn set(artifact: &mut Value, path: &str, value: Value) {
        let mut node = artifact;
        for key in path.split('.') {
            let Value::Object(pairs) = node else {
                panic!("{path} runs through a non-object");
            };
            node = pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{path} is missing"));
        }
        *node = value;
    }

    #[test]
    fn every_gate_reads_the_committed_artifact() {
        let artifact = serde_json::from_str(COMMITTED).expect("the committed artifact parses");
        for gate in GATES {
            assert_eq!((gate.check)(&artifact), Ok(()), "{}", gate.name);
        }
        // Each row fails once a value it reads is pushed past its
        // threshold, and says which value.
        let read = |path| num(&artifact, path).unwrap();
        let cases: Vec<(usize, &str, Value)> = vec![
            (0, "batched_equals_serial", false.into()),
            (1, "pipelined_equals_serial", false.into()),
            (2, "sharded.sharded_equals_serial", false.into()),
            (3, "cache.hit_rate", 0.0.into()),
            (4, "restart.payloads_identical", false.into()),
            (
                5,
                "restart.warmed.hit_rate",
                read("restart.cold.hit_rate").into(),
            ),
            (6, "restart.warmed.warm_hits", 0u64.into()),
            (7, "observability.payloads_identical", false.into()),
            (8, "observability.overhead_frac", 0.0501.into()),
            (9, "observability.stage_breakdown_frac", 0.899.into()),
            (10, "observability.trace.valid", false.into()),
            (10, "observability.trace.sampled_requests", 0u64.into()),
            (11, "fleet.payloads_identical", false.into()),
            (12, "fleet.locality_ok", false.into()),
            (
                13,
                "fleet.hit_rate",
                (read("fleet.single_node_hit_rate") - 1e-9).into(),
            ),
            (14, "fleet.vs_serial", 0.999.into()),
            (15, "fleet.vs_serial", 0.249.into()),
            (16, "fleet.errors", 1u64.into()),
            (17, "retrain.loop_ok", false.into()),
            (18, "dynamic_devices.builtin_parity", false.into()),
            (
                19,
                "dynamic_devices.changed",
                (read("dynamic_devices.expected_changed") - 1.0).into(),
            ),
            (19, "dynamic_devices.expected_changed", 0u64.into()),
            (20, "dynamic_devices.others_identical", false.into()),
            (21, "dynamic_devices.calibration.invalidated", 0u64.into()),
            (22, "dynamic_devices.errors", 1u64.into()),
        ];
        assert_eq!(GATES.len(), 23);
        for (row, gate) in GATES.iter().enumerate() {
            assert!(
                cases.iter().any(|(case, ..)| *case == row),
                "no case pushes `{}` past its threshold",
                gate.name
            );
        }
        for (row, path, value) in cases {
            let mut copy = artifact.clone();
            set(&mut copy, path, value);
            let message = (GATES[row].check)(&copy).expect_err(path);
            assert!(
                message.contains(path),
                "`{}` failed with `{message}`",
                GATES[row].name
            );
        }
        // The multi-core fleet row does not apply on one thread; the
        // 4x floor does.
        let mut single = artifact.clone();
        set(&mut single, "threads", 1u64.into());
        set(&mut single, "fleet.vs_serial", 0.5.into());
        for gate in GATES {
            assert_eq!((gate.check)(&single), Ok(()), "{}", gate.name);
        }

        // Assembling the arms' blocks gives back the artifact, schema
        // stamp and settings included, with every key in its place.
        let Value::Object(pairs) = artifact.clone() else {
            panic!("the artifact is an object");
        };
        let names = [
            "sharded",
            "restart",
            "observability",
            "fleet",
            "retrain",
            "dynamic_devices",
        ];
        let fields = pairs
            .iter()
            .filter(|(key, _)| !["benchmark", "schema_version", "settings"].contains(&key.as_str()))
            .filter(|(key, _)| !names.contains(&key.as_str()))
            .cloned()
            .collect();
        let mut blocks = vec![("replay", Value::Object(fields))];
        blocks.extend(names.map(|name| (name, artifact.get(name).unwrap().clone())));
        let settings = EvalSettings {
            verbose: false,
            ..EvalSettings::default()
        };
        let serve = bench_serve_value(blocks, &settings);
        assert_eq!(serde_json::to_string_pretty(&serve) + "\n", COMMITTED);

        // Both artifacts carry the schema version and name the device.
        let eval = bench_eval_value(
            &Evaluation {
                circuits: vec![],
                settings,
                timing: EvalTiming {
                    train_secs: 1.0,
                    score_secs: 0.5,
                },
            },
            &ThroughputReport {
                circuits: 10,
                threads: 4,
                serial_secs: 1.0,
                parallel_secs: 0.25,
                results_identical: true,
            },
        );
        for artifact in [&serve, &eval] {
            assert_eq!(
                at(artifact, "schema_version"),
                Ok(&Value::from(BENCH_SCHEMA_VERSION))
            );
            assert_eq!(
                at(artifact, "settings.device"),
                Ok(&Value::from("ibmq_washington"))
            );
        }

        // The per-shard block keeps its keys, in order, with `routed`
        // derived from the outcomes.
        let shard = ShardCounterSnapshot {
            shard: "fidelity/any/narrow".into(),
            counters: qrc_serve::ShardCounters {
                hits: 70,
                misses: 60,
                coalesced: 50,
                errors: 0,
            },
        };
        assert_eq!(
            serde_json::to_string(&shard.to_value()),
            r#"{"shard":"fidelity/any/narrow","routed":180,"hit":70,"miss":60,"coalesced":50,"errors":0}"#
        );
        for shard in at(&serve, "sharded.shards").unwrap().as_array().unwrap() {
            let keys: Vec<&str> = shard
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["shard", "routed", "hit", "miss", "coalesced", "errors"]
            );
        }
    }

    #[test]
    fn collate_counts_each_failed_request_once() {
        let reply = |line: &str| serde_json::from_str(line).unwrap();
        let (slots, failed) = collate(
            vec![
                reply(r#"{"id":"req-1","ok":true}"#),
                reply(r#"{"id":"req-0","ok":false,"error":"boom"}"#),
                reply(r#"{"id":null,"ok":false,"error":"overloaded"}"#),
            ],
            3,
        );
        assert_eq!(failed, 2);
        assert!(slots[0].is_some() && slots[1].is_some() && slots[2].is_none());
        // A missing reply fails its request; a duplicate is not placed.
        let (_, failed) = collate(
            vec![
                reply(r#"{"id":"req-0","ok":true}"#),
                reply(r#"{"id":"req-0","ok":true}"#),
            ],
            2,
        );
        assert_eq!(failed, 1);
    }
}
