//! Machine-readable performance reporting for the evaluation harness.
//!
//! [`measure_throughput`] times the scoring phase twice — serial, then
//! rayon-parallel — over the same trained models, verifies the two
//! result sets are identical (the parallel path must only change
//! wall-clock, never output), and [`write_bench_eval_json`] persists
//! the numbers as `BENCH_eval.json` so every future PR can compare its
//! perf trajectory against a measured baseline.

use std::time::Instant;

use qrc_circuit::QuantumCircuit;
use qrc_device::Device;
use qrc_predictor::TrainedPredictor;
use qrc_serve::ShardCounterSnapshot;
use serde_json::Value;

use crate::serve_bench::ServeBenchReport;
use crate::{score_suite, CircuitEval, EvalSettings, Evaluation};

/// Schema version shared by every `BENCH_*.json` artifact this harness
/// writes (`BENCH_eval.json`, `BENCH_serve.json`). Bump when any field
/// is renamed, removed, or changes meaning, so downstream perf
/// trajectories can detect incompatible reports.
///
/// v3: serve latency percentiles switched to honest per-request
/// accounting (coalesced duplicates and cache hits no longer re-report
/// compute time), and the serve report grew a pipelined socket replay
/// arm (`replay_pipelined_secs`, `requests_per_sec_pipelined`,
/// `pipelined_vs_batched`, `pipelined_equals_serial`).
///
/// v4: the serve report grew the sharded-vs-monolithic arm (`sharded`
/// block: per-shard route/hit/miss counters, fallback-level counts,
/// `sharded_equals_serial`, `vs_monolithic`) and `pipelined_port` (the
/// loopback port the socket arm actually bound — busy requested ports
/// retry on an ephemeral port instead of silently skipping the arm).
///
/// v5: the serve report grew the restart-warmup arm (`restart` block:
/// cold-restart vs snapshot-warmed-restart hit rates and timings over
/// the same skewed mix, `warm_hits` on pre-warmed entries,
/// `snapshot_entries`, and `payloads_identical` across the
/// never-restarted/cold/warmed replays).
///
/// v6: the serve report grew a cold-cache arm comparing the
/// service's inference engines on an all-miss mix (removed in v11).
///
/// v7: the serve report grew the observability arm (`observability`
/// block: the all-miss mix replayed through the queued front-end path
/// with the full observability surface — global profiler + 1-in-N span
/// sampling — on vs off; `overhead_frac`, `payloads_identical`, trace
/// sink stats, and a per-stage latency breakdown reconciled against
/// the mean reported miss latency), and `latency_us` gained
/// `p999`/`min`/`max` from the log-bucketed histogram.
///
/// v8: the serve report grew the dynamic-device arm (`dynamic_devices`
/// block: a runtime-registered device joins the built-ins, the arm-1
/// mix extended with requests pinned to it replays before and after a
/// live calibration swap; `builtin_parity` against the arm-1 serial
/// payloads, `calibration` generation/invalidation counters,
/// `changed`/`expected_changed` over the calibration-keyed payloads,
/// `others_identical`, and `errors`).
///
/// v9: the serve report grew the fleet arm (`fleet` block: the arm-1
/// mix streamed through the `qrc-lb` consistent-hash router over
/// three in-process socket replicas at matched total cache capacity;
/// `payloads_identical` against the serial replay by request id,
/// aggregate effective `hit_rate` (1 − misses/requests, so in-batch
/// coalescing counts) vs the `single_node_hit_rate` baseline,
/// `locality_ok` — every routed key on exactly one replica —
/// `round_robin`/`rerouted`/`errors` counters, throughput vs the
/// serial arm, and a nested per-replica `replicas` array with each
/// replica's routed/completed and cache counters).
///
/// v10: the serve report grew the closed-loop retrain arm (`retrain`
/// block: deliberately weak checkpoints serve a skewed, traffic-logged
/// mix, `qrc-retrain`'s offline flow fine-tunes the traffic-bearing
/// shard on the frequency-weighted logged head with the
/// action-diversity entropy bonus, and the promotion gate replays
/// held-out logged traffic; `promoted`/`rejected`/`skipped` counters,
/// incumbent-vs-candidate `head`/`holdout` reward pairs with
/// `head_improvement`, the `entropy` floor and the candidate's
/// rollout entropy, live-swap counters — `swap_served`/`swap_failed`
/// across the under-load `reload()` — `payloads_identical` against a
/// fresh serial service on the promoted checkpoints,
/// before/after served-reward means, and the aggregate `loop_ok`
/// gate).
///
/// v11: the v6 inference-engine block is gone (the service computes
/// every miss with one engine, so there is nothing left to compare),
/// and `settings.device` holds the device name (`ibmq_washington`)
/// instead of its Rust debug form.
pub const BENCH_SCHEMA_VERSION: u64 = 11;

/// Wall-clock comparison of the serial vs parallel scoring paths.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Number of circuits scored per pass.
    pub circuits: usize,
    /// Worker threads used by the parallel pass.
    pub threads: usize,
    /// Serial scoring wall-clock (seconds).
    pub serial_secs: f64,
    /// Parallel scoring wall-clock (seconds).
    pub parallel_secs: f64,
    /// `true` iff both passes produced identical results.
    pub results_identical: bool,
}

impl ThroughputReport {
    /// Circuits per second of the parallel pass.
    pub fn circuits_per_sec(&self) -> f64 {
        self.circuits as f64 / self.parallel_secs.max(1e-12)
    }

    /// Serial wall-clock divided by parallel wall-clock.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-12)
    }
}

/// Scores the suite serially and in parallel with identical per-task
/// seeds, timing both passes and comparing their outputs.
pub fn measure_throughput(
    suite: &[QuantumCircuit],
    models: &[TrainedPredictor],
    device: &Device,
    master_seed: u64,
) -> (ThroughputReport, Vec<CircuitEval>) {
    let serial_start = Instant::now();
    let serial = score_suite(suite, models, device, master_seed, false);
    let serial_secs = serial_start.elapsed().as_secs_f64();

    let parallel_start = Instant::now();
    let parallel = score_suite(suite, models, device, master_seed, true);
    let parallel_secs = parallel_start.elapsed().as_secs_f64();

    let report = ThroughputReport {
        circuits: suite.len(),
        threads: rayon::current_num_threads(),
        serial_secs,
        parallel_secs,
        results_identical: serial == parallel,
    };
    (report, parallel)
}

/// Builds the `BENCH_eval.json` payload.
pub fn bench_eval_value(eval: &Evaluation, throughput: &ThroughputReport) -> Value {
    let settings = settings_value(&eval.settings);
    Value::object(vec![
        ("benchmark", Value::from("qrc-bench evaluation harness")),
        ("schema_version", Value::from(BENCH_SCHEMA_VERSION)),
        ("circuits", Value::from(throughput.circuits)),
        ("threads", Value::from(throughput.threads)),
        (
            "timings",
            Value::object(vec![
                ("train_secs", Value::from(eval.timing.train_secs)),
                ("score_serial_secs", Value::from(throughput.serial_secs)),
                ("score_parallel_secs", Value::from(throughput.parallel_secs)),
                (
                    "total_secs",
                    Value::from(eval.timing.train_secs + throughput.parallel_secs),
                ),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                (
                    "circuits_per_sec_serial",
                    Value::from(throughput.circuits as f64 / throughput.serial_secs.max(1e-12)),
                ),
                (
                    "circuits_per_sec_parallel",
                    Value::from(throughput.circuits_per_sec()),
                ),
                ("speedup_vs_serial", Value::from(throughput.speedup())),
            ]),
        ),
        (
            "parallel_equals_serial",
            Value::from(throughput.results_identical),
        ),
        ("settings", settings),
    ])
}

fn settings_value(settings: &EvalSettings) -> Value {
    Value::object(vec![
        ("max_qubits", Value::from(settings.max_qubits)),
        ("timesteps", Value::from(settings.timesteps)),
        ("device", Value::from(settings.device.name())),
        ("seed", Value::from(settings.seed)),
        ("step_penalty", Value::from(settings.step_penalty)),
    ])
}

/// Writes the `BENCH_eval.json` payload to `path`.
pub fn write_bench_eval_json(
    path: &std::path::Path,
    eval: &Evaluation,
    throughput: &ThroughputReport,
) -> std::io::Result<()> {
    let payload = bench_eval_value(eval, throughput);
    std::fs::write(path, serde_json::to_string_pretty(&payload) + "\n")
}

/// Builds the `BENCH_serve.json` payload (same schema version as
/// `BENCH_eval.json`).
pub fn bench_serve_value(report: &ServeBenchReport, settings: &EvalSettings) -> Value {
    Value::object(vec![
        ("benchmark", Value::from("qrc-serve traffic replay")),
        ("schema_version", Value::from(BENCH_SCHEMA_VERSION)),
        ("requests", Value::from(report.requests)),
        ("batch_size", Value::from(report.batch_size)),
        ("threads", Value::from(report.threads)),
        (
            "timings",
            Value::object(vec![
                ("train_secs", Value::from(report.train_secs)),
                ("replay_serial_secs", Value::from(report.serial_secs)),
                ("replay_batched_secs", Value::from(report.batched_secs)),
                ("replay_pipelined_secs", Value::from(report.pipelined_secs)),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                (
                    "requests_per_sec_serial",
                    Value::from(report.requests_per_sec_serial()),
                ),
                (
                    "requests_per_sec_batched",
                    Value::from(report.requests_per_sec()),
                ),
                (
                    "requests_per_sec_pipelined",
                    Value::from(report.requests_per_sec_pipelined()),
                ),
                ("speedup_vs_serial", Value::from(report.speedup())),
                (
                    "pipelined_vs_batched",
                    Value::from(report.pipelined_speedup()),
                ),
            ]),
        ),
        (
            "cache",
            Value::object(vec![
                ("hits", Value::from(report.hits)),
                ("misses", Value::from(report.misses)),
                ("hit_rate", Value::from(report.hit_rate)),
            ]),
        ),
        (
            "latency_us",
            Value::object(vec![
                ("p50", Value::from(report.p50_us)),
                ("p99", Value::from(report.p99_us)),
                ("p999", Value::from(report.p999_us)),
                ("min", Value::from(report.min_us)),
                ("max", Value::from(report.max_us)),
            ]),
        ),
        ("errors", Value::from(report.errors)),
        ("batched_equals_serial", Value::from(report.identical)),
        (
            "pipelined_equals_serial",
            Value::from(report.pipelined_identical),
        ),
        (
            "pipelined_port",
            Value::from(u64::from(report.pipelined_port)),
        ),
        ("sharded", sharded_value(report)),
        ("restart", restart_value(report)),
        ("observability", observability_value(report)),
        ("fleet", fleet_value(report)),
        ("retrain", retrain_value(report)),
        ("dynamic_devices", dynamic_devices_value(report)),
        ("settings", settings_value(settings)),
    ])
}

/// The fleet block of `BENCH_serve.json`: the consistent-hash router
/// over a warm replica fleet, gated on payload parity, cache
/// locality, and zero lost requests.
fn fleet_value(report: &ServeBenchReport) -> Value {
    let replicas: Vec<Value> = report
        .fleet_stats
        .iter()
        .map(|replica| {
            Value::object(vec![
                ("addr", Value::from(replica.addr.clone())),
                ("routed", Value::from(replica.routed)),
                ("completed", Value::from(replica.completed)),
                ("rerouted", Value::from(replica.rerouted)),
                ("ejections", Value::from(replica.ejections)),
                ("hits", Value::from(replica.hits)),
                ("misses", Value::from(replica.misses)),
            ])
        })
        .collect();
    Value::object(vec![
        ("replicas_count", Value::from(report.fleet_replicas)),
        ("requests", Value::from(report.fleet_requests)),
        ("secs", Value::from(report.fleet_secs)),
        (
            "requests_per_sec",
            Value::from(report.requests_per_sec_fleet()),
        ),
        ("vs_serial", Value::from(report.fleet_vs_serial())),
        ("payloads_identical", Value::from(report.fleet_identical)),
        ("hits", Value::from(report.fleet_hits)),
        ("misses", Value::from(report.fleet_misses)),
        ("hit_rate", Value::from(report.fleet_hit_rate)),
        (
            "single_node_hit_rate",
            Value::from(report.fleet_single_hit_rate),
        ),
        ("locality_ok", Value::from(report.fleet_locality_ok)),
        ("errors", Value::from(report.fleet_errors)),
        ("rerouted", Value::from(report.fleet_rerouted)),
        ("round_robin", Value::from(report.fleet_round_robin)),
        ("replicas", Value::Array(replicas)),
    ])
}

/// The retrain block of `BENCH_serve.json`: the closed training loop —
/// serve → log → curriculum fine-tune → promotion gate → live reload
/// under load — gated on a strict head improvement, no held-out
/// regression, action diversity above the entropy floor, a zero-failure
/// swap, and byte-identical post-swap payloads.
fn retrain_value(report: &ServeBenchReport) -> Value {
    Value::object(vec![
        ("requests", Value::from(report.retrain_requests)),
        (
            "shards_considered",
            Value::from(report.retrain_shards_considered),
        ),
        ("skipped", Value::from(report.retrain_skipped)),
        ("candidates", Value::from(report.retrain_candidates)),
        ("promoted", Value::from(report.retrain_promoted)),
        ("rejected", Value::from(report.retrain_rejected)),
        (
            "head",
            Value::object(vec![
                (
                    "incumbent_reward",
                    Value::from(report.retrain_incumbent_head_reward),
                ),
                (
                    "candidate_reward",
                    Value::from(report.retrain_candidate_head_reward),
                ),
                (
                    "improvement",
                    Value::from(report.retrain_head_improvement()),
                ),
            ]),
        ),
        (
            "holdout",
            Value::object(vec![
                (
                    "incumbent_reward",
                    Value::from(report.retrain_incumbent_holdout_reward),
                ),
                (
                    "candidate_reward",
                    Value::from(report.retrain_candidate_holdout_reward),
                ),
            ]),
        ),
        (
            "entropy",
            Value::object(vec![
                ("floor", Value::from(report.retrain_entropy_floor)),
                ("candidate", Value::from(report.retrain_candidate_entropy)),
            ]),
        ),
        ("secs", Value::from(report.retrain_secs)),
        ("swap_served", Value::from(report.retrain_swap_served)),
        ("swap_failed", Value::from(report.retrain_swap_failed)),
        ("payloads_identical", Value::from(report.retrain_identical)),
        (
            "served_reward",
            Value::object(vec![
                ("before", Value::from(report.retrain_before_mean_reward)),
                ("after", Value::from(report.retrain_after_mean_reward)),
            ]),
        ),
        ("loop_ok", Value::from(report.retrain_loop_ok())),
    ])
}

/// The dynamic-device block of `BENCH_serve.json`: a runtime-registered
/// device replayed before and after a live calibration swap, with the
/// built-in-parity gate and the selective-invalidation counters.
fn dynamic_devices_value(report: &ServeBenchReport) -> Value {
    Value::object(vec![
        ("requests", Value::from(report.dyn_requests)),
        ("device", Value::from(report.dyn_device.clone())),
        ("seed_tag", Value::from(report.dyn_seed_tag)),
        ("before_secs", Value::from(report.dyn_before_secs)),
        ("after_secs", Value::from(report.dyn_after_secs)),
        ("builtin_parity", Value::from(report.dyn_builtin_parity)),
        (
            "calibration",
            Value::object(vec![
                ("generation", Value::from(report.dyn_calibration_generation)),
                ("invalidated", Value::from(report.dyn_invalidated)),
            ]),
        ),
        ("changed", Value::from(report.dyn_changed)),
        ("expected_changed", Value::from(report.dyn_expected_changed)),
        ("others_identical", Value::from(report.dyn_others_identical)),
        ("errors", Value::from(report.dyn_errors)),
    ])
}

/// The observability block of `BENCH_serve.json`: the cost of the full
/// observability surface (profiler + span sampling) over the all-miss
/// mix, plus the per-stage latency breakdown reconciled against the
/// mean reported miss latency.
fn observability_value(report: &ServeBenchReport) -> Value {
    Value::object(vec![
        ("requests", Value::from(report.obs_requests)),
        ("trace_sample", Value::from(report.obs_trace_sample)),
        ("disabled_secs", Value::from(report.obs_disabled_secs)),
        ("enabled_secs", Value::from(report.obs_enabled_secs)),
        ("overhead_frac", Value::from(report.obs_overhead_frac())),
        ("payloads_identical", Value::from(report.obs_identical)),
        (
            "trace",
            Value::object(vec![
                ("sampled_requests", Value::from(report.obs_sampled_requests)),
                ("events", Value::from(report.obs_trace_events)),
                ("valid", Value::from(report.obs_trace_valid)),
            ]),
        ),
        ("mean_miss_us", Value::from(report.obs_mean_miss_us)),
        (
            "stage_means_us",
            Value::object(vec![
                ("parse", Value::from(report.obs_parse_mean_us)),
                ("admission", Value::from(report.obs_admission_mean_us)),
                ("compute", Value::from(report.obs_compute_mean_us)),
                ("profile_drilldown", Value::from(report.obs_profile_mean_us)),
            ]),
        ),
        (
            "stage_breakdown_frac",
            Value::from(report.obs_breakdown_frac()),
        ),
    ])
}

/// The restart-warmup block of `BENCH_serve.json`: cold restart vs
/// snapshot-warmed restart over the same skewed mix.
fn restart_value(report: &ServeBenchReport) -> Value {
    Value::object(vec![
        ("requests", Value::from(report.restart_requests)),
        ("snapshot_entries", Value::from(report.snapshot_entries)),
        (
            "cold",
            Value::object(vec![
                ("replay_secs", Value::from(report.cold_restart_secs)),
                ("hits", Value::from(report.cold_hits)),
                ("misses", Value::from(report.cold_misses)),
                ("hit_rate", Value::from(report.cold_hit_rate)),
            ]),
        ),
        (
            "warmed",
            Value::object(vec![
                ("replay_secs", Value::from(report.warmed_restart_secs)),
                ("hits", Value::from(report.warmed_hits)),
                ("misses", Value::from(report.warmed_misses)),
                ("hit_rate", Value::from(report.warmed_hit_rate)),
                ("warm_hits", Value::from(report.warm_hits)),
            ]),
        ),
        ("warmed_vs_cold", Value::from(report.warmed_vs_cold())),
        ("payloads_identical", Value::from(report.restart_identical)),
    ])
}

/// The sharded-vs-monolithic block of `BENCH_serve.json`: timings and
/// identity over the multi-device width-skewed mix, plus per-shard
/// route/hit/miss counters and fallback-level counts.
fn sharded_value(report: &ServeBenchReport) -> Value {
    Value::object(vec![
        ("requests", Value::from(report.sharded_requests)),
        ("train_extra_secs", Value::from(report.shard_train_secs)),
        (
            "replay_serial_secs",
            Value::from(report.sharded_serial_secs),
        ),
        ("replay_batched_secs", Value::from(report.sharded_secs)),
        (
            "monolithic_batched_secs",
            Value::from(report.monolithic_secs),
        ),
        (
            "requests_per_sec",
            Value::from(report.requests_per_sec_sharded()),
        ),
        ("vs_monolithic", Value::from(report.sharded_vs_monolithic())),
        (
            "sharded_equals_serial",
            Value::from(report.sharded_identical),
        ),
        ("routes", report.route_counts.to_value()),
        (
            "shards",
            Value::Array(
                report
                    .shard_stats
                    .iter()
                    .map(ShardCounterSnapshot::to_value)
                    .collect(),
            ),
        ),
    ])
}

/// Writes the `BENCH_serve.json` payload to `path`.
pub fn write_bench_serve_json(
    path: &std::path::Path,
    report: &ServeBenchReport,
    settings: &EvalSettings,
) -> std::io::Result<()> {
    let payload = bench_serve_value(report, settings);
    std::fs::write(path, serde_json::to_string_pretty(&payload) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalTiming;

    #[test]
    fn payload_has_required_keys() {
        let eval = Evaluation {
            circuits: vec![],
            settings: EvalSettings {
                verbose: false,
                ..EvalSettings::default()
            },
            timing: EvalTiming {
                train_secs: 1.5,
                score_secs: 0.5,
            },
        };
        let throughput = ThroughputReport {
            circuits: 10,
            threads: 4,
            serial_secs: 1.0,
            parallel_secs: 0.25,
            results_identical: true,
        };
        let text = serde_json::to_string_pretty(&bench_eval_value(&eval, &throughput));
        for key in [
            "schema_version",
            "circuits_per_sec_parallel",
            "speedup_vs_serial",
            "score_serial_secs",
            "score_parallel_secs",
            "train_secs",
            "parallel_equals_serial",
            "threads",
        ] {
            assert!(text.contains(key), "missing `{key}` in:\n{text}");
        }
        assert!((throughput.speedup() - 4.0).abs() < 1e-9);
        assert!((throughput.circuits_per_sec() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn serve_payload_shares_schema_version() {
        let report = ServeBenchReport {
            requests: 400,
            batch_size: 32,
            threads: 4,
            train_secs: 10.0,
            serial_secs: 2.0,
            batched_secs: 0.5,
            pipelined_secs: 0.25,
            pipelined_port: 17643,
            identical: true,
            pipelined_identical: true,
            hits: 120,
            misses: 280,
            hit_rate: 0.3,
            errors: 0,
            p50_us: 900,
            p99_us: 4200,
            p999_us: 5100,
            min_us: 12,
            max_us: 5200,
            shard_train_secs: 5.0,
            sharded_requests: 400,
            sharded_serial_secs: 2.5,
            sharded_secs: 0.4,
            monolithic_secs: 0.5,
            sharded_identical: true,
            shard_stats: vec![ShardCounterSnapshot {
                shard: "fidelity/any/narrow".into(),
                counters: qrc_serve::ShardCounters {
                    hits: 70,
                    misses: 60,
                    coalesced: 50,
                    errors: 0,
                },
            }],
            route_counts: qrc_serve::RouteCounts {
                exact: 180,
                band_wildcard: 20,
                device_wildcard: 0,
                objective_only: 200,
            },
            restart_requests: 400,
            snapshot_entries: 130,
            cold_restart_secs: 0.5,
            warmed_restart_secs: 0.1,
            cold_hit_rate: 0.3,
            cold_hits: 120,
            cold_misses: 280,
            warmed_hit_rate: 1.0,
            warmed_hits: 400,
            warmed_misses: 0,
            warm_hits: 390,
            restart_identical: true,
            obs_requests: 36,
            obs_trace_sample: 4,
            obs_disabled_secs: 0.4,
            obs_enabled_secs: 0.41,
            obs_identical: true,
            obs_sampled_requests: 9,
            obs_trace_events: 36,
            obs_trace_valid: true,
            obs_mean_miss_us: 10_000.0,
            obs_parse_mean_us: 40.0,
            obs_admission_mean_us: 60.0,
            obs_compute_mean_us: 9_700.0,
            obs_profile_mean_us: 9_000.0,
            fleet_replicas: 3,
            fleet_requests: 400,
            fleet_secs: 0.2,
            fleet_identical: true,
            fleet_hits: 130,
            fleet_misses: 270,
            fleet_hit_rate: 0.325,
            fleet_single_hit_rate: 0.3,
            fleet_locality_ok: true,
            fleet_errors: 0,
            fleet_rerouted: 0,
            fleet_round_robin: 0,
            fleet_stats: vec![crate::serve_bench::FleetReplicaStat {
                addr: "127.0.0.1:41001".into(),
                routed: 140,
                completed: 140,
                rerouted: 0,
                ejections: 0,
                hits: 45,
                misses: 95,
            }],
            retrain_requests: 22,
            retrain_shards_considered: 3,
            retrain_skipped: 2,
            retrain_candidates: 1,
            retrain_promoted: 1,
            retrain_rejected: 0,
            retrain_incumbent_head_reward: 0.0,
            retrain_candidate_head_reward: 0.97,
            retrain_incumbent_holdout_reward: 0.0,
            retrain_candidate_holdout_reward: 0.95,
            retrain_entropy_floor: 0.05,
            retrain_candidate_entropy: 1.8,
            retrain_secs: 3.0,
            retrain_swap_served: 48,
            retrain_swap_failed: 0,
            retrain_identical: true,
            retrain_before_mean_reward: 0.0,
            retrain_after_mean_reward: 0.9,
            dyn_requests: 436,
            dyn_device: "bench_dyn_ring_12".into(),
            dyn_seed_tag: 6,
            dyn_before_secs: 0.5,
            dyn_after_secs: 0.2,
            dyn_builtin_parity: true,
            dyn_calibration_generation: 1,
            dyn_invalidated: 24,
            dyn_changed: 24,
            dyn_expected_changed: 24,
            dyn_others_identical: true,
            dyn_errors: 0,
        };
        let settings = EvalSettings {
            verbose: false,
            ..EvalSettings::default()
        };
        let serve = bench_serve_value(&report, &settings);
        // The per-shard block keeps its keys, in order, with `routed`
        // derived from the outcomes.
        let shards = serve.get("sharded").and_then(|s| s.get("shards"));
        assert_eq!(
            serde_json::to_string(&shards.and_then(|s| s.as_array()).unwrap()[0]),
            r#"{"shard":"fidelity/any/narrow","routed":180,"hit":70,"miss":60,"coalesced":50,"errors":0}"#
        );
        let serve_text = serde_json::to_string_pretty(&serve);
        for key in [
            "schema_version",
            "requests_per_sec_batched",
            "requests_per_sec_serial",
            "requests_per_sec_pipelined",
            "replay_pipelined_secs",
            "speedup_vs_serial",
            "pipelined_vs_batched",
            "hit_rate",
            "batched_equals_serial",
            "pipelined_equals_serial",
            "pipelined_port",
            "sharded",
            "sharded_equals_serial",
            "vs_monolithic",
            "fidelity/any/narrow",
            "band_wildcard",
            "objective_only",
            "restart",
            "snapshot_entries",
            "warm_hits",
            "warmed_vs_cold",
            "payloads_identical",
            "p99",
            "p999",
            "observability",
            "overhead_frac",
            "trace_sample",
            "sampled_requests",
            "mean_miss_us",
            "stage_means_us",
            "profile_drilldown",
            "stage_breakdown_frac",
            "fleet",
            "replicas_count",
            "single_node_hit_rate",
            "locality_ok",
            "round_robin",
            "127.0.0.1:41001",
            "retrain",
            "shards_considered",
            "head",
            "holdout",
            "incumbent_reward",
            "candidate_reward",
            "improvement",
            "entropy",
            "floor",
            "swap_served",
            "swap_failed",
            "served_reward",
            "loop_ok",
            "dynamic_devices",
            "bench_dyn_ring_12",
            "seed_tag",
            "builtin_parity",
            "expected_changed",
            "others_identical",
            "invalidated",
        ] {
            assert!(
                serve_text.contains(key),
                "missing `{key}` in:\n{serve_text}"
            );
        }
        let marker = format!("\"schema_version\": {BENCH_SCHEMA_VERSION}");
        assert!(serve_text.contains(&marker));
        let eval = Evaluation {
            circuits: vec![],
            settings,
            timing: EvalTiming {
                train_secs: 1.0,
                score_secs: 0.5,
            },
        };
        let throughput = ThroughputReport {
            circuits: 10,
            threads: 4,
            serial_secs: 1.0,
            parallel_secs: 0.25,
            results_identical: true,
        };
        let eval_text = serde_json::to_string_pretty(&bench_eval_value(&eval, &throughput));
        assert!(
            eval_text.contains(&marker),
            "BENCH_eval and BENCH_serve must share one schema version"
        );
        // Both artifacts name the device, never its Rust debug form.
        for text in [&serve_text, &eval_text] {
            assert!(text.contains("\"device\": \"ibmq_washington\""), "{text}");
            assert!(!text.contains("DeviceId("), "{text}");
        }
        assert!((report.speedup() - 4.0).abs() < 1e-9);
        assert!((report.requests_per_sec() - 800.0).abs() < 1e-9);
        assert!((report.retrain_head_improvement() - 0.97).abs() < 1e-9);
        assert!(report.retrain_loop_ok());
        assert!((report.requests_per_sec_pipelined() - 1600.0).abs() < 1e-9);
        assert!((report.pipelined_speedup() - 2.0).abs() < 1e-9);
        assert!((report.requests_per_sec_sharded() - 1000.0).abs() < 1e-9);
        assert!((report.sharded_vs_monolithic() - 1.25).abs() < 1e-9);
        assert!((report.warmed_vs_cold() - 5.0).abs() < 1e-9);
        assert!((report.obs_overhead_frac() - 0.025).abs() < 1e-9);
        assert!((report.obs_breakdown_frac() - 0.98).abs() < 1e-9);
        assert!((report.requests_per_sec_fleet() - 2000.0).abs() < 1e-9);
        assert!((report.fleet_vs_serial() - 10.0).abs() < 1e-9);
        assert!(report.dyn_recalibration_ok());
    }
}
