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
use serde_json::Value;

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
/// `BENCH_eval.json`) from the serve arms' blocks in run order: the
/// `replay` arm's fields at the top level, every other arm's block under
/// its name, then the settings.
pub fn bench_serve_value(blocks: Vec<(&str, Value)>, settings: &EvalSettings) -> Value {
    let mut pairs = vec![
        (
            "benchmark".to_string(),
            Value::from("qrc-serve traffic replay"),
        ),
        (
            "schema_version".to_string(),
            Value::from(BENCH_SCHEMA_VERSION),
        ),
    ];
    for (arm, block) in blocks {
        match block {
            Value::Object(fields) if arm == "replay" => pairs.extend(fields),
            block => pairs.push((arm.to_string(), block)),
        }
    }
    pairs.push(("settings".to_string(), settings_value(settings)));
    Value::Object(pairs)
}

/// Writes a `BENCH_serve.json` payload to `path`.
pub fn write_bench_serve_json(path: &std::path::Path, artifact: &Value) -> std::io::Result<()> {
    std::fs::write(path, serde_json::to_string_pretty(artifact) + "\n")
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
}
