//! Latency-accounting regression tests: the serve metrics must report
//! each request's *own* cost.
//!
//! Two historic bugs are pinned here:
//!
//! 1. coalesced duplicates re-reported the miss's full compute time,
//!    so a batch of N duplicates added the rollout to the latency
//!    ledger N times (inflating mean/p50/p99), and
//! 2. cache hits and admission errors reported `micros: 0` on the
//!    batch path while `handle_line` measured honestly, collapsing p50
//!    toward zero at high hit rates.

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind};
use qrc_rl::PpoConfig;
use qrc_serve::{
    CacheStatus, CompilationService, ModelRegistry, ServeRequest, ServiceConfig, Stage,
};

fn tiny_models() -> Vec<qrc_predictor::TrainedPredictor> {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
    RewardKind::ALL
        .into_iter()
        .map(|reward| {
            let config = PredictorConfig {
                reward,
                total_timesteps: 1200,
                ppo: PpoConfig {
                    steps_per_update: 128,
                    minibatch_size: 32,
                    epochs: 4,
                    hidden: vec![24],
                    learning_rate: 1e-3,
                    ..PpoConfig::default()
                },
                seed: 5,
                step_penalty: 0.005,
            };
            train(suite.clone(), &config)
        })
        .collect()
}

fn quiet_service() -> CompilationService {
    CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &ServiceConfig {
            verbose: false,
            ..ServiceConfig::default()
        },
    )
}

/// A wide-enough circuit that the policy rollout (milliseconds)
/// dominates QASM parsing (microseconds) by a comfortable margin.
fn heavy_qasm() -> String {
    qrc_circuit::qasm::to_qasm(&BenchmarkFamily::Ghz.generate(5))
}

fn duplicates(n: usize) -> Vec<ServeRequest> {
    let text = heavy_qasm();
    (0..n)
        .map(|i| {
            let mut r = ServeRequest::new(text.clone());
            r.id = Some(format!("dup-{i}"));
            r
        })
        .collect()
}

#[test]
fn coalesced_duplicates_do_not_rereport_the_miss_compute_time() {
    let service = quiet_service();
    let responses = service.handle_batch(&duplicates(8));
    let status = |i: usize| responses[i].result.as_ref().unwrap().1;
    assert_eq!(status(0), CacheStatus::Miss);
    let miss_us = responses[0].micros;
    assert!(miss_us > 0, "the miss carries its compute time");
    for response in &responses[1..] {
        assert_eq!(response.result.as_ref().unwrap().1, CacheStatus::Coalesced);
        // Regression: each coalesced response used to copy `miss_us`
        // verbatim. Its own cost is admission only — far below the
        // rollout it coalesced onto.
        assert!(
            response.micros < miss_us / 2,
            "coalesced {}µs should be well under the miss's {miss_us}µs",
            response.micros
        );
    }
    // The ledger holds ~one rollout, not eight: the sum of all eight
    // latencies stays far below what double-counting produced (8×).
    let sum: u64 = responses.iter().map(|r| r.micros).sum();
    assert!(
        sum < 4 * miss_us,
        "latency sum {sum}µs must not approach 8 × {miss_us}µs"
    );

    // The struct path (`handle_batch`) honors the ≥1µs floor too: a
    // replay of the same batch is all cache hits, yet none records 0.
    let hits = service.handle_batch(&duplicates(8));
    for response in &hits {
        assert_eq!(response.result.as_ref().unwrap().1, CacheStatus::Hit);
        assert!(response.micros >= 1, "hits must never record micros 0");
    }
}

/// The latency ledger's exact `(count, sum)` in microseconds, read from
/// the service's Prometheus exposition.
fn latency_ledger(service: &CompilationService) -> (u64, u64) {
    let text = service.metrics_text();
    let read = |series: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{series} missing from the exposition"))
    };
    (
        read("qrc_request_duration_microseconds_count"),
        read("qrc_request_duration_microseconds_sum"),
    )
}

#[test]
fn duplicate_batches_add_the_rollout_to_the_ledger_once() {
    // 100% duplicate traffic at two batch widths, checked exactly per
    // batch rather than by comparing wall-clock means across services:
    // one miss owns the rollout, the N − 1 duplicates coalesce onto it,
    // the compute stage holds one sample, and the ledger holds exactly
    // the N replies. Every reply's own cost is its admission time
    // (floored at 1 µs), so the ledger minus the one rollout lies within
    // N µs of the admission stage's sum. The old double-counting, which
    // copied the rollout into every duplicate's reply, adds it N − 1
    // more times.
    for n in [4usize, 32] {
        let service = quiet_service();
        let responses = service.handle_batch(&duplicates(n));
        let statuses: Vec<CacheStatus> = responses
            .iter()
            .map(|r| r.result.as_ref().unwrap().1)
            .collect();
        assert_eq!(statuses[0], CacheStatus::Miss, "N = {n}");
        assert!(
            statuses[1..].iter().all(|s| *s == CacheStatus::Coalesced),
            "N = {n}: {statuses:?}"
        );

        let compute = service.stage_histogram(Stage::Compute);
        assert_eq!(compute.count(), 1, "N = {n}: one rollout, one sample");
        let admission = service.stage_histogram(Stage::Admission);
        assert_eq!(admission.count(), n as u64, "N = {n}");

        let replied: u64 = responses.iter().map(|r| r.micros).sum();
        let (count, sum) = latency_ledger(&service);
        assert_eq!(
            (count, sum),
            (n as u64, replied),
            "N = {n}: ledger vs replies"
        );
        let own = sum - compute.sum();
        assert!(
            (admission.sum()..=admission.sum() + n as u64).contains(&own),
            "N = {n}: ledger {sum} µs minus the rollout {} µs is {own} µs, \
             but admission took {} µs",
            compute.sum(),
            admission.sum()
        );
    }
}

#[test]
fn hits_and_errors_record_real_latency_on_the_batch_path() {
    let service = quiet_service();
    let good = format!(
        r#"{{"id":"h","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(heavy_qasm()))
    );
    // Seed the cache, then replay the same line plus a parse error in
    // one batch.
    service.handle_lines(std::slice::from_ref(&good));
    let replies = service.handle_lines(&[good, "{not json".to_string()]);

    let hit = serde_json::from_str(&replies[0]).unwrap();
    assert_eq!(hit.get("cache").unwrap().as_str(), Some("hit"));
    let hit_us = hit.get("micros").unwrap().as_u64().unwrap();
    assert!(hit_us > 0, "batch-path hits must report real wall-clock");

    let err = serde_json::from_str(&replies[1]).unwrap();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        err.get("micros").unwrap().as_u64().unwrap() > 0,
        "batch-path errors must report real wall-clock"
    );
}

#[test]
fn single_line_and_batch_paths_agree_on_hit_latency() {
    // Both paths serve the same cached request; both must report real,
    // same-order-of-magnitude wall-clock (parse + admission), and both
    // must sit far below a fresh rollout.
    let service = quiet_service();
    let good = format!(
        r#"{{"id":"agree","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(heavy_qasm()))
    );
    let miss = serde_json::from_str(&service.handle_line(&good)).unwrap();
    let miss_us = miss.get("micros").unwrap().as_u64().unwrap();

    let single = serde_json::from_str(&service.handle_line(&good)).unwrap();
    assert_eq!(single.get("cache").unwrap().as_str(), Some("hit"));
    let single_us = single.get("micros").unwrap().as_u64().unwrap();

    let batch_reply = &service.handle_lines(std::slice::from_ref(&good))[0];
    let batch = serde_json::from_str(batch_reply).unwrap();
    assert_eq!(batch.get("cache").unwrap().as_str(), Some("hit"));
    let batch_us = batch.get("micros").unwrap().as_u64().unwrap();

    assert!(single_us > 0 && batch_us > 0);
    assert!(
        single_us < miss_us && batch_us < miss_us,
        "hits ({single_us}µs / {batch_us}µs) must undercut the rollout ({miss_us}µs)"
    );
}
