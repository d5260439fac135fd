//! The serving determinism contract: batched/parallel execution must
//! produce responses byte-identical to serial execution (latency
//! metadata aside), and identical traffic must produce identical
//! responses regardless of batch boundaries.

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind};
use qrc_rl::PpoConfig;
use qrc_serve::scheduler::parallel_matches_serial;
use qrc_serve::{synthetic_mix, CompilationService, ModelRegistry, ServiceConfig, TrafficConfig};

/// A registry with one quickly-trained model per objective.
fn tiny_registry() -> ModelRegistry {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
        BenchmarkFamily::WState.generate(3),
    ];
    let models = RewardKind::ALL
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
        .collect();
    ModelRegistry::from_models(models)
}

fn service_config(parallel: bool) -> ServiceConfig {
    ServiceConfig {
        parallel,
        verbose: false,
        ..ServiceConfig::default()
    }
}

#[test]
fn batched_execution_is_byte_identical_to_serial() {
    let registry = tiny_registry();
    let traffic = synthetic_mix(&TrafficConfig {
        requests: 48,
        max_qubits: 4,
        ..TrafficConfig::default()
    });
    assert!(
        parallel_matches_serial(&registry, 3, &traffic, 1024, 8),
        "parallel batch diverged from serial execution"
    );
}

#[test]
fn batch_boundaries_do_not_change_results() {
    let traffic = synthetic_mix(&TrafficConfig {
        requests: 30,
        max_qubits: 4,
        ..TrafficConfig::default()
    });

    // One service swallows the whole stream in a single batch; the
    // other sees it in batches of 7. The cache state differs along the
    // way, so `cache` statuses may differ — but the *payloads* must
    // not.
    let whole = CompilationService::with_registry(tiny_registry(), &service_config(true));
    let chunked = CompilationService::with_registry(tiny_registry(), &service_config(false));

    let whole_responses = whole.handle_batch(&traffic);
    let mut chunked_responses = Vec::new();
    for chunk in traffic.chunks(7) {
        chunked_responses.extend(chunked.handle_batch(chunk));
    }
    assert_eq!(whole_responses.len(), chunked_responses.len());
    for (a, b) in whole_responses.iter().zip(chunked_responses.iter()) {
        match (&a.result, &b.result) {
            (Ok((ra, _)), Ok((rb, _))) => {
                assert_eq!(ra.qasm, rb.qasm);
                assert_eq!(ra.actions, rb.actions);
                assert_eq!(ra.device, rb.device);
                assert_eq!(ra.reward.to_bits(), rb.reward.to_bits());
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            other => panic!("ok/err divergence: {other:?}"),
        }
    }
}

#[test]
fn batched_inference_is_byte_identical_to_serial_inference() {
    use std::sync::Arc;

    use qrc_circuit::qasm;
    use qrc_device::DeviceId;
    use qrc_predictor::task_seed;
    use qrc_serve::{
        CacheKey, CacheStatus, CompiledResult, ServeRequest, ServeResponse, ShardKey, ShardRoute,
    };

    // One cold-cache batch of repeated, pinned and infeasibly pinned
    // requests: every unique job is a miss, and the misses of each
    // model share its lockstep rollout tick by tick.
    let mut traffic = synthetic_mix(&TrafficConfig {
        requests: 40,
        max_qubits: 4,
        pin_fraction: 0.3,
        ..TrafficConfig::default()
    });
    let too_wide = qasm::to_qasm(&BenchmarkFamily::Ghz.generate(10));
    for objective in RewardKind::ALL {
        traffic.push(ServeRequest {
            id: Some(format!("too-wide-{}", objective.name())),
            qasm: too_wide.clone(),
            objective,
            device_pin: Some(DeviceId::OqcLucy),
        });
    }
    let config = service_config(false);
    let service = CompilationService::with_registry(tiny_registry(), &config);
    let responses = service.handle_batch(&traffic);
    assert_eq!(responses.len(), traffic.len());

    // The reference: each request compiled alone by the single-row
    // rollout, keyed, seeded and rendered the way the scheduler does.
    let registry = service.registry();
    for (request, response) in traffic.iter().zip(&responses) {
        let circuit = qasm::from_qasm(&request.qasm).expect("mix circuits parse");
        let routed = registry
            .route(ShardKey::for_request(
                request.objective,
                request.device_pin,
                circuit.num_qubits(),
            ))
            .expect("every objective has a wildcard shard");
        let key = CacheKey {
            circuit_hash: circuit.structural_hash(),
            device_pin: request.device_pin,
            shard: routed.key,
            generation: routed.generation,
        };
        let result = routed
            .model
            .compile_request(
                &circuit,
                request.device_pin,
                task_seed(config.seed, key.mix()),
            )
            .map(|outcome| {
                let rendered = CompiledResult {
                    qasm: qasm::to_qasm(&outcome.circuit),
                    device: outcome.device,
                    actions: outcome.actions.iter().map(|a| a.name()).collect(),
                    reward: outcome.reward,
                };
                (Arc::new(rendered), CacheStatus::Miss)
            })
            .map_err(|e| {
                let pin = request.device_pin.map_or("?", |p| p.name());
                format!("pinned device `{pin}` rejected: {e}")
            });
        let reference = ServeResponse {
            id: request.id.clone(),
            result,
            micros: 0,
            route: Some(ShardRoute {
                shard: routed.key,
                level: routed.level,
            }),
            rid: None,
        };
        assert_eq!(
            response.payload_value(),
            reference.payload_value(),
            "lockstep rollout diverged from compile_request"
        );
    }

    // The batch exercised what it claims to: several misses per model
    // on average, in-batch duplicates, feasible pins and rejected pins.
    let status = |want: CacheStatus| {
        responses
            .iter()
            .filter(|r| matches!(&r.result, Ok((_, got)) if *got == want))
            .count()
    };
    assert!(status(CacheStatus::Miss) > 2 * RewardKind::ALL.len());
    assert!(status(CacheStatus::Coalesced) > 0);
    assert_eq!(status(CacheStatus::Hit), 0, "the cache starts cold");
    assert!(traffic
        .iter()
        .zip(&responses)
        .any(|(q, r)| q.device_pin.is_some() && r.result.is_ok()));
    let rejected = responses.iter().filter(|r| r.result.is_err()).count();
    assert_eq!(rejected, RewardKind::ALL.len());
}

#[test]
fn registry_backed_builtins_match_enum_era_payloads() {
    // The pre-refactor enum path hard-wired the five paper devices with
    // seed tags 1..=5. The registry must reproduce that contract even
    // while unrelated runtime devices are being registered: a seeded
    // traffic mix compiled before and after extra registrations must be
    // byte-identical, and the built-in seed tags must not move.
    use qrc_device::{DeviceId, DeviceRegistry, DeviceSource, DeviceSpec, Platform, TopologySpec};

    let traffic = synthetic_mix(&TrafficConfig {
        requests: 36,
        max_qubits: 4,
        pin_fraction: 0.5,
        ..TrafficConfig::default()
    });

    let baseline = CompilationService::with_registry(tiny_registry(), &service_config(false));
    let before = baseline.handle_batch(&traffic);

    for (i, id) in DeviceId::ALL.iter().enumerate() {
        assert_eq!(DeviceRegistry::seed_tag(*id), 1 + i as u64);
    }
    DeviceRegistry::register(
        DeviceSpec::synthetic(
            "determinism_dyn_ring_8",
            Platform::Oqc,
            TopologySpec::Ring { qubits: 8 },
        ),
        DeviceSource::Runtime,
    )
    .expect("register a runtime device");

    let after_service = CompilationService::with_registry(tiny_registry(), &service_config(false));
    let after = after_service.handle_batch(&traffic);

    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(after.iter()) {
        assert_eq!(
            a.payload_value(),
            b.payload_value(),
            "registering a runtime device perturbed a built-in payload"
        );
    }
    for (i, id) in DeviceId::ALL.iter().enumerate() {
        assert_eq!(
            DeviceRegistry::seed_tag(*id),
            1 + i as u64,
            "built-in seed tag drifted after a runtime registration"
        );
    }
}

#[test]
fn duplicate_requests_in_one_batch_coalesce() {
    let service = CompilationService::with_registry(tiny_registry(), &service_config(true));
    let mut qc = qrc_circuit::QuantumCircuit::new(3);
    qc.h(0).cx(0, 1).cx(1, 2).measure_all();
    let text = qrc_circuit::qasm::to_qasm(&qc);
    let requests: Vec<_> = (0..6)
        .map(|i| {
            let mut r = qrc_serve::ServeRequest::new(text.clone());
            r.id = Some(format!("dup-{i}"));
            r
        })
        .collect();
    let responses = service.handle_batch(&requests);
    let statuses: Vec<&str> = responses
        .iter()
        .map(|r| r.result.as_ref().unwrap().1.name())
        .collect();
    assert_eq!(statuses[0], "miss");
    assert!(
        statuses[1..].iter().all(|s| *s == "coalesced"),
        "{statuses:?}"
    );
    // All six carry the same payload pointer-equal result.
    let first = &responses[0].result.as_ref().unwrap().0;
    for r in &responses[1..] {
        assert!(std::sync::Arc::ptr_eq(first, &r.result.as_ref().unwrap().0));
    }

    // A second batch with the same content is served from cache.
    let again = service.handle_batch(&requests[..1]);
    assert_eq!(again[0].result.as_ref().unwrap().1.name(), "hit");
}
