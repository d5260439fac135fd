//! End-to-end service tests: registry persistence round trip, the
//! NDJSON protocol surface, cache/metrics accounting, and device pins.

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind};
use qrc_rl::PpoConfig;
use qrc_serve::{CompilationService, ModelRegistry, ServeRequest, ServiceConfig, ShardKey, Stage};

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

fn quiet_config() -> ServiceConfig {
    ServiceConfig {
        verbose: false,
        ..ServiceConfig::default()
    }
}

/// A scratch directory under the system temp dir, unique per test.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qrc_serve_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bell_qasm() -> String {
    let mut qc = qrc_circuit::QuantumCircuit::new(2);
    qc.h(0).cx(0, 1).measure_all();
    qrc_circuit::qasm::to_qasm(&qc)
}

#[test]
fn registry_round_trips_through_disk() {
    let dir = scratch_dir("registry");
    let models = tiny_models();
    for model in &models {
        model
            .save(&ModelRegistry::model_path(
                &dir,
                ShardKey::wildcard(model.reward()),
            ))
            .unwrap();
    }
    let loaded = ModelRegistry::load(&dir).unwrap();
    assert_eq!(loaded.len(), 3);
    assert_eq!(loaded.kinds(), RewardKind::ALL.to_vec());
    assert_eq!(
        loaded.keys(),
        RewardKind::ALL.map(ShardKey::wildcard).to_vec()
    );

    // Loaded policies answer identically to the originals.
    let qc = BenchmarkFamily::Ghz.generate(3);
    for model in &models {
        let reloaded = loaded.get(model.reward()).unwrap();
        let a = model.compile(&qc);
        let b = reloaded.compile(&qc);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.circuit, b.circuit);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_ensure_trains_once_then_loads() {
    let dir = scratch_dir("ensure");
    let suite = vec![BenchmarkFamily::Ghz.generate(3)];
    let mut trained = Vec::new();
    let registry = ModelRegistry::ensure(&dir, &suite, 600, 7, 0.005, |name| {
        trained.push(name.to_string())
    })
    .unwrap();
    assert_eq!(registry.len(), 3);
    assert_eq!(trained.len(), 3, "cold start trains every objective");

    let mut retrained = Vec::new();
    let warm = ModelRegistry::ensure(&dir, &suite, 600, 7, 0.005, |name| {
        retrained.push(name.to_string())
    })
    .unwrap();
    assert_eq!(warm.len(), 3);
    assert!(retrained.is_empty(), "warm start must train nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_ensure_recovers_from_torn_checkpoints() {
    let dir = scratch_dir("torn");
    let suite = vec![BenchmarkFamily::Ghz.generate(3)];
    // Cold start: all three objectives trained and persisted.
    let cold = ModelRegistry::ensure(&dir, &suite, 600, 7, 0.005, |_| {}).unwrap();
    assert_eq!(cold.len(), 3);

    // Simulate a crash mid-write: one checkpoint torn (truncated JSON),
    // plus a stale temp file from an interrupted atomic save.
    let victim = ModelRegistry::model_path(&dir, ShardKey::wildcard(RewardKind::ExpectedFidelity));
    let full = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &full[..full.len() / 2]).unwrap();
    std::fs::write(victim.with_extension("json.tmp"), "partial").unwrap();

    // A plain load refuses the torn file (strict by design) …
    assert!(matches!(
        ModelRegistry::load(&dir),
        Err(qrc_predictor::PersistError::Format(_))
    ));

    // … but ensure quarantines it and retrains exactly that objective.
    let mut retrained = Vec::new();
    let healed = ModelRegistry::ensure(&dir, &suite, 600, 7, 0.005, |name| {
        retrained.push(name.to_string())
    })
    .unwrap();
    assert_eq!(healed.len(), 3);
    assert_eq!(retrained, vec!["fidelity/any/any".to_string()]);
    let quarantined = ModelRegistry::quarantine_path(&victim);
    assert!(quarantined.exists(), "torn bytes kept for post-mortems");
    assert!(
        !victim.with_extension("json.tmp").exists(),
        "stale tmp swept"
    );

    // The healed checkpoint is a valid warm start again.
    let warm = ModelRegistry::load(&dir).unwrap();
    assert_eq!(warm.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_checkpoint_names_migrate_to_wildcard_shards() {
    let dir = scratch_dir("legacy");
    let models = tiny_models();
    // Persist under the pre-sharding names: predictor_<objective>.json.
    for model in &models {
        model
            .save(&dir.join(format!("predictor_{}.json", model.reward().name())))
            .unwrap();
    }
    let loaded = ModelRegistry::load(&dir).unwrap();
    assert_eq!(loaded.len(), 3);
    assert_eq!(
        loaded.keys(),
        RewardKind::ALL.map(ShardKey::wildcard).to_vec(),
        "legacy names migrate to objective-only wildcard shards"
    );

    // An ensure over the same directory is a warm start: nothing
    // retrains, the legacy files keep serving.
    let mut retrained = Vec::new();
    let warm = ModelRegistry::ensure(
        &dir,
        &[BenchmarkFamily::Ghz.generate(3)],
        600,
        7,
        0.005,
        |name| retrained.push(name.to_string()),
    )
    .unwrap();
    assert_eq!(warm.len(), 3);
    assert!(retrained.is_empty(), "legacy checkpoints are a warm start");

    // When both spellings exist for one shard, the explicit one wins.
    let explicit =
        ModelRegistry::model_path(&dir, ShardKey::wildcard(RewardKind::ExpectedFidelity));
    models[0].save(&explicit).unwrap();
    std::fs::write(
        dir.join("predictor_fidelity.json"),
        "{definitely not a checkpoint",
    )
    .unwrap();
    let shadowed = ModelRegistry::load(&dir).unwrap();
    assert_eq!(
        shadowed.len(),
        3,
        "the corrupt legacy file is shadowed by the explicit checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn routing_falls_back_most_specific_first() {
    use qrc_serve::{DeviceClass, RouteLevel, WidthBand};

    let models = tiny_models();
    let fidelity = models
        .iter()
        .find(|m| m.reward() == RewardKind::ExpectedFidelity)
        .unwrap()
        .clone();
    let narrow_key = ShardKey {
        objective: RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Any,
        width_band: WidthBand::Narrow,
    };
    let ionq_key = ShardKey {
        objective: RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Class(qrc_device::Platform::Ionq),
        width_band: WidthBand::Any,
    };
    let registry = ModelRegistry::from_shards(vec![
        (
            ShardKey::wildcard(RewardKind::ExpectedFidelity),
            fidelity.clone(),
        ),
        (narrow_key, fidelity.clone()),
        (ionq_key, fidelity),
    ]);

    // Unpinned narrow request: the narrow specialist, exactly.
    let requested = ShardKey::for_request(RewardKind::ExpectedFidelity, None, 3);
    let routed = registry.route(requested).unwrap();
    let (shard, level) = (routed.key, routed.level);
    assert_eq!(shard, narrow_key);
    assert_eq!(level, RouteLevel::Exact);

    // IonQ-pinned narrow request: no (ionq, narrow) shard, so the
    // band-wildcard ionq specialist answers.
    let requested = ShardKey::for_request(
        RewardKind::ExpectedFidelity,
        Some(qrc_device::DeviceId::IonqHarmony),
        3,
    );
    let routed = registry.route(requested).unwrap();
    let (shard, level) = (routed.key, routed.level);
    assert_eq!(shard, ionq_key);
    assert_eq!(level, RouteLevel::BandWildcard);

    // IBM-pinned narrow request: no ibm shard at all → the
    // device-wildcard narrow specialist.
    let requested = ShardKey::for_request(
        RewardKind::ExpectedFidelity,
        Some(qrc_device::DeviceId::IbmqMontreal),
        3,
    );
    let routed = registry.route(requested).unwrap();
    let (shard, level) = (routed.key, routed.level);
    assert_eq!(shard, narrow_key);
    assert_eq!(level, RouteLevel::DeviceWildcard);

    // Medium width, unpinned: only the objective-only wildcard covers.
    let requested = ShardKey::for_request(RewardKind::ExpectedFidelity, None, 6);
    let routed = registry.route(requested).unwrap();
    let (shard, level) = (routed.key, routed.level);
    assert_eq!(shard, ShardKey::wildcard(RewardKind::ExpectedFidelity));
    assert_eq!(level, RouteLevel::ObjectiveOnly);

    // An objective with no shard resolves nowhere.
    let requested = ShardKey::for_request(RewardKind::CriticalDepth, None, 3);
    assert!(registry.route(requested).is_none());
}

#[test]
fn metrics_counters_partition_requests() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &quiet_config(),
    );
    let good = format!(
        r#"{{"id":"inv","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(bell_qasm()))
    );
    // Mixed traffic: parse errors, invalid qasm, a miss, duplicates
    // (coalesced), and — on a second pass — cache hits.
    let lines: Vec<String> = vec![
        "garbage".into(),
        good.clone(),
        good.clone(),
        r#"{"qasm":"not qasm"}"#.into(),
        good.clone(),
    ];
    service.handle_lines(&lines);
    service.handle_lines(&lines);
    // Plus two back-pressure rejections from the front end.
    service.record_rejected();
    service.record_rejected();

    let snap = service.metrics();
    let [hits, misses, coalesced] = snap.responses;
    assert_eq!(snap.requests, 10);
    assert_eq!(
        snap.requests,
        snap.errors + hits + misses + coalesced,
        "every request is exactly one of error/hit/miss/coalesced: {snap:?}"
    );
    assert_eq!(snap.errors, 4);
    assert_eq!(misses, 1);
    assert_eq!(coalesced, 2);
    assert_eq!(hits, 3);
    assert_eq!(snap.rejected, 2, "rejections counted apart from errors");
}

#[test]
fn width_limit_rejects_at_admission() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &ServiceConfig {
            max_circuit_qubits: 4,
            ..quiet_config()
        },
    );
    let wide = qrc_circuit::qasm::to_qasm(&BenchmarkFamily::Ghz.generate(6));
    let responses = service.handle_batch(&[ServeRequest::new(wide)]);
    let err = responses[0].result.as_ref().unwrap_err();
    assert!(err.contains("exceeding the service limit of 4"), "{err}");

    let narrow = qrc_circuit::qasm::to_qasm(&BenchmarkFamily::Ghz.generate(3));
    let responses = service.handle_batch(&[ServeRequest::new(narrow)]);
    assert!(responses[0].result.is_ok());
}

#[test]
fn oversized_lines_rejected_before_parsing() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &ServiceConfig {
            max_request_bytes: 64,
            ..quiet_config()
        },
    );
    let long = format!(r#"{{"qasm":"{}"}}"#, "x".repeat(200));
    let replies = service.handle_lines(std::slice::from_ref(&long));
    let parsed = serde_json::from_str(&replies[0]).unwrap();
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    let error = parsed.get("error").unwrap().as_str().unwrap().to_string();
    assert!(error.contains("exceeding the service limit"), "{error}");
    assert_eq!(service.stage_histogram(Stage::Parse).count(), 1);

    // The single-line entry point runs the same line path: the same
    // rejection, and its own parse-stage sample.
    let parsed = serde_json::from_str(&service.handle_line(&long)).unwrap();
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(parsed.get("error").unwrap().as_str(), Some(error.as_str()));
    assert_eq!(service.stage_histogram(Stage::Parse).count(), 2);

    // An oversized line is never parsed, not even to recover its `id`:
    // it is answered with `id: null`, as the front ends answer it.
    let with_id = format!(r#"{{"id":"big","qasm":"{}"}}"#, "x".repeat(200));
    for reply in [
        service.handle_line(&with_id),
        service
            .handle_lines(std::slice::from_ref(&with_id))
            .remove(0),
    ] {
        let parsed = serde_json::from_str(&reply).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert!(parsed.get("id").unwrap().is_null(), "{reply}");
    }
}

#[test]
fn ndjson_protocol_end_to_end() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &quiet_config(),
    );
    let line = format!(
        r#"{{"id":"bell-1","qasm":{},"objective":"fidelity"}}"#,
        serde_json::to_string(&serde_json::Value::from(bell_qasm()))
    );
    let reply = service.handle_line(&line);
    let parsed = serde_json::from_str(&reply).unwrap();
    assert_eq!(parsed.get("id").unwrap().as_str(), Some("bell-1"));
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
    assert!(parsed.get("micros").unwrap().as_u64().is_some());
    let reward = parsed.get("reward").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&reward));
    // The compiled program must itself parse as QASM.
    let compiled = parsed.get("qasm").unwrap().as_str().unwrap();
    assert!(qrc_circuit::qasm::from_qasm(compiled).is_ok());

    // Same request again: served from cache.
    let reply = service.handle_line(&line);
    let parsed = serde_json::from_str(&reply).unwrap();
    assert_eq!(parsed.get("cache").unwrap().as_str(), Some("hit"));

    // Errors are NDJSON too, never panics.
    let reply = service.handle_line("{broken json");
    let parsed = serde_json::from_str(&reply).unwrap();
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    let reply = service.handle_line(r#"{"qasm":"not qasm at all"}"#);
    let parsed = serde_json::from_str(&reply).unwrap();
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    assert!(parsed
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("invalid qasm"));

    let metrics = service.metrics();
    assert_eq!(metrics.requests, 4);
    assert_eq!(metrics.errors, 2);
    assert_eq!(metrics.cache.hits, 1);
    assert!(metrics.cache.hit_rate() > 0.0);
}

#[test]
fn malformed_qasm_is_an_error_reply_and_serving_continues() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &quiet_config(),
    );
    let bodies = [
        "h q]0[;",
        "rz)0.5( q[0];",
        "measure q]1[ -> c[0];",
        "cx q[0],q[0];",
        "rz(nan) q[0];",
        "rz(inf) q[0];",
    ];
    let mut programs: Vec<String> = bodies
        .iter()
        .map(|body| format!("OPENQASM 2.0;\nqreg q[2];\n{body}\n"))
        .collect();
    programs.push("OPENQASM 2.0;\nqreg]2[;\n".into());
    for (i, qasm) in programs.iter().enumerate() {
        let line = format!(
            r#"{{"id":"bad-{i}","qasm":{}}}"#,
            serde_json::to_string(&serde_json::Value::from(qasm.clone()))
        );
        let parsed = serde_json::from_str(&service.handle_line(&line)).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false), "{qasm}");
        let error = parsed.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("invalid qasm"), "{qasm}: {error}");
    }
    // The service keeps answering well-formed requests afterwards.
    let good = format!(
        r#"{{"id":"good","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(bell_qasm()))
    );
    let parsed = serde_json::from_str(&service.handle_line(&good)).unwrap();
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
    let metrics = service.metrics();
    assert_eq!(metrics.requests, programs.len() as u64 + 1);
    assert_eq!(metrics.errors, programs.len() as u64);
}

#[test]
fn handle_lines_preserves_order_with_mixed_validity() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &quiet_config(),
    );
    let good = format!(
        r#"{{"id":"ok-1","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(bell_qasm()))
    );
    let lines = vec!["nonsense".to_string(), good.clone(), "{}".to_string(), good];
    let replies = service.handle_lines(&lines);
    assert_eq!(replies.len(), 4);
    let oks: Vec<bool> = replies
        .iter()
        .map(|r| {
            serde_json::from_str(r)
                .unwrap()
                .get("ok")
                .unwrap()
                .as_bool()
                .unwrap()
        })
        .collect();
    assert_eq!(oks, vec![false, true, false, true]);
    // The two good requests are identical: one miss, one coalesced.
    let statuses: Vec<String> = [1usize, 3]
        .iter()
        .map(|&i| {
            serde_json::from_str(&replies[i])
                .unwrap()
                .get("cache")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(statuses, vec!["miss".to_string(), "coalesced".to_string()]);
}

#[test]
fn device_pin_forces_the_target() {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(tiny_models()),
        &quiet_config(),
    );
    let mut request = ServeRequest::new(bell_qasm());
    request.device_pin = Some(qrc_device::DeviceId::IonqHarmony);
    let responses = service.handle_batch(std::slice::from_ref(&request));
    let (result, _) = responses[0].result.as_ref().unwrap();
    assert_eq!(result.device, Some(qrc_device::DeviceId::IonqHarmony));
    // The action trace starts with the forced selections.
    assert_eq!(result.actions[0], "platform:ionq");
    assert_eq!(result.actions[1], "device:ionq_harmony");

    // An infeasible pin (circuit wider than the device) is an error
    // response, not a panic.
    let wide = BenchmarkFamily::Ghz.generate(12);
    let mut request = ServeRequest::new(qrc_circuit::qasm::to_qasm(&wide));
    request.device_pin = Some(qrc_device::DeviceId::OqcLucy); // 8 qubits
    let responses = service.handle_batch(std::slice::from_ref(&request));
    let err = responses[0].result.as_ref().unwrap_err();
    assert!(err.contains("oqc_lucy"), "{err}");

    // Pinned and unpinned results for the same circuit are cached
    // under different keys.
    assert!(service.cache_len() >= 1);
}
