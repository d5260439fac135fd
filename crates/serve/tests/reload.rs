//! Hot-reload race tests: the registry swap must never drop or fail a
//! request, and a torn/corrupt checkpoint appearing mid-swap must
//! quarantine to `.corrupt` while the old shard keeps serving.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind, TrainedPredictor};
use qrc_rl::PpoConfig;
use qrc_serve::{
    CompilationService, DeviceClass, ModelRegistry, ServeRequest, ServiceConfig, ShardKey,
    WidthBand,
};

fn tiny_model(reward: RewardKind, seed: u64) -> TrainedPredictor {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
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
        seed,
        step_penalty: 0.005,
    };
    train(suite, &config)
}

/// A scratch directory under the system temp dir, unique per test.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qrc_reload_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bell_request(id: &str) -> ServeRequest {
    let mut qc = qrc_circuit::QuantumCircuit::new(2);
    qc.h(0).cx(0, 1).measure_all();
    let mut request = ServeRequest::new(qrc_circuit::qasm::to_qasm(&qc));
    request.id = Some(id.to_string());
    request
}

/// Starts a dir-backed service from pre-saved tiny checkpoints (a warm
/// start: nothing trains).
fn warm_service(dir: &std::path::Path) -> Arc<CompilationService> {
    for reward in RewardKind::ALL {
        tiny_model(reward, 5)
            .save(&ModelRegistry::model_path(dir, ShardKey::wildcard(reward)))
            .unwrap();
    }
    Arc::new(
        CompilationService::start(&ServiceConfig {
            models_dir: dir.to_path_buf(),
            verbose: false,
            ..ServiceConfig::default()
        })
        .unwrap(),
    )
}

#[test]
fn reload_under_load_drops_nothing_and_quarantines_torn_checkpoints() {
    let dir = scratch_dir("swap");
    let service = warm_service(&dir);

    // Load generators: worker threads hammer the service while the
    // main thread swaps the registry underneath them. Every response
    // must be ok — zero failed requests across every reload.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, u64) {
                let mut ok = 0u64;
                let mut failed = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let batch = [
                        bell_request(&format!("w{w}-{i}-a")),
                        bell_request(&format!("w{w}-{i}-b")),
                    ];
                    for response in service.handle_batch(&batch) {
                        match response.result {
                            Ok(_) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    i += 1;
                }
                (ok, failed)
            })
        })
        .collect();

    let narrow_key = ShardKey {
        objective: RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Any,
        width_band: WidthBand::Narrow,
    };
    let narrow_path = ModelRegistry::model_path(&dir, narrow_key);

    // Swap 1: a torn checkpoint appears (a crashed trainer wrote half
    // a file). Reload must quarantine it and keep serving.
    std::fs::write(&narrow_path, "{\"format\":\"qrc-trained-pred").unwrap();
    let report = service.reload().unwrap();
    assert_eq!(report.quarantined, vec![narrow_key.file_name()]);
    assert!(
        ModelRegistry::quarantine_path(&narrow_path).exists(),
        "torn bytes preserved as .corrupt"
    );
    assert!(!narrow_path.exists(), "torn file moved out of the way");
    assert_eq!(
        service.registry().keys(),
        RewardKind::ALL.map(ShardKey::wildcard).to_vec(),
        "the torn shard never entered the registry"
    );

    // Swap 2: a valid narrow-band specialist lands on disk. Reload
    // must pick it up and narrow traffic must route to it.
    tiny_model(RewardKind::ExpectedFidelity, 11)
        .save(&narrow_path)
        .unwrap();
    let report = service.reload().unwrap();
    assert!(report.loaded.contains(&narrow_key));
    assert!(service.registry().keys().contains(&narrow_key));

    // Swap 3: the *existing wildcard* checkpoint is corrupted on disk.
    // The in-memory policy must keep serving (kept, not dropped).
    let wildcard_path =
        ModelRegistry::model_path(&dir, ShardKey::wildcard(RewardKind::CriticalDepth));
    std::fs::write(&wildcard_path, "garbage").unwrap();
    let report = service.reload().unwrap();
    assert_eq!(
        report.kept,
        vec![ShardKey::wildcard(RewardKind::CriticalDepth)],
        "the corrupted shard keeps its previously loaded policy"
    );
    assert!(ModelRegistry::quarantine_path(&wildcard_path).exists());
    let critical = bell_request("critical-after-corrupt");
    let mut critical = critical;
    critical.objective = RewardKind::CriticalDepth;
    let responses = service.handle_batch(std::slice::from_ref(&critical));
    assert!(
        responses[0].result.is_ok(),
        "the kept shard still answers: {:?}",
        responses[0].result
    );

    stop.store(true, Ordering::SeqCst);
    let mut total_ok = 0u64;
    for worker in workers {
        let (ok, failed) = worker.join().unwrap();
        assert_eq!(failed, 0, "hot-reload under load must fail zero requests");
        total_ok += ok;
    }
    assert!(total_ok > 0, "the load generators actually ran");
    assert_eq!(service.metrics().reloads, 3);

    // Stats confirm what the operator needs to see after a reload:
    // shard keys, checkpoint mtimes, and the reload count.
    let stats = serde_json::to_string(&service.stats_value());
    assert!(stats.contains("\"registry\""), "{stats}");
    assert!(stats.contains("\"fidelity/any/narrow\""), "{stats}");
    assert!(stats.contains("\"mtime_epoch_secs\""), "{stats}");
    assert!(
        stats.contains("\"reloads\": 3") || stats.contains("\"reloads\":3"),
        "{stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_routes_new_traffic_to_fresh_shards_while_old_batches_finish() {
    let dir = scratch_dir("routes");
    let service = warm_service(&dir);

    // Before: narrow fidelity traffic falls back to the wildcard.
    let request = bell_request("pre-reload");
    let response = &service.handle_batch(std::slice::from_ref(&request))[0];
    assert!(response.result.is_ok());
    let shard_of = |response: &qrc_serve::ServeResponse| {
        response
            .body_value()
            .get("shard")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .expect("routed responses echo their shard")
    };
    assert_eq!(shard_of(response), "fidelity/any/any");

    // A narrow specialist lands; after reload the same request routes
    // to it (and recomputes — the cache is partitioned by shard).
    let narrow_key = ShardKey {
        objective: RewardKind::ExpectedFidelity,
        device_class: DeviceClass::Any,
        width_band: WidthBand::Narrow,
    };
    tiny_model(RewardKind::ExpectedFidelity, 23)
        .save(&ModelRegistry::model_path(&dir, narrow_key))
        .unwrap();
    service.reload().unwrap();
    let response = &service.handle_batch(std::slice::from_ref(&request))[0];
    assert!(response.result.is_ok());
    assert_eq!(shard_of(response), "fidelity/any/narrow");

    // Swapping an existing shard's checkpoint must invalidate its
    // cached results: without generation-partitioned cache keys, the
    // popular request below would keep hitting the OLD policy's cached
    // answer forever after the reload.
    let mut cd_request = bell_request("cd-cache");
    cd_request.objective = RewardKind::CriticalDepth;
    let cache_of = |response: &qrc_serve::ServeResponse| {
        response
            .body_value()
            .get("cache")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .unwrap()
    };
    let first = &service.handle_batch(std::slice::from_ref(&cd_request))[0];
    assert_eq!(cache_of(first), "miss");
    let second = &service.handle_batch(std::slice::from_ref(&cd_request))[0];
    assert_eq!(cache_of(second), "hit", "primed: the entry is resident");
    // A retrained policy replaces the checkpoint immediately — no
    // mtime-granularity dodge needed: the rescan compares provenance
    // at full filesystem precision (path, mtime, length), so even a
    // same-second swap is detected.
    tiny_model(RewardKind::CriticalDepth, 41)
        .save(&ModelRegistry::model_path(
            &dir,
            ShardKey::wildcard(RewardKind::CriticalDepth),
        ))
        .unwrap();
    let report = service.reload().unwrap();
    assert!(
        report.invalidated >= 1,
        "the swapped shard's cached entries are purged: {report:?}"
    );
    let after = &service.handle_batch(std::slice::from_ref(&cd_request))[0];
    assert_eq!(
        cache_of(after),
        "miss",
        "a swapped-in policy recomputes instead of replaying its predecessor's cache"
    );

    // An untouched checkpoint keeps its warm cache across reloads.
    let warm = &service.handle_batch(std::slice::from_ref(&request))[0];
    assert_eq!(cache_of(warm), "hit");
    service.reload().unwrap();
    let still_warm = &service.handle_batch(std::slice::from_ref(&request))[0];
    assert_eq!(
        cache_of(still_warm),
        "hit",
        "a no-op reload must not cold-start unchanged shards"
    );

    // An in-memory service has nothing to rescan: reload fails
    // gracefully and keeps serving.
    let in_memory = CompilationService::with_registry(
        ModelRegistry::from_models(vec![tiny_model(RewardKind::ExpectedFidelity, 5)]),
        &ServiceConfig {
            verbose: false,
            ..ServiceConfig::default()
        },
    );
    assert!(in_memory.reload().is_err());
    let reply = serde_json::to_string(&in_memory.reload_value());
    assert!(
        reply.contains("\"ok\": false") || reply.contains("\"ok\":false"),
        "{reply}"
    );
    assert!(
        in_memory.handle_batch(std::slice::from_ref(&request))[0]
            .result
            .is_ok(),
        "a failed reload never stops the service"
    );
    std::fs::remove_dir_all(&dir).ok();
}
