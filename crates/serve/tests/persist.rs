//! The restart-equivalence suite: a server warmed from a persisted
//! cache snapshot must answer every request byte-identically to a cold
//! (or never-restarted) server, a torn snapshot must quarantine and
//! cold-start cleanly, and a snapshot must never resurrect an answer
//! from a checkpoint that changed since it was taken. Plus a proptest
//! that snapshot export → import round-trips arbitrary cache states
//! with LRU recency order preserved, and a concurrency test that
//! `{"cmd":"snapshot"}`-style snapshots under load and around reloads
//! drop nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use qrc_benchgen::BenchmarkFamily;
use qrc_device::DeviceId;
use qrc_predictor::{train, PredictorConfig, RewardKind, TrainedPredictor};
use qrc_rl::PpoConfig;
use qrc_serve::persist::{
    load_snapshot_file, snapshot_path, CacheSnapshot, PersistedEntry, SnapshotLoad,
};
use qrc_serve::{
    CacheKey, CacheStatus, CompilationService, CompiledResult, ModelRegistry, ResultCache,
    ServeRequest, ServeResponse, ServiceConfig, ShardKey,
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
    let dir = std::env::temp_dir().join(format!("qrc_persist_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves tiny wildcard checkpoints so `dir_service` warm-starts
/// without training; a different `seed` writes different policies (the
/// "checkpoint changed since snapshot" case re-saves one shard).
fn save_models(dir: &std::path::Path, seed: u64) {
    for reward in RewardKind::ALL {
        tiny_model(reward, seed)
            .save(&ModelRegistry::model_path(dir, ShardKey::wildcard(reward)))
            .unwrap();
    }
}

fn dir_service(dir: &std::path::Path) -> Arc<CompilationService> {
    Arc::new(
        CompilationService::start(&ServiceConfig {
            models_dir: dir.to_path_buf(),
            verbose: false,
            ..ServiceConfig::default()
        })
        .unwrap(),
    )
}

/// A deterministic mixed-device, mixed-objective request stream with
/// repeats (so snapshots have both breadth and hot keys).
fn mixed_traffic() -> Vec<ServeRequest> {
    let mut bell = qrc_circuit::QuantumCircuit::new(2);
    bell.h(0).cx(0, 1).measure_all();
    let mut ghz = qrc_circuit::QuantumCircuit::new(3);
    ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
    let mut flip = qrc_circuit::QuantumCircuit::new(2);
    flip.x(0).x(1).measure_all();
    let circuits = [bell, ghz, flip].map(|qc| qrc_circuit::qasm::to_qasm(&qc));
    let pins = [None, Some(DeviceId::IonqHarmony), Some(DeviceId::OqcLucy)];
    let mut requests = Vec::new();
    let mut n = 0;
    for (c, qasm) in circuits.iter().enumerate() {
        for objective in RewardKind::ALL {
            let mut request = ServeRequest::new(qasm.clone());
            request.id = Some(format!("r{n}"));
            request.objective = objective;
            request.device_pin = pins[(c + n) % pins.len()];
            requests.push(request);
            n += 1;
        }
    }
    // Hot head: repeat the first third of the uniques (fresh ids).
    for repeat in 0..requests.len() / 3 {
        let mut dup = requests[repeat].clone();
        dup.id = Some(format!("dup{repeat}"));
        requests.push(dup);
    }
    requests
}

fn payload_lines(responses: &[ServeResponse]) -> Vec<String> {
    responses
        .iter()
        .map(|r| serde_json::to_string(&r.payload_value()))
        .collect()
}

#[test]
fn warmed_restart_answers_byte_identically_with_warm_hits() {
    let dir = scratch_dir("equiv");
    save_models(&dir, 5);
    let traffic = mixed_traffic();

    // The never-restarted reference run, then a snapshot mid-life.
    let original = dir_service(&dir);
    let reference = payload_lines(&original.handle_batch(&traffic));
    assert!(
        reference.iter().all(|l| l.contains("\"ok\":true")),
        "reference run must fully succeed"
    );
    let written = original.write_snapshot().unwrap();
    assert!(written.entries > 0, "a primed cache persists entries");
    assert_eq!(written.skipped, 0, "dir-backed shards are all provable");
    drop(original);

    // Cold restart: same checkpoints, empty cache.
    let cold = dir_service(&dir);
    let cold_lines = payload_lines(&cold.handle_batch(&traffic));
    assert_eq!(reference, cold_lines, "cold restart is byte-identical");
    assert_eq!(
        cold.metrics().cache.warm_hits,
        0,
        "a cold start has nothing warm to hit"
    );

    // Warmed restart: snapshot imported before the first request.
    let warmed = dir_service(&dir);
    let report = warmed.load_snapshot().unwrap();
    assert_eq!(report.loaded, written.entries);
    assert_eq!(report.stale_dropped, 0);
    assert!(!report.quarantined && !report.missing);
    let warm = warmed.finish_warmup();
    assert_eq!(warm, written.entries);
    assert_eq!(warmed.metrics().warm_entries, warm);

    let warmed_lines = payload_lines(&warmed.handle_batch(&traffic));
    assert_eq!(reference, warmed_lines, "warmed restart is byte-identical");
    let stats = warmed.metrics();
    assert!(
        stats.cache.warm_hits > 0,
        "warmed restart serves from pre-warmed entries: {:?}",
        stats.cache
    );
    assert_eq!(
        stats.cache.misses, 0,
        "every unique job was persisted, so nothing recompiles"
    );
    assert_eq!(
        stats.responses[CacheStatus::Hit as usize],
        traffic.len() as u64,
        "every request is answered from the warmed cache"
    );
    // The persistence block is visible to operators.
    let stats_text = serde_json::to_string(&warmed.stats_value());
    assert!(stats_text.contains("\"warm_entries\""), "{stats_text}");
    assert!(stats_text.contains("\"warm_hits\""), "{stats_text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_snapshot_quarantines_and_cold_starts_cleanly() {
    let dir = scratch_dir("torn");
    save_models(&dir, 5);
    let traffic = mixed_traffic();
    let original = dir_service(&dir);
    original.handle_batch(&traffic);
    original.write_snapshot().unwrap();
    drop(original);

    // Truncate the snapshot mid-entry: a crash during a write that
    // somehow bypassed the atomic rename, or disk corruption.
    let path = snapshot_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let restarted = dir_service(&dir);
    let report = restarted.load_snapshot().unwrap();
    assert!(report.quarantined, "torn snapshot detected: {report:?}");
    assert_eq!(report.loaded, 0);
    assert!(
        ModelRegistry::quarantine_path(&path).exists(),
        "torn bytes preserved as .corrupt for post-mortems"
    );
    assert!(!path.exists(), "torn file moved out of the way");
    assert_eq!(restarted.finish_warmup(), 0, "cold start");

    // The service still answers everything, identically to a cold run.
    let responses = restarted.handle_batch(&traffic);
    assert!(
        responses.iter().all(|r| r.result.is_ok()),
        "a quarantined snapshot never breaks serving"
    );
    // And a second load after quarantine sees a genuinely missing file.
    let again = dir_service(&dir);
    assert!(again.load_snapshot().unwrap().missing);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_never_resurrects_answers_from_a_changed_checkpoint() {
    let dir = scratch_dir("stale");
    save_models(&dir, 5);
    let traffic = mixed_traffic();
    let original = dir_service(&dir);
    original.handle_batch(&traffic);
    let written = original.write_snapshot().unwrap();
    drop(original);

    // The critical-depth checkpoint is replaced by a retrained policy
    // before the restart (a deploy landed between snapshot and boot).
    let cd = ShardKey::wildcard(RewardKind::CriticalDepth);
    tiny_model(RewardKind::CriticalDepth, 41)
        .save(&ModelRegistry::model_path(&dir, cd))
        .unwrap();

    let restarted = dir_service(&dir);
    let report = restarted.load_snapshot().unwrap();
    assert!(
        report.stale_dropped > 0,
        "entries of the swapped shard are dropped: {report:?}"
    );
    assert_eq!(
        report.loaded + report.stale_dropped,
        written.entries,
        "every persisted entry is either imported or dropped, never lost"
    );
    restarted.finish_warmup();

    // The swapped shard recomputes under its *new* policy; unchanged
    // shards serve warm. The proof of non-resurrection: the restarted
    // answers equal a fully cold service's answers on the same disk
    // state, for every request.
    let restarted_lines = payload_lines(&restarted.handle_batch(&traffic));
    let stats = restarted.metrics();
    assert!(
        stats.cache.misses > 0,
        "the swapped shard's requests recompute: {:?}",
        stats.cache
    );
    assert!(
        stats.cache.warm_hits > 0,
        "unchanged shards still serve warm: {:?}",
        stats.cache
    );
    let cold = dir_service(&dir);
    let cold_lines = payload_lines(&cold.handle_batch(&traffic));
    assert_eq!(
        restarted_lines, cold_lines,
        "a stale-snapshot restart answers exactly like a cold start on the new checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recalibration_drops_exactly_that_devices_fidelity_entries_on_reload() {
    use qrc_device::{
        CalibrationSpec, DeviceRegistry, DeviceSource, DeviceSpec, Platform, ProfileSpec,
        TopologySpec,
    };
    let dir = scratch_dir("calibration");
    save_models(&dir, 5);
    // A dynamic device unique to this test: the registry is global and
    // tests share one process, so built-ins are never recalibrated.
    let ring = DeviceRegistry::register(
        DeviceSpec::synthetic(
            "persist_test_ring_9",
            Platform::Oqc,
            TopologySpec::Ring { qubits: 9 },
        ),
        DeviceSource::Runtime,
    )
    .unwrap();

    // Every objective × {dynamic pin, built-in pin}: six unique jobs.
    let mut bell = qrc_circuit::QuantumCircuit::new(2);
    bell.h(0).cx(0, 1).measure_all();
    let qasm = qrc_circuit::qasm::to_qasm(&bell);
    let mut traffic = Vec::new();
    for (i, pin) in [Some(ring), Some(DeviceId::IonqHarmony)]
        .into_iter()
        .enumerate()
    {
        for objective in RewardKind::ALL {
            let mut request = ServeRequest::new(qasm.clone());
            request.id = Some(format!("c{i}-{objective}"));
            request.objective = objective;
            request.device_pin = pin;
            traffic.push(request);
        }
    }

    let original = dir_service(&dir);
    let reference = payload_lines(&original.handle_batch(&traffic));
    assert!(
        reference.iter().all(|l| l.contains("\"ok\":true")),
        "{reference:?}"
    );
    let written = original.write_snapshot().unwrap();
    assert_eq!(written.entries, traffic.len() as u64);
    drop(original);

    // The ring is recalibrated between snapshot and restart (different
    // synthetic seed → different error rates, same structure).
    DeviceRegistry::calibrate(
        ring,
        CalibrationSpec::Synthetic {
            profile: ProfileSpec::Named("superconducting_oqc".into()),
            seed: Some("persist_test_ring_9_recal".into()),
        },
    )
    .unwrap();

    let restarted = dir_service(&dir);
    let report = restarted.load_snapshot().unwrap();
    // Exactly the recalibrated device's calibration-keyed entries drop
    // (fidelity + combination on the ring); its critical-depth entry
    // and every built-in entry stay warm.
    assert_eq!(report.calibration_dropped, 2, "{report:?}");
    assert_eq!(report.stale_dropped, 0, "{report:?}");
    assert_eq!(report.unknown_skipped, 0, "{report:?}");
    assert_eq!(report.loaded, written.entries - 2);
    restarted.finish_warmup();

    let after = payload_lines(&restarted.handle_batch(&traffic));
    let mut changed = 0;
    for ((request, before), now) in traffic.iter().zip(&reference).zip(&after) {
        if request.device_pin == Some(ring) && request.objective.uses_calibration() {
            assert_ne!(
                before, now,
                "recalibrated fidelity answers change: {:?}",
                request.id
            );
            changed += 1;
        } else {
            assert_eq!(
                before, now,
                "non-calibration answers stay byte-identical: {:?}",
                request.id
            );
        }
    }
    assert_eq!(changed, 2);
    let stats = restarted.metrics();
    assert_eq!(
        stats.cache.misses, 2,
        "only the dropped entries recompute: {:?}",
        stats.cache
    );
    assert!(stats.cache.warm_hits >= 4, "{:?}", stats.cache);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_under_load_and_around_reloads_drops_nothing() {
    let dir = scratch_dir("race");
    save_models(&dir, 5);
    let service = dir_service(&dir);

    // Same harness style as tests/reload.rs: 3 worker threads hammer
    // the service while the main thread snapshots and reloads in both
    // orders. Every response must be ok.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = mixed_traffic();
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let traffic = traffic.clone();
            std::thread::spawn(move || -> (u64, u64) {
                let mut ok = 0u64;
                let mut failed = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let mut request = traffic[i % traffic.len()].clone();
                    request.id = Some(format!("w{w}-{i}"));
                    for response in service.handle_batch(std::slice::from_ref(&request)) {
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

    // snapshot → reload → snapshot → reload, interleaved with load.
    let first = service.write_snapshot().unwrap();
    service.reload().unwrap();
    let second = service.write_snapshot().unwrap();
    service.reload().unwrap();
    assert!(second.entries >= first.entries.min(1));

    stop.store(true, Ordering::SeqCst);
    let mut total_ok = 0u64;
    for worker in workers {
        let (ok, failed) = worker.join().unwrap();
        assert_eq!(failed, 0, "snapshot/reload under load fails zero requests");
        total_ok += ok;
    }
    assert!(total_ok > 0, "the load generators actually ran");

    // The final snapshot on disk is structurally valid and restorable.
    match load_snapshot_file(&snapshot_path(&dir)).unwrap() {
        SnapshotLoad::Loaded(snapshot) => {
            assert_eq!(snapshot.entries.len() as u64, second.entries);
        }
        other => panic!("expected a valid snapshot, got {other:?}"),
    }
    let warmed = dir_service(&dir);
    let report = warmed.load_snapshot().unwrap();
    assert_eq!(
        report.loaded + report.stale_dropped,
        second.entries,
        "the mid-load snapshot restores (stale only if a reload raced a write)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property: snapshot export → import round-trips arbitrary cache
// states with per-shard LRU recency preserved, so a warmed cache
// evicts in the same order a never-restarted one would.

/// A strategy over shard keys drawn from the full key space (the
/// vendored proptest has no `sample::select`; index ranges do the job).
fn shard_key_strategy() -> impl Strategy<Value = ShardKey> {
    let bands = [
        qrc_serve::WidthBand::Any,
        qrc_serve::WidthBand::Narrow,
        qrc_serve::WidthBand::Medium,
        qrc_serve::WidthBand::Wide,
    ];
    let classes = qrc_serve::DeviceClass::all();
    let class_count = classes.len();
    (0..RewardKind::ALL.len(), 0..class_count, 0..bands.len()).prop_map(move |(o, c, b)| ShardKey {
        objective: RewardKind::ALL[o],
        device_class: classes[c],
        width_band: bands[b],
    })
}

fn pin_strategy() -> impl Strategy<Value = Option<DeviceId>> {
    (0..=DeviceId::ALL.len()).prop_map(|i| match i {
        0 => None,
        i => Some(DeviceId::ALL[i - 1]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_round_trips_arbitrary_cache_states(
        circuits in proptest::collection::vec(
            qrc_circuit::strategies::circuit(1..=5u32, 12), 1..16),
        pins in proptest::collection::vec(pin_strategy(), 16),
        shards in proptest::collection::vec(shard_key_strategy(), 16),
        touches in proptest::collection::vec(0..16usize, 0..24),
        capacity in 4..48usize,
        cache_shards in 1..6usize,
    ) {
        // Build a cache state from random circuits, pins, and shards.
        let cache = ResultCache::new(capacity, cache_shards);
        let mut keys = Vec::new();
        for (i, qc) in circuits.iter().enumerate() {
            let key = CacheKey {
                circuit_hash: qc.structural_hash(),
                device_pin: pins[i % pins.len()],
                shard: shards[i % shards.len()],
                generation: 0,
            };
            let result = Arc::new(CompiledResult {
                qasm: qrc_circuit::qasm::to_qasm(qc),
                device: pins[(i + 1) % pins.len()],
                actions: vec![format!("a{i}"), "terminate".into()],
                reward: i as f64 / 7.0,
            });
            cache.insert(key, result);
            keys.push(key);
        }
        // Random recency shuffling: touched entries become recent.
        for t in touches {
            cache.get(&keys[t % keys.len()]);
        }

        // Export → NDJSON → import into an identically shaped cache.
        let exported = cache.export();
        let snapshot = CacheSnapshot {
            shards: vec![],
            devices: vec![],
            skipped_unknown: 0,
            entries: exported
                .iter()
                .map(|(key, value)| PersistedEntry {
                    circuit_hash: key.circuit_hash,
                    device_pin: key.device_pin,
                    shard: key.shard,
                    result: (**value).clone(),
                })
                .collect(),
        };
        let decoded = CacheSnapshot::from_ndjson(&snapshot.to_ndjson()).unwrap();
        prop_assert_eq!(&decoded, &snapshot, "NDJSON round trip is lossless");

        let restored = ResultCache::new(capacity, cache_shards);
        restored.import(decoded.entries.into_iter().map(|entry| {
            (
                CacheKey {
                    circuit_hash: entry.circuit_hash,
                    device_pin: entry.device_pin,
                    shard: entry.shard,
                    generation: 0,
                },
                Arc::new(entry.result),
            )
        }));

        // Same entries, same values, same per-shard recency order —
        // so both caches would evict victims in the same order.
        let round_tripped = restored.export();
        prop_assert_eq!(round_tripped.len(), exported.len());
        for ((ka, va), (kb, vb)) in exported.iter().zip(round_tripped.iter()) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(&**va, &**vb);
        }
    }
}
