//! [`CompilationService`]: the composition of registry, cache,
//! scheduler, and metrics behind one `handle_*` API, with copy-on-swap
//! registry hot-reload.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use qrc_benchgen::paper_suite;
use qrc_device::{CalibrationSpec, DeviceId, DeviceRegistry};
use qrc_obs::{TraceEvent, TraceSink};
use qrc_predictor::PersistError;
use serde_json::Value;

use crate::cache::{CacheKey, ResultCache};
use crate::metrics::{MetricsSnapshot, ServeMetrics, Stage};
use crate::persist::{
    head_of_distribution, load_snapshot_file, snapshot_path, CacheSnapshot, PersistedEntry,
    SnapshotDeviceStamp, SnapshotLoad, SnapshotShardStamp, TrafficLog,
};
use crate::protocol::{ServeRequest, ServeResponse};
use crate::registry::{ModelRegistry, ReloadReport};
use crate::scheduler;
use crate::shard::ShardKey;

/// Startup configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory holding (or receiving) model checkpoints.
    pub models_dir: PathBuf,
    /// Extra shards to ensure at startup (trained on their scoped
    /// benchmark slice when the checkpoint is missing), on top of the
    /// three objective-only wildcard shards that are always ensured.
    pub shards: Vec<ShardKey>,
    /// Training budget per objective when a checkpoint is missing.
    pub timesteps: usize,
    /// Master seed: drives missing-model training and, mixed with each
    /// job's content hash, the per-job rollout seeds.
    pub seed: u64,
    /// Reward-shaping penalty for missing-model training.
    pub step_penalty: f64,
    /// Largest width of the training suite for missing models.
    pub train_max_qubits: u32,
    /// Total result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Number of cache shards.
    pub cache_shards: usize,
    /// Fan cache misses across the rayon pool.
    pub parallel: bool,
    /// Print training progress to stderr during a cold start.
    pub verbose: bool,
    /// Reject request lines longer than this many bytes before
    /// parsing them (a size limit, so one oversized payload cannot
    /// balloon memory).
    pub max_request_bytes: usize,
    /// Reject circuits wider than this many qubits at admission.
    pub max_circuit_qubits: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            models_dir: PathBuf::from("models"),
            shards: Vec::new(),
            timesteps: 8_000,
            seed: 3,
            step_penalty: 0.005,
            train_max_qubits: 6,
            cache_capacity: 4096,
            cache_shards: 16,
            parallel: true,
            verbose: true,
            max_request_bytes: 1 << 20,
            max_circuit_qubits: 128,
        }
    }
}

/// One NDJSON line annotated with the time it spent queued in the
/// front end before being scheduled — the pipelined reader records the
/// arrival instant, and the wait is folded into the reported latency.
#[derive(Debug, Clone)]
pub struct QueuedLine {
    /// The raw request line.
    pub line: String,
    /// Microseconds between arrival and batch scheduling.
    pub queue_us: u64,
}

/// Reads the live request-queue depth of whichever front end is
/// driving the service (the queue lives in the front end, not here).
type QueueDepthProbe = Box<dyn Fn() -> u64 + Send + Sync>;

/// A running compilation service: models loaded, cache warm-able,
/// ready to answer batches.
///
/// The registry is held behind a copy-on-swap snapshot: every batch
/// routes against one [`Arc<ModelRegistry>`] clone taken at batch
/// start, and a hot-reload atomically replaces the shared snapshot —
/// in-flight batches finish on the shard map they started with while
/// new batches route against fresh checkpoints. No request is ever
/// dropped by a reload.
pub struct CompilationService {
    registry: RwLock<Arc<ModelRegistry>>,
    /// Serializes reloads end to end (rescan → swap → cache purge):
    /// two concurrent rescans interleaving with a quarantine could
    /// otherwise swap in a map that silently drops a healthy shard.
    /// Snapshot writes take the same lock, so a snapshot and a reload
    /// are safe in either order but never interleaved.
    reload_lock: Mutex<()>,
    /// Where hot-reloads rescan checkpoints from (`None` for purely
    /// in-memory registries built by tests and the bench harness).
    models_dir: Option<PathBuf>,
    reloads: AtomicU64,
    /// Live recalibrations applied since start.
    calibrations: AtomicU64,
    /// Cache entries invalidated by recalibrations (fidelity-keyed
    /// answers of the recalibrated device only).
    calibration_invalidated: AtomicU64,
    cache: ResultCache,
    /// Total cache capacity — caps how many unique jobs a traffic-log
    /// warmup pre-compiles (warming beyond capacity just evicts).
    cache_capacity: usize,
    metrics: ServeMetrics,
    /// Optional append-only log of served compilation requests.
    traffic_log: Mutex<Option<TrafficLog>>,
    /// Entries resident when warmup finished (0 = cold start).
    warm_entries: AtomicU64,
    /// When the last snapshot was written and how many entries it held.
    last_snapshot: Mutex<Option<(Instant, u64)>>,
    seed: u64,
    batch_options: scheduler::BatchOptions,
    max_request_bytes: usize,
    /// Monotone request-ID source: every line the service answers gets
    /// the next `rid`, in admission order, echoed on the wire and
    /// stamped on log lines and trace spans.
    rids: AtomicU64,
    /// The active span sink (disabled unless tracing was enabled).
    trace: RwLock<Arc<TraceSink>>,
    /// Live queue-depth gauge, installed by the pipelined front ends.
    queue_probe: RwLock<Option<QueueDepthProbe>>,
    /// The last offline retraining run's persisted report, read from
    /// [`RETRAIN_STATE_FILE`](crate::retrain::RETRAIN_STATE_FILE)
    /// beside the checkpoints at startup and after every reload (a
    /// reload is the moment a finished `qrc-retrain` run becomes
    /// visible to this process).
    retrain_state: Mutex<Option<Value>>,
}

/// What loading a persisted cache snapshot did at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotWarmup {
    /// Entries imported into the cache.
    pub loaded: u64,
    /// Entries dropped because their shard's checkpoint changed since
    /// the snapshot (or the shard is gone): a swapped model must never
    /// serve a stale persisted answer.
    pub stale_dropped: u64,
    /// Calibration-keyed entries dropped because their device was
    /// recalibrated since the snapshot (the device's live calibration
    /// hash no longer matches the persisted stamp).
    pub calibration_dropped: u64,
    /// Entry lines skipped because they name a device this process's
    /// registry does not know (a vanished dynamic spec).
    pub unknown_skipped: u64,
    /// `true` when a torn/truncated snapshot was quarantined to
    /// `.corrupt` (the service cold-starts cleanly).
    pub quarantined: bool,
    /// `true` when no snapshot file existed.
    pub missing: bool,
}

/// What replaying a traffic log did at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayWarmup {
    /// `true` when the log file did not exist yet — an empty warmup,
    /// not an error, so one fixed restart command that both writes and
    /// replays the same log path self-bootstraps on first boot.
    pub missing: bool,
    /// Request lines read from the log.
    pub log_requests: usize,
    /// Unique jobs in the replayed head of the distribution.
    pub unique_jobs: usize,
    /// Jobs that compiled (or were already cached) successfully.
    pub compiled: u64,
    /// Jobs that failed admission or compilation (left cold).
    pub failed: u64,
}

/// The outcome of one snapshot write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotWritten {
    /// Entries persisted.
    pub entries: u64,
    /// Resident entries skipped: their serving shard has no checkpoint
    /// on disk to validate against (in-memory models), or their policy
    /// generation is no longer current (a reload raced the batch that
    /// produced them).
    pub skipped: u64,
    /// Where the snapshot landed.
    pub path: PathBuf,
}

impl CompilationService {
    /// Starts a service from `config`: loads every checkpoint in
    /// `models_dir`, training and persisting missing shards first (a
    /// warm start with every required checkpoint present trains
    /// nothing).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when checkpoints are corrupt or the
    /// models directory is unwritable.
    pub fn start(config: &ServiceConfig) -> Result<CompilationService, PersistError> {
        let suite = paper_suite(2, config.train_max_qubits);
        let verbose = config.verbose;
        let registry = ModelRegistry::ensure_with_shards(
            &config.models_dir,
            &suite,
            &config.shards,
            config.timesteps,
            config.seed,
            config.step_penalty,
            |name| {
                if verbose {
                    eprintln!("training missing model for shard `{name}`…");
                }
            },
        )?;
        let mut service = Self::with_registry(registry, config);
        service.models_dir = Some(config.models_dir.clone());
        service.refresh_retrain_state();
        Ok(service)
    }

    /// Builds a service around an existing registry (no disk access;
    /// used by the bench harness and tests). Hot-reload is unavailable
    /// — there is no models directory to rescan.
    pub fn with_registry(registry: ModelRegistry, config: &ServiceConfig) -> CompilationService {
        CompilationService {
            registry: RwLock::new(Arc::new(registry)),
            reload_lock: Mutex::new(()),
            models_dir: None,
            reloads: AtomicU64::new(0),
            calibrations: AtomicU64::new(0),
            calibration_invalidated: AtomicU64::new(0),
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
            cache_capacity: config.cache_capacity,
            metrics: ServeMetrics::new(),
            traffic_log: Mutex::new(None),
            warm_entries: AtomicU64::new(0),
            last_snapshot: Mutex::new(None),
            seed: config.seed,
            batch_options: scheduler::BatchOptions {
                parallel: config.parallel,
                max_qubits: config.max_circuit_qubits,
            },
            max_request_bytes: config.max_request_bytes,
            rids: AtomicU64::new(0),
            trace: RwLock::new(Arc::new(TraceSink::disabled())),
            queue_probe: RwLock::new(None),
            retrain_state: Mutex::new(None),
        }
    }

    /// Re-reads the persisted retrain report (written by `qrc-retrain`
    /// beside the checkpoints) into the stats cache. Best-effort: a
    /// missing or garbled state file reads as "no retrain yet".
    fn refresh_retrain_state(&self) {
        let state = self
            .models_dir
            .as_deref()
            .and_then(crate::retrain::load_retrain_state);
        *self.retrain_state.lock().expect("retrain state poisoned") = state;
    }

    /// Enables request tracing: one request in `sample_every` gets a
    /// span tree in the returned sink (0 disables). The sink is also
    /// retrievable later via [`Self::trace_sink`], e.g. to write the
    /// Chrome-trace file at drain.
    pub fn enable_tracing(&self, sample_every: u64) -> Arc<TraceSink> {
        let sink = Arc::new(TraceSink::new(
            sample_every,
            qrc_obs::trace::DEFAULT_TRACE_CAPACITY,
        ));
        *self.trace.write().expect("trace sink poisoned") = Arc::clone(&sink);
        sink
    }

    /// The active trace sink (a disabled sink when tracing is off).
    pub fn trace_sink(&self) -> Arc<TraceSink> {
        Arc::clone(&self.trace.read().expect("trace sink poisoned"))
    }

    /// Installs the live queue-depth gauge. The bounded request queue
    /// belongs to the front end, so [`serve_socket`](crate::listener)
    /// and [`serve_stdin`](crate::listener) hand the service a probe at
    /// startup; `{"cmd":"stats"}` and the Prometheus rendering read it.
    pub fn install_queue_probe(&self, probe: QueueDepthProbe) {
        *self.queue_probe.write().expect("queue probe poisoned") = Some(probe);
    }

    /// The front-end queue's current depth, when a probe is installed.
    pub fn queue_depth(&self) -> Option<u64> {
        self.queue_probe
            .read()
            .expect("queue probe poisoned")
            .as_ref()
            .map(|probe| probe())
    }

    /// The current registry snapshot. Batches hold the snapshot they
    /// started with; a concurrent reload only affects later batches.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry.read().expect("registry lock poisoned"))
    }

    /// Rescans the models directory and atomically swaps in the fresh
    /// shard map. Corrupt checkpoints are quarantined to `.corrupt`
    /// with the previously loaded shard kept serving; in-flight batches
    /// finish on the old snapshot; nothing is trained. Cached results
    /// whose serving shard's policy changed are invalidated, so
    /// re-routed traffic recomputes under the new checkpoint instead
    /// of replaying the old policy's answers.
    ///
    /// Concurrent reloads are serialized end to end: a second
    /// `{"cmd":"reload"}` waits for the first to finish rather than
    /// rescanning a directory mid-quarantine.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the service has no models
    /// directory (in-memory registry) or on real I/O failures — the
    /// old registry keeps serving in both cases.
    pub fn reload(&self) -> Result<ReloadReport, PersistError> {
        let dir = self.models_dir.as_ref().ok_or_else(|| {
            PersistError::Format(
                "this service was started from an in-memory registry; there is no \
                 models directory to reload from"
                    .into(),
            )
        })?;
        let _serialized = self.reload_lock.lock().expect("reload lock poisoned");
        let previous = self.registry();
        let (fresh, mut report) = ModelRegistry::rescan(dir, &previous)?;
        let changed: std::collections::HashSet<_> =
            ModelRegistry::changed_shards(&previous, &fresh)
                .into_iter()
                .collect();
        *self.registry.write().expect("registry lock poisoned") = Arc::new(fresh);
        // Purge changed shards' entries. This is memory hygiene, not a
        // correctness gate: cache keys carry the policy generation, so
        // even a batch still running on the old snapshot can only
        // read/write its own generation's entries — the purge just
        // frees what the new routing can no longer reach. Unchanged
        // shards keep their warm entries (their generation survives
        // the rescan).
        report.invalidated = self.cache.retain(|key| !changed.contains(&key.shard));
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.refresh_retrain_state();
        Ok(report)
    }

    /// Performs a hot-reload and renders the `{"cmd":"reload"}` reply:
    /// `{"ok":true,"reloaded":true,…}` with the reload report and the
    /// resulting shard set, or `{"ok":false,"error":…}` (the old
    /// registry keeps serving on failure).
    pub fn reload_value(&self) -> Value {
        match self.reload() {
            Ok(report) => {
                let mut pairs: Vec<(String, Value)> = vec![
                    ("ok".into(), Value::from(true)),
                    ("reloaded".into(), Value::from(true)),
                    (
                        "shards".into(),
                        Value::Array(
                            self.registry()
                                .keys()
                                .into_iter()
                                .map(|k| Value::from(k.name()))
                                .collect(),
                        ),
                    ),
                ];
                if let Value::Object(report_pairs) = report.to_value() {
                    pairs.extend(report_pairs);
                }
                Value::object(pairs)
            }
            Err(e) => Value::object(vec![
                ("ok", Value::from(false)),
                ("error", Value::from(format!("reload failed: {e}"))),
            ]),
        }
    }

    /// Number of hot-reloads performed since start.
    pub fn reload_count(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Applies a live recalibration to `device` and selectively purges
    /// the result cache: exactly the calibration-keyed entries
    /// (fidelity/combination objectives) that pinned or landed on that
    /// device are dropped; structure-only answers and every other
    /// device's entries stay warm. Serialized under the reload lock —
    /// the registry's copy-on-swap `Device` means in-flight batches
    /// finish on the calibration snapshot they started with, and no
    /// request ever fails because of a concurrent calibrate.
    ///
    /// Returns `(calibration_generation, entries_invalidated)`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown device or an invalid
    /// calibration spec; the device keeps its previous calibration and
    /// the cache is untouched on every error path.
    pub fn calibrate(&self, device: &str, calibration: &Value) -> Result<(u64, u64), String> {
        let id = DeviceId::from_name(device).ok_or_else(|| {
            format!(
                "unknown device `{device}` (known: {})",
                DeviceRegistry::all()
                    .iter()
                    .map(|d| DeviceRegistry::name(*d))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        let spec = CalibrationSpec::from_value(calibration)?;
        let _serialized = self.reload_lock.lock().expect("reload lock poisoned");
        let generation = DeviceRegistry::calibrate(id, spec)?;
        let invalidated = self.cache.retain_entries(|key, value| {
            !(key.shard.objective.uses_calibration()
                && (key.device_pin == Some(id) || value.device == Some(id)))
        });
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        self.calibration_invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
        Ok((generation, invalidated))
    }

    /// Performs a live recalibration and renders the
    /// `{"cmd":"calibrate"}` reply: `{"ok":true,"calibrated":true,…}`
    /// with the device's new calibration generation and the number of
    /// cache entries invalidated, or `{"ok":false,"error":…}` (the
    /// previous calibration keeps serving on failure).
    pub fn calibrate_value(&self, device: &str, calibration: &Value) -> Value {
        match self.calibrate(device, calibration) {
            Ok((generation, invalidated)) => Value::object(vec![
                ("ok", Value::from(true)),
                ("calibrated", Value::from(true)),
                ("device", Value::from(device)),
                ("calibration_generation", Value::from(generation)),
                ("invalidated", Value::from(invalidated)),
            ]),
            Err(e) => Value::object(vec![
                ("ok", Value::from(false)),
                ("error", Value::from(format!("calibrate failed: {e}"))),
            ]),
        }
    }

    /// Number of live recalibrations applied since start.
    pub fn calibration_count(&self) -> u64 {
        self.calibrations.load(Ordering::Relaxed)
    }

    /// Cache entries invalidated by recalibrations since start.
    pub fn calibration_invalidated(&self) -> u64 {
        self.calibration_invalidated.load(Ordering::Relaxed)
    }

    /// Starts appending every scheduled compilation request to the
    /// traffic log at `path` (one canonical request line per request;
    /// control commands and unparseable lines are never logged).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the log cannot be opened.
    pub fn set_traffic_log(&self, path: &Path) -> std::io::Result<()> {
        let log = TrafficLog::append(path)?;
        *self.traffic_log.lock().expect("traffic log poisoned") = Some(log);
        Ok(())
    }

    /// Appends one scheduled batch to the traffic log, if enabled.
    fn log_traffic(&self, requests: &[ServeRequest]) {
        if requests.is_empty() {
            return;
        }
        if let Some(log) = &*self.traffic_log.lock().expect("traffic log poisoned") {
            log.log_batch(requests);
        }
    }

    /// Imports the persisted cache snapshot next to the model
    /// checkpoints, if one exists. Entries whose shard's checkpoint
    /// identity changed since the snapshot are dropped (never served
    /// stale); survivors are rebased onto the live registry's policy
    /// generations and inserted in their original eviction order. A
    /// torn snapshot is quarantined to `.corrupt` and the service
    /// cold-starts — mirroring the registry's torn-checkpoint handling.
    ///
    /// Call before taking traffic, then [`Self::finish_warmup`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the service has no models
    /// directory (in-memory registry) or on real I/O failures.
    pub fn load_snapshot(&self) -> Result<SnapshotWarmup, PersistError> {
        let dir = self.persistence_dir()?;
        let mut snapshot = match load_snapshot_file(&snapshot_path(dir))? {
            SnapshotLoad::Missing => {
                return Ok(SnapshotWarmup {
                    missing: true,
                    ..SnapshotWarmup::default()
                })
            }
            SnapshotLoad::Quarantined(_) => {
                return Ok(SnapshotWarmup {
                    quarantined: true,
                    ..SnapshotWarmup::default()
                })
            }
            SnapshotLoad::Loaded(snapshot) => snapshot,
        };
        // Move the entries out so `stamp_of` can keep borrowing the
        // header while they are consumed.
        let entries = std::mem::take(&mut snapshot.entries);
        let registry = self.registry();
        let mut report = SnapshotWarmup {
            unknown_skipped: snapshot.skipped_unknown,
            ..SnapshotWarmup::default()
        };
        // A calibration-keyed entry (fidelity/combination objective) is
        // only restorable when every device it references still has the
        // calibration content it was computed under. Structure-only
        // entries (critical depth) survive any recalibration.
        let calibration_current = |entry: &PersistedEntry| -> bool {
            if !entry.shard.objective.uses_calibration() {
                return true;
            }
            [entry.device_pin, entry.result.device]
                .into_iter()
                .flatten()
                .all(|id| {
                    snapshot.calibration_stamp_of(DeviceRegistry::name(id))
                        == Some(DeviceRegistry::calibration_hash(id))
                })
        };
        let mut imports: Vec<(CacheKey, Arc<crate::protocol::CompiledResult>)> = Vec::new();
        for entry in entries {
            let unchanged = snapshot
                .stamp_of(entry.shard)
                .zip(registry.checkpoint_identity(entry.shard))
                .is_some_and(|(persisted, live)| persisted.matches(&live));
            match (unchanged, registry.generation_of(entry.shard)) {
                (true, Some(generation)) => {
                    if !calibration_current(&entry) {
                        report.calibration_dropped += 1;
                        continue;
                    }
                    imports.push((
                        CacheKey {
                            circuit_hash: entry.circuit_hash,
                            device_pin: entry.device_pin,
                            shard: entry.shard,
                            generation,
                        },
                        Arc::new(entry.result),
                    ));
                }
                _ => report.stale_dropped += 1,
            }
        }
        report.loaded = self.cache.import(imports);
        Ok(report)
    }

    /// Pre-compiles the head of a traffic log's request distribution
    /// (unique jobs ranked by frequency, capped at the cache capacity)
    /// so a restarted server answers its hottest circuits at hit-rate
    /// speed from the first request. Jobs already resident (e.g. just
    /// imported from a snapshot) cost one cache lookup, not a rollout.
    ///
    /// Warmup traffic is invisible to serving metrics and is never
    /// re-appended to the traffic log. Call before taking traffic,
    /// then [`Self::finish_warmup`].
    ///
    /// A log that does not exist yet is an empty warmup, not an error
    /// (the same command that writes the log can replay it from the
    /// first boot on).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the log exists but cannot
    /// be read.
    pub fn replay_log(&self, path: &Path) -> std::io::Result<ReplayWarmup> {
        let requests = match TrafficLog::read_requests(path) {
            Ok(requests) => requests,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(ReplayWarmup {
                    missing: true,
                    ..ReplayWarmup::default()
                })
            }
            Err(e) => return Err(e),
        };
        let head = head_of_distribution(&requests, self.cache_capacity);
        let registry = self.registry();
        let responses = scheduler::run_batch(
            &registry,
            &self.cache,
            self.seed,
            &self.batch_options,
            &head,
            None,
        )
        .responses;
        let failed = responses.iter().filter(|r| r.result.is_err()).count() as u64;
        Ok(ReplayWarmup {
            missing: false,
            log_requests: requests.len(),
            unique_jobs: head.len(),
            compiled: head.len() as u64 - failed,
            failed,
        })
    }

    /// Seals the warmup phase: flags every resident entry as *warm*
    /// (their hits count under `warm_hits`) and zeroes the cache's
    /// lookup counters so serving-phase stats start clean. Returns the
    /// number of warm entries. Idempotent; a no-warmup start may skip
    /// it.
    pub fn finish_warmup(&self) -> u64 {
        let warm = self.cache.mark_warm();
        self.cache.reset_counters();
        self.warm_entries.store(warm, Ordering::Relaxed);
        warm
    }

    /// Entries that were resident when warmup finished.
    pub fn warm_entries(&self) -> u64 {
        self.warm_entries.load(Ordering::Relaxed)
    }

    /// Persists the result cache to `cache_snapshot.ndjson` next to
    /// the checkpoints: every resident entry whose serving shard has a
    /// checkpoint on disk *and* whose policy generation is current,
    /// written atomically (fsync before rename) in eviction order.
    /// Serialized against hot-reloads via the reload lock, so a
    /// snapshot taken mid-reload observes either the old registry or
    /// the new one — never a half-swapped hybrid.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the service has no models
    /// directory (in-memory registry) or the write fails.
    pub fn write_snapshot(&self) -> Result<SnapshotWritten, PersistError> {
        let dir = self.persistence_dir()?.to_path_buf();
        let _serialized = self.reload_lock.lock().expect("reload lock poisoned");
        let registry = self.registry();
        let mut stamps: Vec<SnapshotShardStamp> = Vec::new();
        let mut entries: Vec<PersistedEntry> = Vec::new();
        let mut skipped = 0u64;
        for (key, value) in self.cache.export() {
            let identity = registry.checkpoint_identity(key.shard);
            match (identity, registry.generation_of(key.shard)) {
                (Some(identity), Some(generation)) if generation == key.generation => {
                    if !stamps.iter().any(|s| s.shard == key.shard) {
                        stamps.push(SnapshotShardStamp {
                            shard: key.shard,
                            identity,
                        });
                    }
                    entries.push(PersistedEntry {
                        circuit_hash: key.circuit_hash,
                        device_pin: key.device_pin,
                        shard: key.shard,
                        result: (*value).clone(),
                    });
                }
                // Unprovable provenance (in-memory shard) or an entry
                // from a superseded policy generation: skipping is the
                // safe choice — restoring it could resurrect an answer
                // its checkpoint no longer stands behind.
                _ => skipped += 1,
            }
        }
        stamps.sort_by_key(|s| s.shard);
        // Stamp every referenced device with its current calibration
        // content hash: a future load drops fidelity-keyed entries
        // whose device was recalibrated in between.
        let mut referenced: Vec<DeviceId> = entries
            .iter()
            .flat_map(|e| [e.device_pin, e.result.device])
            .flatten()
            .collect();
        referenced.sort();
        referenced.dedup();
        let devices: Vec<SnapshotDeviceStamp> = referenced
            .into_iter()
            .map(|id| SnapshotDeviceStamp {
                device: DeviceRegistry::name(id).to_string(),
                calibration_hash: DeviceRegistry::calibration_hash(id),
            })
            .collect();
        let written = entries.len() as u64;
        let path = snapshot_path(&dir);
        CacheSnapshot {
            shards: stamps,
            devices,
            entries,
            skipped_unknown: 0,
        }
        .write(&path)?;
        *self.last_snapshot.lock().expect("snapshot stamp poisoned") =
            Some((Instant::now(), written));
        Ok(SnapshotWritten {
            entries: written,
            skipped,
            path,
        })
    }

    /// Performs a snapshot and renders the `{"cmd":"snapshot"}` reply:
    /// `{"ok":true,"snapshot":true,…}` with entry counts and the file
    /// path, or `{"ok":false,"error":…}` (serving is unaffected either
    /// way).
    pub fn snapshot_value(&self) -> Value {
        match self.write_snapshot() {
            Ok(written) => Value::object(vec![
                ("ok", Value::from(true)),
                ("snapshot", Value::from(true)),
                ("entries", Value::from(written.entries)),
                ("skipped", Value::from(written.skipped)),
                ("path", Value::from(written.path.display().to_string())),
            ]),
            Err(e) => Value::object(vec![
                ("ok", Value::from(false)),
                ("error", Value::from(format!("snapshot failed: {e}"))),
            ]),
        }
    }

    /// The models directory, or the error every persistence entry
    /// point reports for in-memory registries.
    fn persistence_dir(&self) -> Result<&Path, PersistError> {
        self.models_dir.as_deref().ok_or_else(|| {
            PersistError::Format(
                "this service was started from an in-memory registry; there is no \
                 models directory to persist the cache in"
                    .into(),
            )
        })
    }

    /// Processes one batch of already-parsed requests, recording each
    /// response in the service metrics.
    pub fn handle_batch(&self, requests: &[ServeRequest]) -> Vec<ServeResponse> {
        let responses = self.run_batch(requests);
        for response in &responses {
            self.record(response);
        }
        responses
    }

    /// Scheduler entry without metrics recording (callers that adjust
    /// the reported latency first record themselves).
    fn run_batch(&self, requests: &[ServeRequest]) -> Vec<ServeResponse> {
        self.run_batch_queued(requests, None).responses
    }

    /// Scheduler entry with per-request queue waits folded into the
    /// reported latency. The whole batch routes against one registry
    /// snapshot.
    fn run_batch_queued(
        &self,
        requests: &[ServeRequest],
        queue_waits_us: Option<&[u64]>,
    ) -> scheduler::BatchReport {
        // Every served compilation request lands in the traffic log
        // (warmup replays call the scheduler directly and stay out, so
        // a restart never re-amplifies its own warmup).
        self.log_traffic(requests);
        let registry = self.registry();
        let report = scheduler::run_batch(
            &registry,
            &self.cache,
            self.seed,
            &self.batch_options,
            requests,
            queue_waits_us,
        );
        // Stage histograms: every scheduled request contributes its own
        // admission time; only the request that claimed a miss
        // contributes compute (hits and coalesced duplicates did no
        // policy work — recording zeros for them would bury the real
        // compute distribution).
        for parts in &report.stages {
            self.metrics
                .record_stage(Stage::Admission, parts.admission_us);
            if parts.compute_us > 0 {
                self.metrics.record_stage(Stage::Compute, parts.compute_us);
            }
        }
        report
    }

    /// Records an already-built response into the service metrics.
    /// Front ends use this for replies they produce without
    /// scheduling (oversized lines, malformed control commands), so
    /// those still count as requests.
    pub fn record(&self, response: &ServeResponse) {
        self.metrics.record(
            response.micros,
            response.result.as_ref().ok().map(|(_, status)| *status),
            response.route.as_ref(),
        );
    }

    /// Processes one NDJSON request line into one NDJSON response line:
    /// a batch of one through the same line path as
    /// [`Self::handle_lines`] (size limit, parse and queue-wait stage
    /// samples, trace sampling).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_queued_inner(&[(line, 0)])
            .pop()
            .expect("one response per line")
            .to_line()
    }

    /// Processes many NDJSON lines as one scheduled batch, preserving
    /// order. Unparseable lines yield error responses in place.
    pub fn handle_lines(&self, lines: &[String]) -> Vec<String> {
        let items: Vec<(&str, u64)> = lines.iter().map(|line| (line.as_str(), 0)).collect();
        self.handle_queued_inner(&items)
            .iter()
            .map(ServeResponse::to_line)
            .collect()
    }

    /// Processes one batch of queued NDJSON lines, preserving order,
    /// with each line's queue wait folded into its reported latency.
    /// Unparseable and oversized lines yield error responses in place.
    /// Every response is recorded in the service metrics, with honest
    /// per-request wall-clock for hits, errors, and coalesced
    /// duplicates alike (never the `micros: 0` shortcut, and never a
    /// re-report of compute done for another request).
    pub fn handle_queued(&self, items: &[QueuedLine]) -> Vec<ServeResponse> {
        let refs: Vec<(&str, u64)> = items
            .iter()
            .map(|item| (item.line.as_str(), item.queue_us))
            .collect();
        self.handle_queued_inner(&refs)
    }

    /// The borrow-based core of the line paths: `(line, queue_us)`
    /// pairs in, recorded responses out, no line copies.
    fn handle_queued_inner(&self, items: &[(&str, u64)]) -> Vec<ServeResponse> {
        // Parse what we can, timing each line's parse: for hits and
        // errors, parsing *is* most of their real cost. A rejected
        // line carries whether its `id` may be recovered: not from an
        // oversized one, which is never parsed, so that its size limit
        // bounds the memory it can cost (the front ends answer such a
        // line with `id: null` too).
        let mut slots: Vec<Result<(), (String, bool)>> = Vec::with_capacity(items.len());
        let mut parse_us: Vec<u64> = Vec::with_capacity(items.len());
        let mut requests: Vec<ServeRequest> = Vec::new();
        let mut queue_waits: Vec<u64> = Vec::new();
        for (line, queue_us) in items {
            let parse_start = Instant::now();
            if line.len() > self.max_request_bytes {
                let message = oversized_error(line.len(), self.max_request_bytes);
                slots.push(Err((message, false)));
            } else {
                match ServeRequest::parse(line) {
                    Ok(request) => {
                        slots.push(Ok(()));
                        requests.push(request);
                        queue_waits.push(*queue_us);
                    }
                    Err(message) => slots.push(Err((message, true))),
                }
            }
            parse_us.push(parse_start.elapsed().as_micros() as u64);
        }
        let report = self.run_batch_queued(&requests, Some(&queue_waits));
        let mut scheduled = report.responses.into_iter().zip(report.stages);
        // Request IDs are handed out in admission order; each batch
        // reserves a contiguous block, so ids within a batch are
        // ordered even when batches race.
        let first_rid = self.rids.fetch_add(items.len() as u64, Ordering::Relaxed) + 1;
        let sink = self.trace_sink();
        let responses: Vec<ServeResponse> = slots
            .into_iter()
            .zip(items)
            .zip(parse_us)
            .enumerate()
            .map(|(index, ((slot, (line, queue_us)), parse_us))| {
                let (mut response, stage_parts) = match slot {
                    Ok(()) => {
                        let (mut response, parts) =
                            scheduled.next().expect("one response per request");
                        response.micros += parse_us;
                        (response, Some(parts))
                    }
                    Err((message, recover)) => (
                        ServeResponse {
                            id: recover.then(|| ServeRequest::recover_id(line)).flatten(),
                            result: Err(message),
                            micros: queue_us + parse_us,
                            route: None,
                            rid: None,
                        },
                        None,
                    ),
                };
                // Clock-resolution floor: sub-microsecond work (a
                // rejected parse, a tiny cached hit) reports 1µs, not
                // the old `micros: 0` shortcut that dragged p50 to
                // zero at high hit rates.
                response.micros = response.micros.max(1);
                response.rid = Some(first_rid + index as u64);
                self.metrics.record_stage(Stage::QueueWait, *queue_us);
                self.metrics.record_stage(Stage::Parse, parse_us);
                if sink.enabled() && sink.should_sample() {
                    self.push_request_trace(&sink, &response, *queue_us, parse_us, stage_parts);
                }
                response
            })
            .collect();
        for response in &responses {
            self.record(response);
        }
        responses
    }

    /// Synthesizes the sampled span tree for one answered request from
    /// its measured stage durations: a `request` root plus one child
    /// per nonzero stage, laid end to end on the service's monotonic
    /// timeline, with the request's `rid` as the track id — so each
    /// sampled request renders as its own lane in Perfetto.
    fn push_request_trace(
        &self,
        sink: &TraceSink,
        response: &ServeResponse,
        queue_us: u64,
        parse_us: u64,
        parts: Option<scheduler::ResponseStages>,
    ) {
        let rid = response.rid.unwrap_or(0);
        let end_us = self.metrics.uptime_us();
        let start_us = end_us.saturating_sub(response.micros);
        let mut root = TraceEvent::new("request", start_us, response.micros, rid);
        root = match &response.result {
            Ok((_, status)) => root.with_arg("cache", Value::from(status.name())),
            Err(message) => root.with_arg("error", Value::from(message.clone())),
        };
        if let Some(id) = &response.id {
            root = root.with_arg("id", Value::from(id.clone()));
        }
        let mut spans = vec![root];
        let (admission_us, compute_us) = match parts {
            Some(parts) => (parts.admission_us, parts.compute_us),
            None => (0, 0),
        };
        // The measured stages tile the request's wall-clock in the
        // order they actually ran; zero-length stages are elided.
        let mut cursor = start_us;
        for (name, dur_us) in [
            ("queue_wait", queue_us),
            ("parse", parse_us),
            ("admission", admission_us),
            ("compute", compute_us),
        ] {
            if dur_us > 0 {
                spans.push(TraceEvent::new(name, cursor, dur_us, rid));
                cursor += dur_us;
            }
        }
        sink.push(spans);
    }

    /// Records one observation of a front-end pipeline stage (the
    /// listener reports batch-assembly waits through this).
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.metrics.record_stage(stage, micros);
    }

    /// A point-in-time copy of one pipeline stage's histogram (the
    /// bench harness reconciles these against reported latencies).
    pub fn stage_histogram(&self, stage: Stage) -> qrc_obs::Histogram {
        self.metrics.stage_histogram(stage)
    }

    /// Counts one back-pressure rejection (the front end answers the
    /// client directly; the request never reaches the scheduler).
    pub fn record_rejected(&self) {
        self.metrics.record_rejected();
    }

    /// Aggregate metrics (requests, errors, cache counters, per-shard
    /// routing counters, latency percentiles).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cache.stats())
    }

    /// The full `{"cmd":"stats"}` reply: the metrics snapshot plus the
    /// registry block (loaded shard keys, checkpoint paths and mtimes,
    /// reload count), so operators can confirm a hot-reload took
    /// effect.
    pub fn stats_value(&self) -> Value {
        let mut value = self.metrics().to_value();
        if let Value::Object(pairs) = &mut value {
            pairs.push((
                "registry".into(),
                Value::object(vec![
                    ("shards", self.registry().to_value()),
                    ("reloads", Value::from(self.reload_count())),
                ]),
            ));
            // Every device this process can serve, with calibration
            // generation and spec provenance — so operators can confirm
            // a `--device-dir` load or a live calibrate took effect.
            pairs.push((
                "devices".into(),
                Value::object(vec![
                    ("known", DeviceRegistry::devices_value()),
                    ("calibrations", Value::from(self.calibration_count())),
                    (
                        "calibration_invalidated",
                        Value::from(self.calibration_invalidated()),
                    ),
                ]),
            ));
            let (age, entries) = match *self.last_snapshot.lock().expect("snapshot stamp poisoned")
            {
                Some((at, entries)) => (Value::from(at.elapsed().as_secs()), Value::from(entries)),
                None => (Value::Null, Value::Null),
            };
            pairs.push((
                "persistence".into(),
                Value::object(vec![
                    ("warm_entries", Value::from(self.warm_entries())),
                    ("snapshot_age_secs", age),
                    ("snapshot_entries", entries),
                ]),
            ));
            // The last offline retraining run (promotion counters,
            // entropy floor, per-shard gate evidence) — all zeros
            // before any run so the block is always present.
            let retrain = self
                .retrain_state
                .lock()
                .expect("retrain state poisoned")
                .clone()
                .unwrap_or_else(|| crate::retrain::RetrainReport::default().summary_value());
            pairs.push(("retrain".into(), retrain));
            // Live gauge, not a counter: only meaningful while a
            // pipelined front end is driving the service.
            if let Some(depth) = self.queue_depth() {
                pairs.push(("queue_depth".into(), Value::from(depth)));
            }
        }
        value
    }

    /// The full Prometheus text exposition: service counters, latency
    /// and stage histograms, cache and routing counters, the live
    /// queue-depth gauge (when a front end installed its probe), and —
    /// when the global profiler is on — per-pass, per-section, and
    /// per-tick compute histograms.
    pub fn metrics_text(&self) -> String {
        self.metrics
            .render_prometheus(&self.cache.stats(), self.queue_depth())
    }

    /// The `{"cmd":"metrics"}` reply: the Prometheus text embedded in
    /// one NDJSON object, so the line protocol stays line-oriented
    /// (scrape the `metrics` field, or hit `--metrics-listen` for the
    /// raw text over HTTP).
    pub fn metrics_value(&self) -> Value {
        Value::object(vec![
            ("ok", Value::from(true)),
            ("format", Value::from("prometheus_text_0_0_4")),
            ("metrics", Value::from(self.metrics_text())),
        ])
    }

    /// Entries currently resident in the result cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The request-line size limit
    /// ([`ServiceConfig::max_request_bytes`]); the front ends enforce
    /// it while reading.
    pub fn max_request_bytes(&self) -> usize {
        self.max_request_bytes
    }
}

/// The one wire message for an over-limit request line, shared by the
/// service's line path and the front-end readers (which reject before
/// buffering), so every way in speaks identical errors.
pub(crate) fn oversized_error(bytes: usize, limit: usize) -> String {
    format!("request line is {bytes} bytes, exceeding the service limit of {limit}")
}
