//! The model registry: persisted [`TrainedPredictor`] checkpoints, one
//! per [`ShardKey`] (`objective × device-class × width band`), loaded
//! at service startup and hot-swappable at runtime.
//!
//! Checkpoints live as `predictor_<objective>_<class>_<band>.json`
//! files inside one models directory; legacy pre-sharding
//! `predictor_<objective>.json` files are migrated on load as
//! wildcard-device/wildcard-band shards. Requests route to the most
//! specific matching shard through the deterministic fallback chain
//! documented on [`ShardKey`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::UNIX_EPOCH;

use qrc_circuit::QuantumCircuit;
use qrc_predictor::{PersistError, RewardKind, TrainedPredictor};
use serde_json::Value;

use crate::shard::{RouteLevel, ShardKey};

/// Full-precision provenance of one checkpoint file, captured by a
/// `stat` *before* the file is parsed. Two stamps compare equal only
/// when path, modification time (at full filesystem precision, not
/// whole seconds), and byte length all agree — the test a rescan uses
/// to decide a checkpoint is unchanged, so even two writes landing
/// within the same second are told apart.
#[derive(Clone, PartialEq, Eq)]
struct CheckpointStamp {
    path: PathBuf,
    mtime: Option<std::time::SystemTime>,
    len: u64,
}

impl CheckpointStamp {
    /// Stats `path` (best-effort mtime; a filesystem without mtimes
    /// yields `None`, which never compares equal to itself on purpose
    /// via the reuse check requiring `Some`).
    fn capture(path: &Path) -> Option<CheckpointStamp> {
        let meta = std::fs::metadata(path).ok()?;
        Some(CheckpointStamp {
            path: path.to_path_buf(),
            mtime: meta.modified().ok(),
            len: meta.len(),
        })
    }

    /// Seconds-since-epoch rendering for the stats reply.
    fn mtime_epoch_secs(&self) -> Option<u64> {
        self.mtime
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| d.as_secs())
    }
}

/// Externally comparable identity of one shard's checkpoint file: its
/// file name, full-precision mtime (nanoseconds since the epoch), and
/// byte length. Persisted into cache snapshots so a restored snapshot
/// can prove each shard's policy is *the same file* the entries were
/// computed under — a swapped checkpoint must never serve a stale
/// persisted answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIdentity {
    /// The checkpoint's file name (not the full path: snapshots must
    /// survive a models directory that moved).
    pub file_name: String,
    /// Modification time in nanoseconds since the Unix epoch (`None`
    /// when the filesystem reports none — which never matches, so
    /// such checkpoints are conservatively treated as changed).
    pub mtime_unix_nanos: Option<u64>,
    /// File length in bytes.
    pub len: u64,
}

impl CheckpointIdentity {
    /// Two identities prove "same checkpoint" only when file name,
    /// mtime (present on both sides), and length all agree — the same
    /// test a hot-reload rescan uses for its unchanged fast path.
    pub fn matches(&self, other: &CheckpointIdentity) -> bool {
        self.file_name == other.file_name
            && self.len == other.len
            && self.mtime_unix_nanos.is_some()
            && self.mtime_unix_nanos == other.mtime_unix_nanos
    }
}

/// One registered shard: its policy plus checkpoint provenance (absent
/// for in-memory registries built by tests and the bench harness).
#[derive(Clone)]
struct ShardEntry {
    model: Arc<TrainedPredictor>,
    stamp: Option<CheckpointStamp>,
    /// Process-unique policy generation: every distinct loaded policy
    /// gets its own stamp, and a rescan that finds a shard's
    /// checkpoint unchanged *reuses* the previous entry (same `Arc`,
    /// same generation). The cache keys results by generation, so a
    /// swapped-in policy can never hit (or be polluted by) its
    /// predecessor's cached answers — even when a batch still running
    /// on the old snapshot publishes after the swap.
    generation: u64,
}

/// Source of [`ShardEntry::generation`] stamps.
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One routing resolution: the shard that will serve a request, how
/// specific the match was, its policy generation, and the policy.
pub struct RoutedShard {
    /// The matched shard key.
    pub key: ShardKey,
    /// Which fallback level matched.
    pub level: RouteLevel,
    /// The serving policy's generation (cache-partition stamp).
    pub generation: u64,
    /// The policy itself.
    pub model: Arc<TrainedPredictor>,
}

/// An in-memory registry of trained policies keyed by [`ShardKey`].
pub struct ModelRegistry {
    shards: HashMap<ShardKey, ShardEntry>,
}

/// What one [`ModelRegistry::rescan`] (hot-reload) pass did.
#[derive(Debug, Clone, Default)]
pub struct ReloadReport {
    /// Shards freshly (re)read from disk (new or changed checkpoints).
    pub loaded: Vec<ShardKey>,
    /// Shards whose checkpoint was untouched (same path, mtime, and
    /// size): the previous policy — and its warm cache — carry over
    /// without re-parsing the file, so reload cost scales with what
    /// changed, not with fleet size.
    pub unchanged: Vec<ShardKey>,
    /// Shards whose checkpoint was corrupt: the file was quarantined
    /// and the previously loaded policy kept serving.
    pub kept: Vec<ShardKey>,
    /// Quarantined checkpoint file names (moved to `<name>.corrupt`).
    pub quarantined: Vec<String>,
    /// Shards dropped because their checkpoint vanished from disk.
    pub dropped: Vec<ShardKey>,
    /// Cached results invalidated because their serving shard's policy
    /// changed (filled in by the service layer, which owns the cache).
    pub invalidated: u64,
}

impl ReloadReport {
    fn names(keys: &[ShardKey]) -> Value {
        Value::Array(keys.iter().map(|k| Value::from(k.name())).collect())
    }

    /// Renders the report for the `{"cmd":"reload"}` reply.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("loaded", Self::names(&self.loaded)),
            ("unchanged", Self::names(&self.unchanged)),
            ("kept", Self::names(&self.kept)),
            (
                "quarantined",
                Value::Array(
                    self.quarantined
                        .iter()
                        .map(|n| Value::from(n.clone()))
                        .collect(),
                ),
            ),
            ("dropped", Self::names(&self.dropped)),
            ("invalidated_cache_entries", Value::from(self.invalidated)),
        ])
    }
}

impl ModelRegistry {
    /// The checkpoint path for one shard inside `dir`.
    pub fn model_path(dir: &Path, key: ShardKey) -> PathBuf {
        dir.join(key.file_name())
    }

    /// Builds a registry of objective-only wildcard shards from
    /// already-trained models (used by the benchmark harness and
    /// tests, which train in-process).
    pub fn from_models(models: Vec<TrainedPredictor>) -> Self {
        Self::from_shards(
            models
                .into_iter()
                .map(|m| (ShardKey::wildcard(m.reward()), m))
                .collect(),
        )
    }

    /// Builds a registry from explicitly sharded in-memory models.
    ///
    /// # Panics
    ///
    /// Panics if a model's trained objective disagrees with its shard
    /// key — a registry must never answer an objective with a policy
    /// trained for another.
    pub fn from_shards(models: Vec<(ShardKey, TrainedPredictor)>) -> Self {
        ModelRegistry {
            shards: models
                .into_iter()
                .map(|(key, model)| {
                    assert_eq!(
                        model.reward(),
                        key.objective,
                        "shard {key} holds a model trained for `{}`",
                        model.reward()
                    );
                    (
                        key,
                        ShardEntry {
                            model: Arc::new(model),
                            stamp: None,
                            generation: next_generation(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Loads every checkpoint present in `dir` (absent shards are
    /// simply absent from the registry; corrupt files are errors).
    ///
    /// File names that do not follow the checkpoint grammar (including
    /// `.corrupt` quarantines and `.json.tmp` leftovers) are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if a present checkpoint fails to load.
    pub fn load(dir: &Path) -> Result<Self, PersistError> {
        let mut shards = HashMap::new();
        for (key, path) in discover_checkpoints(dir)? {
            let stamp = CheckpointStamp::capture(&path);
            let model = TrainedPredictor::load(&path)?;
            if model.reward() != key.objective {
                return Err(PersistError::Format(format!(
                    "{} holds a model for objective `{}`",
                    path.display(),
                    model.reward()
                )));
            }
            shards.insert(key, entry_from_disk(model, stamp));
        }
        Ok(ModelRegistry { shards })
    }

    /// Loads checkpoints from `dir`, training and persisting any
    /// missing objective-only wildcard shard on `suite` first — see
    /// [`ModelRegistry::ensure_with_shards`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on real I/O failures.
    pub fn ensure(
        dir: &Path,
        suite: &[QuantumCircuit],
        timesteps: usize,
        seed: u64,
        step_penalty: f64,
        progress: impl FnMut(&str),
    ) -> Result<Self, PersistError> {
        Self::ensure_with_shards(dir, suite, &[], timesteps, seed, step_penalty, progress)
    }

    /// Loads checkpoints from `dir`, training and persisting whatever
    /// is missing: the three objective-only wildcard shards (so a
    /// partial fleet still answers every objective) plus every
    /// explicitly requested `extra` shard, each trained by
    /// [`ShardKey::train`] on its shard-scoped benchmark slice.
    ///
    /// `ensure` is self-healing: a checkpoint that fails to parse
    /// (torn by a crash, corrupted on disk, or holding the wrong
    /// objective) is quarantined to `<name>.corrupt` and retrained
    /// instead of bricking every subsequent warm start. Stale
    /// `.json.tmp` files from an interrupted [`TrainedPredictor::save`]
    /// are swept first.
    ///
    /// Wildcard shards train with the master `seed` (bit-compatible
    /// with pre-sharding checkpoints).
    ///
    /// `progress` is invoked with the shard name before each
    /// (potentially slow) training run; pass a no-op when silent.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on real I/O failures (unreadable
    /// directory, unwritable model files).
    pub fn ensure_with_shards(
        dir: &Path,
        suite: &[QuantumCircuit],
        extra: &[ShardKey],
        timesteps: usize,
        seed: u64,
        step_penalty: f64,
        mut progress: impl FnMut(&str),
    ) -> Result<Self, PersistError> {
        std::fs::create_dir_all(dir)?;
        sweep_stale_tmp_files(dir)?;
        let mut shards = HashMap::new();
        let mut quarantined_keys: Vec<ShardKey> = Vec::new();
        for (key, path) in discover_checkpoints(dir)? {
            let stamp = CheckpointStamp::capture(&path);
            match TrainedPredictor::load(&path) {
                Ok(model) if model.reward() == key.objective => {
                    shards.insert(key, entry_from_disk(model, stamp));
                }
                // Wrong objective inside the file: treat like
                // corruption — quarantine and retrain below.
                Ok(_) => {
                    quarantine(&path)?;
                    quarantined_keys.push(key);
                }
                Err(PersistError::Format(_)) => {
                    quarantine(&path)?;
                    quarantined_keys.push(key);
                }
                Err(e) => return Err(e),
            }
        }
        let mut registry = ModelRegistry { shards };
        let mut required: Vec<ShardKey> = RewardKind::ALL.map(ShardKey::wildcard).to_vec();
        // A corrupt checkpoint proves the operator wanted that shard:
        // retrain it even when it is not in today's `extra` list —
        // quarantining must heal, never silently shrink the fleet.
        for key in extra.iter().chain(quarantined_keys.iter()) {
            if !required.contains(key) {
                required.push(*key);
            }
        }
        for key in required {
            if registry.shards.contains_key(&key) {
                continue;
            }
            progress(&key.name());
            let model = key.train(suite, timesteps, seed, step_penalty);
            let path = Self::model_path(dir, key);
            model.save(&path)?;
            let stamp = CheckpointStamp::capture(&path);
            registry.shards.insert(key, entry_from_disk(model, stamp));
        }
        Ok(registry)
    }

    /// Re-reads every checkpoint in `dir` for a hot-reload, building
    /// the next registry snapshot without ever leaving a shard worse
    /// than `previous` had it:
    ///
    /// * a checkpoint that parses replaces (or adds) its shard,
    /// * a torn/corrupt checkpoint is quarantined to `<name>.corrupt`
    ///   and the previously loaded policy **keeps serving** (a bad push
    ///   must not take down a healthy shard),
    /// * a shard whose checkpoint vanished is dropped (operator intent;
    ///   the fallback chain keeps answering its slice),
    /// * an untouched checkpoint (same path, full-precision mtime, and
    ///   length) is not even re-parsed: the previous entry — policy,
    ///   generation, warm cache — carries over, so a rescan costs
    ///   O(changed checkpoints),
    /// * nothing is trained — reload is load-only and fast.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on real I/O failures; the caller
    /// must then keep serving from `previous`.
    pub fn rescan(
        dir: &Path,
        previous: &ModelRegistry,
    ) -> Result<(Self, ReloadReport), PersistError> {
        let mut shards = HashMap::new();
        let mut report = ReloadReport::default();
        for (key, path) in discover_checkpoints(dir)? {
            // Stat first: an untouched checkpoint (same path, same
            // full-precision mtime, same length) keeps its previous
            // entry — same policy `Arc`, same generation, warm cache —
            // without re-parsing the file, so a rescan costs O(changed
            // checkpoints), not O(fleet).
            let stamp = CheckpointStamp::capture(&path);
            if let (Some(stamp), Some(old)) = (&stamp, previous.shards.get(&key)) {
                let unchanged = old
                    .stamp
                    .as_ref()
                    .is_some_and(|s| s == stamp && s.mtime.is_some());
                if unchanged {
                    shards.insert(key, old.clone());
                    report.unchanged.push(key);
                    continue;
                }
            }
            match TrainedPredictor::load(&path) {
                Ok(model) if model.reward() == key.objective => {
                    shards.insert(key, entry_from_disk(model, stamp));
                    report.loaded.push(key);
                }
                Ok(_) | Err(PersistError::Format(_)) => {
                    quarantine(&path)?;
                    report.quarantined.push(path.file_name().map_or_else(
                        || path.display().to_string(),
                        |n| n.to_string_lossy().into_owned(),
                    ));
                    if let Some(entry) = previous.shards.get(&key) {
                        shards.insert(key, entry.clone());
                        report.kept.push(key);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        for key in previous.keys() {
            if !shards.contains_key(&key) {
                report.dropped.push(key);
            }
        }
        report.loaded.sort();
        report.unchanged.sort();
        report.kept.sort();
        report.dropped.sort();
        report.quarantined.sort();
        Ok((ModelRegistry { shards }, report))
    }

    /// The shards whose serving policy differs between two registry
    /// snapshots — the set a hot-reload purges cached results for
    /// (purging is memory hygiene; correctness is already guaranteed
    /// by the generation stamp inside every cache key). A shard is
    /// unchanged only when both snapshots hold the same policy
    /// generation: `kept` entries and untouched-checkpoint entries
    /// carry their generation across a rescan.
    pub fn changed_shards(previous: &ModelRegistry, fresh: &ModelRegistry) -> Vec<ShardKey> {
        let mut keys: Vec<ShardKey> = previous
            .shards
            .keys()
            .chain(fresh.shards.keys())
            .copied()
            .collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .filter(
                |key| match (previous.shards.get(key), fresh.shards.get(key)) {
                    (Some(a), Some(b)) => a.generation != b.generation,
                    // Appeared or vanished: routing for its slice
                    // changes either way.
                    _ => true,
                },
            )
            .collect()
    }

    /// The quarantine path a corrupt checkpoint is moved to by
    /// [`ModelRegistry::ensure`] and [`ModelRegistry::rescan`] (the
    /// original bytes are preserved for post-mortems).
    pub fn quarantine_path(path: &Path) -> PathBuf {
        let mut name = path
            .file_name()
            .map_or_else(Default::default, |n| n.to_os_string());
        name.push(".corrupt");
        path.with_file_name(name)
    }

    /// Routes a requested slice to the most specific matching shard
    /// through the fallback chain (exact → band-wildcard →
    /// device-wildcard → objective-only). Deterministic: a given
    /// request against a given registry always resolves identically.
    pub fn route(&self, requested: ShardKey) -> Option<RoutedShard> {
        for key in requested.fallback_chain() {
            if let Some(entry) = self.shards.get(&key) {
                return Some(RoutedShard {
                    key,
                    level: RouteLevel::of(&requested, &key),
                    generation: entry.generation,
                    model: Arc::clone(&entry.model),
                });
            }
        }
        None
    }

    /// The serving policy generation of one shard, if registered.
    /// Snapshot import rebases persisted cache keys onto this stamp so
    /// restored entries land in the *current* policy's cache partition.
    pub fn generation_of(&self, key: ShardKey) -> Option<u64> {
        self.shards.get(&key).map(|e| e.generation)
    }

    /// The checkpoint identity of one shard, if it is disk-backed
    /// (in-memory shards built by tests and the bench harness have no
    /// checkpoint and therefore cannot be persisted or validated).
    pub fn checkpoint_identity(&self, key: ShardKey) -> Option<CheckpointIdentity> {
        let stamp = self.shards.get(&key)?.stamp.as_ref()?;
        Some(CheckpointIdentity {
            file_name: stamp
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            mtime_unix_nanos: stamp
                .mtime
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .and_then(|d| u64::try_from(d.as_nanos()).ok()),
            len: stamp.len,
        })
    }

    /// The objective-only wildcard policy for `kind`, if registered
    /// (what every request for `kind` falls back to last).
    pub fn get(&self, kind: RewardKind) -> Option<Arc<TrainedPredictor>> {
        self.shards
            .get(&ShardKey::wildcard(kind))
            .map(|e| Arc::clone(&e.model))
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Returns `true` if no shard is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Every registered shard key, in canonical (sorted) order.
    pub fn keys(&self) -> Vec<ShardKey> {
        let mut keys: Vec<ShardKey> = self.shards.keys().copied().collect();
        keys.sort();
        keys
    }

    /// The objectives with at least one registered shard, in canonical
    /// order.
    pub fn kinds(&self) -> Vec<RewardKind> {
        RewardKind::ALL
            .into_iter()
            .filter(|&k| self.shards.keys().any(|s| s.objective == k))
            .collect()
    }

    /// The registry block of the `{"cmd":"stats"}` reply: every loaded
    /// shard with its checkpoint path and mtime, so operators can
    /// confirm a hot-reload took effect.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.keys()
                .into_iter()
                .map(|key| {
                    let entry = &self.shards[&key];
                    Value::object(vec![
                        ("shard", Value::from(key.name())),
                        (
                            "checkpoint",
                            entry
                                .stamp
                                .as_ref()
                                .map_or(Value::Null, |s| Value::from(s.path.display().to_string())),
                        ),
                        (
                            "mtime_epoch_secs",
                            entry
                                .stamp
                                .as_ref()
                                .and_then(CheckpointStamp::mtime_epoch_secs)
                                .map_or(Value::Null, Value::from),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Builds a disk-backed shard entry. `stamp` must have been captured
/// *before* the file was parsed, so a concurrent overwrite between
/// stat and read is detected as a change on the next rescan rather
/// than masked by a post-read stat of the new file.
fn entry_from_disk(model: TrainedPredictor, stamp: Option<CheckpointStamp>) -> ShardEntry {
    ShardEntry {
        model: Arc::new(model),
        stamp,
        generation: next_generation(),
    }
}

/// Scans `dir` for checkpoint files, resolving the naming grammar
/// (legacy names migrate to wildcard shards; when a legacy and an
/// explicit file name the same shard, the explicit one wins). Results
/// are sorted by shard key for deterministic load order.
fn discover_checkpoints(dir: &Path) -> Result<Vec<(ShardKey, PathBuf)>, PersistError> {
    let mut found: HashMap<ShardKey, (PathBuf, bool)> = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some((key, legacy)) = ShardKey::from_file_name(&file_name.to_string_lossy()) else {
            continue;
        };
        // An explicit name always shadows the legacy spelling.
        let replace = match found.get(&key) {
            None => true,
            Some((_, existing_legacy)) => *existing_legacy && !legacy,
        };
        if replace {
            found.insert(key, (entry.path(), legacy));
        }
    }
    let mut checkpoints: Vec<(ShardKey, PathBuf)> = found
        .into_iter()
        .map(|(key, (path, _))| (key, path))
        .collect();
    checkpoints.sort_by_key(|(key, _)| *key);
    Ok(checkpoints)
}

/// Removes leftover `.json.tmp` (checkpoint save) and `.ndjson.tmp`
/// (cache snapshot) files from interrupted atomic writes — they were
/// never renamed into place, so they hold nothing durable.
fn sweep_stale_tmp_files(dir: &Path) -> Result<(), PersistError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".json.tmp") || name.ends_with(".ndjson.tmp") {
            std::fs::remove_file(entry.path()).ok();
        }
    }
    Ok(())
}

/// Moves a checkpoint that failed to parse out of the registry's way,
/// keeping its bytes for inspection. Shared with the cache snapshot
/// loader, which quarantines torn snapshots the same way.
pub(crate) fn quarantine(path: &Path) -> Result<(), PersistError> {
    let dest = ModelRegistry::quarantine_path(path);
    // A second corruption of the same shard must still heal: clear any
    // stale quarantine first (rename-over-existing is an error on some
    // platforms).
    std::fs::remove_file(&dest).ok();
    std::fs::rename(path, dest)?;
    Ok(())
}
