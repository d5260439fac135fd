//! Training and inference API: the "RL-optimized compiler" of the paper.

use crate::action::Action;
use crate::env::{observation_of, CompilationEnv, MAX_EPISODE_STEPS, OBS_DIM};
use crate::flow::{CompilationFlow, FlowError, MaskSignature};
use crate::reward::RewardKind;
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_rl::{
    distribution_entropy, greedy_from_logits, masked_softmax, PpoAgent, PpoConfig, TrainStats,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Training configuration for a predictor model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// The optimization objective (reward function).
    pub reward: RewardKind,
    /// Total environment steps (the paper uses 100 000).
    pub total_timesteps: usize,
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// Seed controlling network init, rollouts, and stochastic passes.
    pub seed: u64,
    /// Reward-shaping step penalty (0.0 = the paper's sparse reward).
    pub step_penalty: f64,
}

impl PredictorConfig {
    /// A configuration with the paper's objective and a given budget.
    pub fn new(reward: RewardKind, total_timesteps: usize) -> Self {
        PredictorConfig {
            reward,
            total_timesteps,
            ppo: PpoConfig::default(),
            seed: 0,
            step_penalty: 0.0,
        }
    }
}

/// A trained compilation policy for one reward function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedPredictor {
    agent: PpoAgent,
    reward: RewardKind,
    seed: u64,
}

/// The outcome of compiling one circuit with a trained predictor.
#[derive(Debug, Clone)]
pub struct CompilationOutcome {
    /// The final circuit: executable on `device` exactly when the
    /// rollout reached *Done*.
    pub circuit: QuantumCircuit,
    /// The chosen target device.
    pub device: Option<DeviceId>,
    /// The action sequence the policy took.
    pub actions: Vec<Action>,
    /// The achieved reward (0 when the episode failed to reach *Done*).
    pub reward: f64,
}

/// Trains a predictor on a circuit suite (the paper trains on 200
/// MQT Bench circuits for 100k steps; smaller budgets train proportionally
/// weaker but structurally identical models).
pub fn train(circuits: Vec<QuantumCircuit>, config: &PredictorConfig) -> TrainedPredictor {
    train_with_progress(circuits, config, |_| {})
}

/// Like [`train`], reporting statistics after every PPO update.
///
/// # Panics
///
/// Panics on an empty training suite: the serving registry trains
/// shard-scoped benchmark slices, and a slice that filtered down to
/// nothing is a caller bug worth failing loudly on, not a policy worth
/// persisting.
pub fn train_with_progress(
    circuits: Vec<QuantumCircuit>,
    config: &PredictorConfig,
    progress: impl FnMut(&TrainStats),
) -> TrainedPredictor {
    assert!(
        !circuits.is_empty(),
        "cannot train a predictor on an empty circuit suite"
    );
    let mut env =
        CompilationEnv::new(circuits, config.reward).with_step_penalty(config.step_penalty);
    let mut agent = PpoAgent::new(OBS_DIM, Action::COUNT, config.ppo.clone(), config.seed);
    agent.train(&mut env, config.total_timesteps, config.seed, progress);
    TrainedPredictor {
        agent,
        reward: config.reward,
        seed: config.seed,
    }
}

/// Configuration for fine-tuning an already-trained predictor on a
/// new circuit slice (the offline retraining flow's entry into this
/// crate). Distinct from [`PredictorConfig`]: the network shapes and
/// most hyperparameters come from the checkpoint being tuned — only
/// the budget, the rollout seed, and the diversity shaping are free.
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    /// Additional environment steps to train for.
    pub total_timesteps: usize,
    /// Seed for the fine-tuning rollouts (the checkpoint's own seed
    /// keeps driving its deterministic *inference* rollouts).
    pub seed: u64,
    /// Reward-shaping step penalty for the fine-tuning environment.
    pub step_penalty: f64,
    /// Entropy-bonus override: `Some(c)` replaces the checkpoint's
    /// coefficient (retraining turns this up so the tuned policy keeps
    /// action diversity instead of collapsing onto one pass); `None`
    /// keeps whatever the checkpoint trained with.
    pub entropy_coef: Option<f64>,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            total_timesteps: 2_000,
            seed: 0,
            step_penalty: 0.005,
            entropy_coef: Some(0.03),
        }
    }
}

/// Why loading a persisted model failed.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The payload is not the expected checkpoint format.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            PersistError::Format(msg) => write!(f, "checkpoint format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Writes `bytes` to `path` atomically and durably — the one
/// crash-safety ritual every persisted artifact (model checkpoints,
/// cache snapshots) shares: the payload goes to a sibling `<name>.tmp`
/// file, is fsynced to stable storage *before* the rename (otherwise a
/// power loss could promote a name pointing at unwritten data), is
/// renamed into place, and the parent directory is synced best-effort
/// (the rename lives in the directory entry; directories cannot be
/// opened everywhere). A crash at any point leaves either the old
/// file or the new one, never a truncated or torn hybrid.
///
/// # Errors
///
/// Returns the underlying I/O error; a leftover `.tmp` is harmless
/// (loaders ignore it and the registry's startup sweep removes it).
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp_name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_os_string());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

/// Checkpoint format marker written by [`TrainedPredictor::to_json`].
const CHECKPOINT_FORMAT: &str = "qrc-trained-predictor";
/// Checkpoint format version; bump on any layout change.
const CHECKPOINT_VERSION: u64 = 1;

/// One request of a [`TrainedPredictor::compile_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchCompileRequest<'a> {
    /// The circuit to compile.
    pub circuit: &'a QuantumCircuit,
    /// Pinned target device, if the caller fixed one.
    pub pin: Option<DeviceId>,
    /// Seed for the stochastic passes (content-derived in serving).
    pub seed: u64,
}

impl TrainedPredictor {
    /// The objective this model was trained for.
    pub fn reward(&self) -> RewardKind {
        self.reward
    }

    /// The seed the model was trained with (also drives its
    /// deterministic compilation rollouts).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serializes the model (policy + value networks, hyperparameters,
    /// objective, seed) as a JSON checkpoint string.
    ///
    /// Weights survive a write→parse cycle bit-exactly, so a reloaded
    /// model reproduces the original's action traces step for step —
    /// the property the serving model registry depends on.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        serde_json::to_string(&Value::object(vec![
            ("format", Value::from(CHECKPOINT_FORMAT)),
            ("version", Value::from(CHECKPOINT_VERSION)),
            ("reward", Value::from(self.reward.name())),
            ("seed", Value::from(self.seed)),
            ("agent", self.agent.to_value()),
        ]))
    }

    /// Reconstructs a model from [`TrainedPredictor::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Format`] on malformed JSON, a missing or
    /// future format/version marker, an unknown reward name, or agent
    /// networks whose shapes are inconsistent.
    pub fn from_json(text: &str) -> Result<TrainedPredictor, PersistError> {
        let value = serde_json::from_str(text).map_err(|e| PersistError::Format(e.to_string()))?;
        let format = value.get("format").and_then(|v| v.as_str()).unwrap_or("");
        if format != CHECKPOINT_FORMAT {
            return Err(PersistError::Format(format!(
                "not a {CHECKPOINT_FORMAT} checkpoint (format marker `{format}`)"
            )));
        }
        let version = value.get("version").and_then(|v| v.as_u64()).unwrap_or(0);
        if version != CHECKPOINT_VERSION {
            return Err(PersistError::Format(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let reward_name = value
            .get("reward")
            .and_then(|v| v.as_str())
            .ok_or_else(|| PersistError::Format("missing `reward`".into()))?;
        let reward = RewardKind::from_name(reward_name)
            .ok_or_else(|| PersistError::Format(format!("unknown reward kind `{reward_name}`")))?;
        let seed = value
            .get("seed")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| PersistError::Format("missing `seed`".into()))?;
        let agent = PpoAgent::from_value(
            value
                .get("agent")
                .ok_or_else(|| PersistError::Format("missing `agent`".into()))?,
        )
        .map_err(PersistError::Format)?;
        if agent.obs_dim() != OBS_DIM || agent.num_actions() != Action::COUNT {
            return Err(PersistError::Format(format!(
                "agent spaces {}×{} do not match this build ({OBS_DIM}×{})",
                agent.obs_dim(),
                agent.num_actions(),
                Action::COUNT
            )));
        }
        Ok(TrainedPredictor {
            agent,
            reward,
            seed,
        })
    }

    /// Writes the checkpoint to `path` atomically and durably: the
    /// payload goes to a temp file, is fsynced to disk, and is renamed
    /// into place — a crash at any point leaves either the old
    /// checkpoint or the new one, never a truncated or torn file.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failures.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        atomic_write(path, (self.to_json() + "\n").as_bytes())?;
        Ok(())
    }

    /// Reads a checkpoint written by [`TrainedPredictor::save`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the file cannot be read and
    /// [`PersistError::Format`] if its payload is not a valid
    /// checkpoint.
    pub fn load(path: &std::path::Path) -> Result<TrainedPredictor, PersistError> {
        TrainedPredictor::from_json(&std::fs::read_to_string(path)?)
    }

    /// Continues training this model's policy on a new circuit slice
    /// — fine-tune-from-checkpoint. The returned predictor keeps the
    /// objective and inference seed of the original (so serving-side
    /// determinism guarantees carry over) but its networks have seen
    /// `config.total_timesteps` further steps on `circuits`, with the
    /// entropy bonus optionally raised per `config.entropy_coef`. The
    /// incumbent is untouched: the promotion gate decides which of the
    /// two checkpoints serves.
    ///
    /// # Panics
    ///
    /// Panics on an empty circuit slice, like [`train_with_progress`]
    /// — a curriculum that filtered down to nothing is a caller bug.
    pub fn fine_tune_with_progress(
        &self,
        circuits: Vec<QuantumCircuit>,
        config: &FineTuneConfig,
        progress: impl FnMut(&TrainStats),
    ) -> TrainedPredictor {
        assert!(
            !circuits.is_empty(),
            "cannot fine-tune a predictor on an empty circuit slice"
        );
        let mut env =
            CompilationEnv::new(circuits, self.reward).with_step_penalty(config.step_penalty);
        let mut agent = self.agent.clone();
        if let Some(coef) = config.entropy_coef {
            agent.set_entropy_coef(coef);
        }
        agent.train(&mut env, config.total_timesteps, config.seed, progress);
        TrainedPredictor {
            agent,
            reward: self.reward,
            seed: self.seed,
        }
    }

    /// Mean entropy (nats) of the masked policy distribution over the
    /// states of this model's deterministic greedy rollout on
    /// `circuit`. This is the action-diversity probe the retraining
    /// promotion gate reads: a policy that has collapsed onto one
    /// action scores ≈0 on every state it visits, however healthy its
    /// reward looks on the curriculum it collapsed to.
    pub fn rollout_entropy(&self, circuit: &QuantumCircuit) -> f64 {
        self.rollout_entropies(std::slice::from_ref(circuit))[0]
    }

    /// Mean [`Self::rollout_entropy`] over a circuit slice (0 for an
    /// empty slice), from one rollout over the whole slice.
    pub fn mean_rollout_entropy(&self, circuits: &[QuantumCircuit]) -> f64 {
        if circuits.is_empty() {
            return 0.0;
        }
        self.rollout_entropies(circuits).into_iter().sum::<f64>() / circuits.len() as f64
    }

    /// [`Self::rollout_entropy`] of each circuit.
    fn rollout_entropies(&self, circuits: &[QuantumCircuit]) -> Vec<f64> {
        let flows = circuits
            .iter()
            .map(|c| CompilationFlow::new(c.clone(), self.seed))
            .collect();
        let mut sums = vec![(0.0, 0usize); circuits.len()];
        self.rollout(flows, |lane, logits, mask| {
            let (sum, states) = &mut sums[lane];
            *sum += distribution_entropy(&masked_softmax(logits, mask));
            *states += 1;
        });
        sums.into_iter()
            .map(|(sum, states)| {
                if states == 0 {
                    0.0
                } else {
                    sum / states as f64
                }
            })
            .collect()
    }

    /// Compiles a circuit by greedy rollout of the learned policy.
    ///
    /// The rollout is deterministic. If the policy fails to reach the
    /// *Done* state within the step budget, the outcome carries reward 0
    /// and the partially compiled circuit.
    pub fn compile(&self, circuit: &QuantumCircuit) -> CompilationOutcome {
        self.compile_scored(circuit, self.reward)
    }

    /// Compiles with this model but scores the result under `metric`.
    pub fn compile_scored(
        &self,
        circuit: &QuantumCircuit,
        metric: RewardKind,
    ) -> CompilationOutcome {
        let flow = CompilationFlow::new(circuit.clone(), self.seed);
        let flow = self.rollout(vec![flow], |_, _, _| {}).remove(0);
        self.outcome_of(flow, metric)
    }

    /// Compiles one request with an explicit seed for the stochastic
    /// passes: pinned when the request named a device, free policy
    /// rollout otherwise. Serving derives the seed from the request
    /// *content*, which makes results independent of arrival order and
    /// thread scheduling. This is a batch of one through
    /// [`TrainedPredictor::compile_batch`].
    ///
    /// A pin goes through [`CompilationFlow::pin_device`], so dynamic
    /// registry devices outside the built-in action set are reachable;
    /// for built-in pins the flow is identical to forcing the two
    /// selection actions.
    ///
    /// # Errors
    ///
    /// Returns the flow's rejection if a pin is infeasible (e.g. the
    /// circuit is wider than the device); unpinned compilation never
    /// fails (a stuck rollout reports reward 0).
    pub fn compile_request(
        &self,
        circuit: &QuantumCircuit,
        pin: Option<DeviceId>,
        seed: u64,
    ) -> Result<CompilationOutcome, FlowError> {
        let request = BatchCompileRequest { circuit, pin, seed };
        self.compile_batch(&[request]).remove(0)
    }

    /// Compiles a batch of requests in one lockstep rollout: per tick,
    /// the observations of every still-active request are stacked and
    /// the policy runs **one** batched forward.
    ///
    /// Every outcome is **bit-identical** to compiling its request
    /// alone ([`TrainedPredictor::compile_request`], a batch of one):
    /// each lane applies its own greedy actions to its own seeded flow,
    /// and a batched forward gives each row the bits it gets alone.
    ///
    /// Returns the per-item results in request order.
    pub fn compile_batch(
        &self,
        items: &[BatchCompileRequest<'_>],
    ) -> Vec<Result<CompilationOutcome, FlowError>> {
        let mut flows = Vec::with_capacity(items.len());
        let started: Vec<Result<(), FlowError>> = items
            .iter()
            .map(|req| {
                let mut flow = CompilationFlow::new(req.circuit.clone(), req.seed);
                if let Some(pin) = req.pin {
                    flow.pin_device(Device::get(pin))?;
                }
                flows.push(flow);
                Ok(())
            })
            .collect();
        let mut finished = self.rollout(flows, |_, _, _| {}).into_iter();
        started
            .into_iter()
            .map(|started| {
                started.map(|()| {
                    let flow = finished.next().expect("one finished flow per started one");
                    self.outcome_of(flow, self.reward)
                })
            })
            .collect()
    }

    /// Scores a finished (or stuck) flow under `metric` and packages the
    /// outcome. [`RewardKind::evaluate`] scores a circuit that is not
    /// executable on its device 0, so a flow short of *Done* earns 0.
    fn outcome_of(&self, flow: CompilationFlow, metric: RewardKind) -> CompilationOutcome {
        let reward = flow.device().map_or(0.0, |dev| {
            qrc_obs::profile::section_timed("reward", || metric.evaluate(flow.circuit(), dev))
        });
        CompilationOutcome {
            device: flow.device().map(|d| d.id()),
            actions: flow.history().to_vec(),
            reward,
            circuit: flow.into_circuit(),
        }
    }

    /// The greedy rollout every compilation and probe runs: advances
    /// the flows in lockstep until each is *Done*, has no legal action,
    /// fails to apply its action, or has used the step budget, and
    /// returns them in input order.
    ///
    /// Per tick, the observations of every still-active flow are
    /// stacked into one matrix for a single
    /// [`Mlp::forward_batch`](qrc_rl::Mlp::forward_batch), and action
    /// masks are memoized per [`MaskSignature`] (the mask is a pure
    /// function of its signature). `observe(lane, logits, mask)` sees
    /// each state the policy acts on, before its action is applied.
    fn rollout(
        &self,
        flows: Vec<CompilationFlow>,
        mut observe: impl FnMut(usize, &[f64], &[bool]),
    ) -> Vec<CompilationFlow> {
        let mut finished: Vec<Option<CompilationFlow>> = flows.iter().map(|_| None).collect();
        let mut lanes: Vec<(usize, CompilationFlow)> = flows.into_iter().enumerate().collect();
        let mut mask_memo: HashMap<MaskSignature, Vec<bool>> = HashMap::new();
        for _ in 0..MAX_EPISODE_STEPS {
            // Gather this tick's active lanes; set the rest aside.
            let mut stepping = Vec::with_capacity(lanes.len());
            let mut obs_rows: Vec<Vec<f64>> = Vec::with_capacity(lanes.len());
            let mut mask_rows: Vec<Vec<bool>> = Vec::with_capacity(lanes.len());
            for (lane, flow) in lanes.drain(..) {
                if flow.is_done() {
                    finished[lane] = Some(flow);
                    continue;
                }
                let mask = qrc_obs::profile::section_timed("mask", || {
                    mask_memo
                        .entry(flow.mask_signature())
                        .or_insert_with(|| flow.action_mask())
                        .clone()
                });
                if !mask.iter().any(|&m| m) {
                    finished[lane] = Some(flow);
                    continue;
                }
                obs_rows.push(qrc_obs::profile::section_timed("observation", || {
                    observation_of(&flow)
                }));
                mask_rows.push(mask);
                stepping.push((lane, flow));
            }
            if stepping.is_empty() {
                break;
            }
            // One policy forward for the whole tick; timed as a single
            // tick when profiling is on.
            let tick_start = qrc_obs::profile::enabled().then(std::time::Instant::now);
            let logits = self.agent.policy().forward_batch(&obs_rows);
            if let Some(start) = tick_start {
                qrc_obs::profile::record_tick(start.elapsed().as_micros() as u64);
            }
            for (((lane, mut flow), row), mask) in stepping.into_iter().zip(logits).zip(mask_rows) {
                observe(lane, &row, &mask);
                let action = Action::ALL[greedy_from_logits(&row, &mask)];
                if qrc_obs::profile::section_timed("apply", || flow.apply(action)).is_err() {
                    finished[lane] = Some(flow);
                } else {
                    lanes.push((lane, flow));
                }
            }
        }
        // Step budget exhausted: the rest stop where they are.
        for (lane, flow) in lanes {
            finished[lane] = Some(flow);
        }
        finished
            .into_iter()
            .map(|flow| flow.expect("every lane finished"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_benchgen::BenchmarkFamily;

    fn tiny_config(reward: RewardKind) -> PredictorConfig {
        PredictorConfig {
            reward,
            total_timesteps: 1500,
            ppo: PpoConfig {
                steps_per_update: 128,
                minibatch_size: 32,
                epochs: 4,
                hidden: vec![32],
                learning_rate: 1e-3,
                ..PpoConfig::default()
            },
            seed: 5,
            step_penalty: 0.0,
        }
    }

    fn tiny_suite() -> Vec<QuantumCircuit> {
        vec![
            BenchmarkFamily::Ghz.generate(3),
            BenchmarkFamily::Dj.generate(3),
            BenchmarkFamily::WState.generate(3),
        ]
    }

    #[test]
    fn trained_predictor_compiles_to_executable_circuits() {
        let model = train(tiny_suite(), &tiny_config(RewardKind::ExpectedFidelity));
        for qc in tiny_suite() {
            let out = model.compile(&qc);
            if out.reward > 0.0 {
                let dev = qrc_device::Device::get(out.device.unwrap());
                assert!(dev.check_executable(&out.circuit), "{}", qc.name());
                assert!(!out.actions.is_empty());
            }
        }
        // At least one compilation must succeed even with a tiny budget:
        // masking makes random exploration reach Done easily.
        let successes = tiny_suite()
            .iter()
            .filter(|qc| model.compile(qc).reward > 0.0)
            .count();
        assert!(successes >= 1, "no successful compilations at all");
    }

    #[test]
    fn compile_is_deterministic() {
        let model = train(tiny_suite(), &tiny_config(RewardKind::Combination));
        let qc = BenchmarkFamily::Ghz.generate(3);
        let a = model.compile(&qc);
        let b = model.compile(&qc);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.reward, b.reward);
    }

    #[test]
    fn compile_batch_is_bit_identical_to_serial() {
        let model = train(tiny_suite(), &tiny_config(RewardKind::ExpectedFidelity));
        let circuits = tiny_suite();
        let wide = QuantumCircuit::with_name(28, "too_wide_for_montreal");
        let items = vec![
            BatchCompileRequest {
                circuit: &circuits[0],
                pin: None,
                seed: 3,
            },
            BatchCompileRequest {
                circuit: &circuits[1],
                pin: Some(DeviceId::IonqHarmony),
                seed: 4,
            },
            BatchCompileRequest {
                circuit: &circuits[2],
                pin: None,
                seed: 5,
            },
            // Infeasible pin: 28 qubits > ibmq_montreal's 27.
            BatchCompileRequest {
                circuit: &wide,
                pin: Some(DeviceId::IbmqMontreal),
                seed: 6,
            },
        ];
        let batched = model.compile_batch(&items);
        assert_eq!(batched.len(), items.len());
        for (req, got) in items.iter().zip(batched.iter()) {
            let want = model.compile_request(req.circuit, req.pin, req.seed);
            match (want, got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(w.circuit, g.circuit);
                    assert_eq!(w.actions, g.actions);
                    assert_eq!(w.device, g.device);
                    assert_eq!(w.reward.to_bits(), g.reward.to_bits());
                }
                (Err(w), Err(g)) => assert_eq!(format!("{w:?}"), format!("{g:?}")),
                (w, g) => panic!("serial {w:?} vs batched {g:?} disagree on ok-ness"),
            }
        }
    }

    #[test]
    fn cross_metric_scoring_works() {
        let model = train(tiny_suite(), &tiny_config(RewardKind::ExpectedFidelity));
        let qc = BenchmarkFamily::Ghz.generate(3);
        let fid = model.compile_scored(&qc, RewardKind::ExpectedFidelity);
        let cd = model.compile_scored(&qc, RewardKind::CriticalDepth);
        // Same action trace, different scores.
        assert_eq!(fid.actions, cd.actions);
        assert!((0.0..=1.0).contains(&cd.reward));
    }
}
