//! The set-up trace: re-enacts the service's three default trainings
//! behind a timing `Environment` wrapper and checks that the weights
//! equal the checkpoints the service persisted, bit for bit.

use std::cell::Cell;
use std::time::Instant;

use qrc_benchgen::paper_suite;
use qrc_predictor::{Action, CompilationEnv, PredictorConfig, RewardKind, OBS_DIM};
use qrc_rl::{Environment, PpoAgent, Step};
use qrc_serve::{ModelRegistry, ServiceConfig, ShardKey};
use rand::rngs::StdRng;

/// Where the training time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainTrace {
    /// Seconds inside the environment (`reset`, `step`, `action_mask`).
    pub env_s: f64,
    /// Seconds in PPO itself: training wall time minus `env_s`.
    pub ppo_s: f64,
    /// Environment steps taken.
    pub env_steps: u64,
}

/// An `Environment` that times every call into the one it wraps.
struct Timed<E> {
    inner: E,
    env_ns: Cell<u64>,
    steps: u64,
}

impl<E> Timed<E> {
    /// Adds the time since `start` to the environment's account.
    fn charge(&self, start: Instant) {
        self.env_ns
            .set(self.env_ns.get() + start.elapsed().as_nanos() as u64);
    }
}

impl<E: Environment> Environment for Timed<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let start = Instant::now();
        let obs = self.inner.reset(rng);
        self.charge(start);
        obs
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> Step {
        self.steps += 1;
        let start = Instant::now();
        let step = self.inner.step(action, rng);
        self.charge(start);
        step
    }

    fn action_mask(&self) -> Vec<bool> {
        let start = Instant::now();
        let mask = self.inner.action_mask();
        self.charge(start);
        mask
    }
}

/// Trains each default wildcard shard the way
/// `ModelRegistry::ensure_with_shards` does on a cold start, timing the
/// environment, and compares the weights with the checkpoint the
/// service wrote into `config.models_dir`.
pub fn reenact(config: &ServiceConfig) -> Result<TrainTrace, String> {
    let suite = paper_suite(2, config.train_max_qubits);
    let mut trace = TrainTrace::default();
    for objective in RewardKind::ALL {
        let key = ShardKey::wildcard(objective);
        let mut predictor = PredictorConfig::new(objective, config.timesteps);
        predictor.seed = config.seed;
        predictor.step_penalty = config.step_penalty;
        let env = CompilationEnv::new(key.suite_slice(&suite), objective)
            .with_step_penalty(predictor.step_penalty);
        let mut env = Timed {
            inner: env,
            env_ns: Cell::new(0),
            steps: 0,
        };
        let mut agent = PpoAgent::new(
            OBS_DIM,
            Action::COUNT,
            predictor.ppo.clone(),
            predictor.seed,
        );
        let start = Instant::now();
        agent.train(&mut env, predictor.total_timesteps, predictor.seed, |_| {});
        let wall_s = start.elapsed().as_secs_f64();
        let env_s = env.env_ns.get() as f64 / 1e9;
        trace.env_s += env_s;
        trace.ppo_s += wall_s - env_s;
        trace.env_steps += env.steps;

        let path = ModelRegistry::model_path(&config.models_dir, key);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let checkpoint = serde_json::from_str(&text)
            .map_err(|e| format!("checkpoint {} is not JSON: {e}", path.display()))?;
        let persisted = checkpoint
            .get("agent")
            .ok_or_else(|| format!("checkpoint {} has no agent", path.display()))?;
        if serde_json::to_string(persisted) != serde_json::to_string(&agent.to_value()) {
            return Err(format!(
                "re-enacted {} training differs from the service's checkpoint {}",
                objective.name(),
                path.display()
            ));
        }
    }
    Ok(trace)
}
