//! Training identity gate: every PPO training must keep producing
//! exactly the weights it produced before each minibatch ran as one
//! batched pass.
//!
//! Each digest is FNV-1a over the JSON text of one trained model: the
//! checkpoint (`TrainedPredictor::to_json`, which embeds the agent's
//! `to_value`) for a predictor, `PpoAgent::to_value` for a toy agent.
//! The JSON writes every weight and bias row-major with its shortest
//! round-trip decimal, so a digest pins every bit of every parameter,
//! and with them every clip factor and Adam step that produced them.
//!
//! * the three objectives trained through [`train`] as a serving
//!   shard is, with `ServiceConfig`'s seed 3 and step penalty 0.005,
//!   for 512 steps of `PpoConfig::default()` on `paper_suite(2, 4)`;
//!   the 29 policy outputs leave a partial 16-wide block;
//! * toy trainings with hidden widths `[]`, `[32]` and `[64, 64]`, a
//!   ragged last minibatch (100 steps per update in minibatches of
//!   64), and a single epoch;
//! * one fine-tune of the fidelity model with a raised entropy
//!   coefficient.
//!
//! The digests were recorded before the update was changed.

use qrc_benchgen::paper_suite;
use qrc_predictor::{train, FineTuneConfig, PredictorConfig, RewardKind, TrainedPredictor};
use qrc_rl::{Environment, PpoAgent, PpoConfig, Step};
use rand::rngs::StdRng;
use rand::Rng;

/// FNV-1a, 64 bit, of a string.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// The predictor a cold-started service trains for one objective's
/// wildcard shard, at a small budget.
fn predictor(objective: RewardKind) -> TrainedPredictor {
    let mut config = PredictorConfig::new(objective, 512);
    config.seed = 3;
    config.step_penalty = 0.005;
    train(paper_suite(2, 4), &config)
}

#[test]
fn predictor_trainings_are_unchanged() {
    let got: Vec<(&str, String)> = RewardKind::ALL
        .into_iter()
        .map(|objective| (objective.name(), digest(&predictor(objective).to_json())))
        .collect();
    let want = [
        ("fidelity", "fnv1a64:0e73f960ee441548"),
        ("critical_depth", "fnv1a64:3c3d683d01f9785c"),
        ("combination", "fnv1a64:1e134cc995bf5634"),
    ];
    let want: Vec<(&str, String)> = want.iter().map(|&(n, d)| (n, d.to_string())).collect();
    assert_eq!(got, want, "trained checkpoints changed");
}

#[test]
fn fine_tune_is_unchanged() {
    let incumbent = predictor(RewardKind::ExpectedFidelity);
    let config = FineTuneConfig {
        total_timesteps: 256,
        seed: 11,
        step_penalty: 0.005,
        entropy_coef: Some(0.05),
    };
    let tuned = incumbent.fine_tune_with_progress(paper_suite(2, 3), &config, |_| {});
    assert_eq!(
        digest(&tuned.to_json()),
        "fnv1a64:89df556fbeddbc7a",
        "fine-tuned checkpoint changed"
    );
}

/// A small MDP that moves every weight: a walk on a ring of `len`
/// cells, `actions` strides (some masked by position), a reward for
/// reaching cell 0 and a small cost per stride, and episodes of at
/// most 12 steps. The observation is `obs_dim` rational features of
/// the position.
struct Ring {
    len: usize,
    pos: usize,
    steps: usize,
    obs_dim: usize,
    actions: usize,
}

impl Ring {
    fn new(obs_dim: usize, actions: usize) -> Self {
        Ring {
            len: 11,
            pos: 0,
            steps: 0,
            obs_dim,
            actions,
        }
    }

    fn observe(&self) -> Vec<f64> {
        (0..self.obs_dim)
            .map(|k| ((self.pos * (k + 1)) % self.len) as f64 / self.len as f64 - 0.5)
            .collect()
    }
}

impl Environment for Ring {
    fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    fn num_actions(&self) -> usize {
        self.actions
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.pos = rng.gen_range(1..self.len);
        self.steps = 0;
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
        assert!(self.action_mask()[action], "masked action chosen");
        self.steps += 1;
        self.pos = (self.pos + action + 1) % self.len;
        let goal = self.pos == 0;
        Step {
            obs: self.observe(),
            reward: if goal { 1.0 } else { -0.01 * action as f64 },
            done: goal || self.steps >= 12,
        }
    }

    fn action_mask(&self) -> Vec<bool> {
        (0..self.actions)
            .map(|a| a == 0 || !(self.pos + a).is_multiple_of(3))
            .collect()
    }
}

/// Trains a toy agent on a [`Ring`] and digests its `to_value` JSON.
fn toy(config: PpoConfig, obs_dim: usize, actions: usize, timesteps: usize) -> String {
    let mut env = Ring::new(obs_dim, actions);
    let mut agent = PpoAgent::new(obs_dim, actions, config, 5);
    agent.train(&mut env, timesteps, 9, |_| {});
    digest(&serde_json::to_string(&agent.to_value()))
}

fn toy_config(hidden: &[usize]) -> PpoConfig {
    PpoConfig {
        steps_per_update: 64,
        minibatch_size: 16,
        epochs: 4,
        learning_rate: 3e-3,
        hidden: hidden.to_vec(),
        ..PpoConfig::default()
    }
}

#[test]
fn toy_trainings_are_unchanged() {
    let got = [
        toy(toy_config(&[]), 3, 4, 256),
        toy(toy_config(&[32]), 5, 6, 256),
        toy(toy_config(&[64, 64]), 18, 29, 192),
        toy(
            PpoConfig {
                steps_per_update: 100,
                minibatch_size: 64,
                ..toy_config(&[16])
            },
            4,
            5,
            300,
        ),
        toy(
            PpoConfig {
                epochs: 1,
                ..toy_config(&[24])
            },
            4,
            3,
            256,
        ),
    ];
    assert_eq!(
        got,
        [
            "fnv1a64:611beffcde796c50",
            "fnv1a64:8436b5d5de50c817",
            "fnv1a64:0dbf0fef112ddf3e",
            "fnv1a64:bbc63441afd582db",
            "fnv1a64:633ee12e752e5606",
        ],
        "toy trainings changed: hidden [], [32], [64, 64], ragged minibatch, one epoch"
    );
}
