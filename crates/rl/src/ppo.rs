//! Proximal Policy Optimization (Schulman et al., 2017) with invalid-
//! action masking, generalized advantage estimation, and clipped
//! surrogate + value losses — the learner the paper drives through
//! Stable-Baselines3.

use crate::env::{Environment, Step};
use crate::nn::{Adam, Gradients, Mlp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// PPO hyperparameters (defaults follow Stable-Baselines3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Environment steps collected per update.
    pub steps_per_update: usize,
    /// Minibatch size within each epoch.
    pub minibatch_size: usize,
    /// Optimization epochs per update.
    pub epochs: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE smoothing λ.
    pub gae_lambda: f64,
    /// Surrogate clip range ε.
    pub clip: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Entropy bonus coefficient.
    pub entropy_coef: f64,
    /// Value loss coefficient.
    pub value_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden layer widths for both policy and value networks.
    pub hidden: Vec<usize>,
}

impl PpoConfig {
    /// Serializes the hyperparameters as an explicit JSON value.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::object(vec![
            ("steps_per_update", Value::from(self.steps_per_update)),
            ("minibatch_size", Value::from(self.minibatch_size)),
            ("epochs", Value::from(self.epochs)),
            ("gamma", Value::from(self.gamma)),
            ("gae_lambda", Value::from(self.gae_lambda)),
            ("clip", Value::from(self.clip)),
            ("learning_rate", Value::from(self.learning_rate)),
            ("entropy_coef", Value::from(self.entropy_coef)),
            ("value_coef", Value::from(self.value_coef)),
            ("max_grad_norm", Value::from(self.max_grad_norm)),
            (
                "hidden",
                Value::Array(self.hidden.iter().map(|&h| Value::from(h)).collect()),
            ),
        ])
    }

    /// Reconstructs hyperparameters from [`PpoConfig::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field, or
    /// of a `steps_per_update` of 0: a rollout must hold at least one
    /// step, and training would otherwise panic on the first rollout.
    pub fn from_value(value: &serde_json::Value) -> Result<PpoConfig, String> {
        let int = |key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_u64())
                .map(|v| v as usize)
                .ok_or_else(|| format!("ppo config: missing integer `{key}`"))
        };
        let float = |key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("ppo config: missing number `{key}`"))
        };
        let hidden = value
            .get("hidden")
            .and_then(|v| v.as_array())
            .ok_or("ppo config: missing array `hidden`")?
            .iter()
            .map(|v| v.as_u64().map(|h| h as usize))
            .collect::<Option<Vec<usize>>>()
            .ok_or("ppo config: non-integer entry in `hidden`")?;
        let steps_per_update = int("steps_per_update")?;
        if steps_per_update == 0 {
            return Err("ppo config: `steps_per_update` must be at least 1".into());
        }
        Ok(PpoConfig {
            steps_per_update,
            minibatch_size: int("minibatch_size")?,
            epochs: int("epochs")?,
            gamma: float("gamma")?,
            gae_lambda: float("gae_lambda")?,
            clip: float("clip")?,
            learning_rate: float("learning_rate")?,
            entropy_coef: float("entropy_coef")?,
            value_coef: float("value_coef")?,
            max_grad_norm: float("max_grad_norm")?,
            hidden,
        })
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            steps_per_update: 256,
            minibatch_size: 64,
            epochs: 8,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.2,
            learning_rate: 3e-4,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
        }
    }
}

/// Progress statistics reported after every PPO update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Total environment steps so far.
    pub timesteps: usize,
    /// Mean reward of episodes finished during the last rollout.
    pub mean_episode_reward: f64,
    /// Episodes finished during the last rollout.
    pub episodes: usize,
    /// Mean entropy (nats) of the masked policy distribution over the
    /// last rollout's visited states — the live action-diversity
    /// signal. A policy collapsing onto one action drives this toward
    /// zero; retraining gates read it to refuse collapsed candidates.
    pub mean_entropy: f64,
}

/// A PPO agent: masked categorical policy network + value network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoAgent {
    policy: Mlp,
    value: Mlp,
    config: PpoConfig,
    obs_dim: usize,
    num_actions: usize,
}

struct Rollout {
    obs: Vec<Vec<f64>>,
    masks: Vec<Vec<bool>>,
    actions: Vec<usize>,
    log_probs: Vec<f64>,
    rewards: Vec<f64>,
    dones: Vec<bool>,
    values: Vec<f64>,
    /// Value of the state following the last stored transition
    /// (0 if that state was terminal).
    bootstrap: f64,
}

impl PpoAgent {
    /// Creates an agent for the given observation/action space sizes.
    pub fn new(obs_dim: usize, num_actions: usize, config: PpoConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = Mlp::new(obs_dim, &config.hidden, num_actions, &mut rng);
        let value = Mlp::new(obs_dim, &config.hidden, 1, &mut rng);
        PpoAgent {
            policy,
            value,
            config,
            obs_dim,
            num_actions,
        }
    }

    /// Observation dimension the agent was built for.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action-space size the agent was built for.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// The configured hyperparameters.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Overrides the entropy-bonus coefficient for subsequent training
    /// — the knob offline retraining turns up so a fine-tuned policy
    /// keeps exploring instead of collapsing onto the incumbent's
    /// favorite action. The new value is persisted with the agent.
    pub fn set_entropy_coef(&mut self, entropy_coef: f64) {
        self.config.entropy_coef = entropy_coef;
    }

    /// Serializes the full agent (both networks + hyperparameters) as
    /// an explicit JSON value. Weights survive a write→parse cycle
    /// bit-exactly, so a reloaded agent reproduces the original's
    /// actions step for step.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::object(vec![
            ("obs_dim", Value::from(self.obs_dim)),
            ("num_actions", Value::from(self.num_actions)),
            ("config", self.config.to_value()),
            ("policy", self.policy.to_value()),
            ("value", self.value.to_value()),
        ])
    }

    /// Reconstructs an agent from [`PpoAgent::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch,
    /// including network shapes inconsistent with the declared
    /// observation/action dimensions.
    pub fn from_value(value: &serde_json::Value) -> Result<PpoAgent, String> {
        let int = |key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_u64())
                .map(|v| v as usize)
                .ok_or_else(|| format!("ppo agent: missing integer `{key}`"))
        };
        let net = |key: &str| {
            Mlp::from_value(
                value
                    .get(key)
                    .ok_or_else(|| format!("ppo agent: missing `{key}` network"))?,
            )
            .map_err(|e| format!("ppo agent `{key}`: {e}"))
        };
        let agent = PpoAgent {
            obs_dim: int("obs_dim")?,
            num_actions: int("num_actions")?,
            config: PpoConfig::from_value(
                value.get("config").ok_or("ppo agent: missing `config`")?,
            )?,
            policy: net("policy")?,
            value: net("value")?,
        };
        // Network shapes must match the declared spaces; a trimmed or
        // transplanted checkpoint would otherwise fail only at inference.
        if agent.policy.input_dim() != agent.obs_dim
            || agent.policy.output_dim() != agent.num_actions
        {
            return Err("ppo agent: policy shape != (obs_dim → num_actions)".into());
        }
        if agent.value.input_dim() != agent.obs_dim || agent.value.output_dim() != 1 {
            return Err("ppo agent: value shape != (obs_dim → 1)".into());
        }
        Ok(agent)
    }

    /// Masked action probabilities for an observation.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the observation dimension or
    /// every action is masked.
    pub fn action_probs(&self, obs: &[f64], mask: &[bool]) -> Vec<f64> {
        let logits = self.policy.forward(obs);
        masked_softmax(&logits, mask)
    }

    /// Entropy (nats) of the masked policy distribution at one
    /// observation — the probe behind action-diversity floors: a
    /// collapsed policy reads ≈0 regardless of how many actions the
    /// mask allows.
    pub fn policy_entropy(&self, obs: &[f64], mask: &[bool]) -> f64 {
        distribution_entropy(&self.action_probs(obs, mask))
    }

    /// The highest-probability legal action (deterministic policy).
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the observation dimension or
    /// every action is masked.
    pub fn act_greedy(&self, obs: &[f64], mask: &[bool]) -> usize {
        greedy_from_logits(&self.policy.forward(obs), mask)
    }

    /// The policy network, read-only — the compiler's lockstep rollout
    /// evaluates it directly and picks actions with
    /// [`greedy_from_logits`], which is guaranteed to agree with
    /// [`PpoAgent::act_greedy`].
    pub fn policy(&self) -> &Mlp {
        &self.policy
    }

    /// The value estimate for an observation.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the observation dimension.
    pub fn value_of(&self, obs: &[f64]) -> f64 {
        self.value.forward(obs)[0]
    }

    /// Trains for `total_timesteps` environment steps, invoking
    /// `progress` after every update.
    pub fn train<E: Environment>(
        &mut self,
        env: &mut E,
        total_timesteps: usize,
        seed: u64,
        mut progress: impl FnMut(&TrainStats),
    ) {
        assert_eq!(env.obs_dim(), self.obs_dim, "observation size mismatch");
        assert_eq!(env.num_actions(), self.num_actions, "action size mismatch");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut adam_policy = Adam::new(&self.policy, self.config.learning_rate);
        let mut adam_value = Adam::new(&self.value, self.config.learning_rate);

        let mut timesteps = 0usize;
        let mut obs = env.reset(&mut rng);
        let mut mask = env.action_mask();
        while timesteps < total_timesteps {
            let (rollout, stats, next_obs, next_mask) =
                self.collect_rollout(env, obs, mask, &mut rng);
            obs = next_obs;
            mask = next_mask;
            timesteps += rollout.obs.len();
            self.update(&rollout, &mut adam_policy, &mut adam_value, &mut rng);
            progress(&TrainStats { timesteps, ..stats });
        }
    }

    fn collect_rollout<E: Environment>(
        &self,
        env: &mut E,
        mut obs: Vec<f64>,
        mut mask: Vec<bool>,
        rng: &mut StdRng,
    ) -> (Rollout, TrainStats, Vec<f64>, Vec<bool>) {
        let n = self.config.steps_per_update;
        let mut r = Rollout {
            obs: Vec::with_capacity(n),
            masks: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            log_probs: Vec::with_capacity(n),
            rewards: Vec::with_capacity(n),
            dones: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            bootstrap: 0.0,
        };
        let mut episode_reward = 0.0;
        let mut finished_rewards: Vec<f64> = Vec::new();
        let mut entropy_sum = 0.0;
        for _ in 0..n {
            let probs = self.action_probs(&obs, &mask);
            entropy_sum += distribution_entropy(&probs);
            let action = sample_categorical(&probs, rng);
            let log_prob = probs[action].max(1e-12).ln();
            let value = self.value_of(&obs);
            let Step {
                obs: next_obs,
                reward,
                done,
            } = env.step(action, rng);
            episode_reward += reward;
            r.obs.push(obs);
            r.masks.push(mask);
            r.actions.push(action);
            r.log_probs.push(log_prob);
            r.rewards.push(reward);
            r.dones.push(done);
            r.values.push(value);
            if done {
                finished_rewards.push(episode_reward);
                episode_reward = 0.0;
                obs = env.reset(rng);
            } else {
                obs = next_obs;
            }
            mask = env.action_mask();
        }
        r.bootstrap = if *r.dones.last().expect("non-empty rollout") {
            0.0
        } else {
            self.value_of(&obs)
        };
        let stats = TrainStats {
            timesteps: 0,
            mean_episode_reward: if finished_rewards.is_empty() {
                f64::NAN
            } else {
                finished_rewards.iter().sum::<f64>() / finished_rewards.len() as f64
            },
            episodes: finished_rewards.len(),
            mean_entropy: entropy_sum / n as f64,
        };
        (r, stats, obs, mask)
    }

    /// GAE(λ) advantages, normalized to zero mean and unit variance,
    /// and the value targets (advantage + value) of a rollout.
    fn advantages_and_returns(&self, rollout: &Rollout) -> (Vec<f64>, Vec<f64>) {
        let n = rollout.obs.len();
        let mut advantages = vec![0.0; n];
        let mut gae = 0.0;
        for t in (0..n).rev() {
            let next_value = if rollout.dones[t] {
                0.0
            } else if t + 1 < n {
                rollout.values[t + 1]
            } else {
                rollout.bootstrap
            };
            let not_done = if rollout.dones[t] { 0.0 } else { 1.0 };
            let delta = rollout.rewards[t] + self.config.gamma * next_value - rollout.values[t];
            gae = delta + self.config.gamma * self.config.gae_lambda * not_done * gae;
            advantages[t] = gae;
        }
        let returns: Vec<f64> = advantages
            .iter()
            .zip(rollout.values.iter())
            .map(|(a, v)| a + v)
            .collect();
        let mean = advantages.iter().sum::<f64>() / n as f64;
        let var = advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt().max(1e-8);
        for a in &mut advantages {
            *a = (*a - mean) / std;
        }
        (advantages, returns)
    }

    /// One PPO update: `epochs` passes over the rollout in shuffled
    /// minibatches. Each minibatch is one batched forward and one
    /// batched backward of each network (clipped surrogate plus entropy
    /// bonus for the policy, squared error for the value), then a
    /// gradient-norm clip and an Adam step per network. The batched
    /// passes add every sum in the order a per-sample loop over the
    /// minibatch would (see the `nn` module), so the trained weights
    /// are bit-identical to it.
    fn update(
        &mut self,
        rollout: &Rollout,
        adam_policy: &mut Adam,
        adam_value: &mut Adam,
        rng: &mut StdRng,
    ) {
        let (advantages, returns) = self.advantages_and_returns(rollout);
        let mut indices: Vec<usize> = (0..rollout.obs.len()).collect();
        let mut xs: Vec<f64> = Vec::new();
        let mut dlogits: Vec<f64> = Vec::new();
        let mut dvalues: Vec<f64> = Vec::new();
        for _ in 0..self.config.epochs {
            indices.shuffle(rng);
            for batch in indices.chunks(self.config.minibatch_size.max(1)) {
                xs.clear();
                for &i in batch {
                    xs.extend_from_slice(&rollout.obs[i]);
                }
                let policy = self.policy.forward_minibatch(&xs, batch.len());
                let value = self.value.forward_minibatch(&xs, batch.len());
                let scale = 1.0 / batch.len() as f64;
                dlogits.clear();
                dvalues.clear();
                let rows = policy.output().chunks(self.num_actions);
                for ((&i, logits), &v) in batch.iter().zip(rows).zip(value.output()) {
                    // ---- policy ----
                    let probs = masked_softmax(logits, &rollout.masks[i]);
                    let a = rollout.actions[i];
                    let logp = probs[a].max(1e-12).ln();
                    let ratio = (logp - rollout.log_probs[i]).exp();
                    let adv = advantages[i];
                    // Clipped surrogate: gradient flows only when the
                    // unclipped term is active.
                    let unclipped_active = if adv >= 0.0 {
                        ratio < 1.0 + self.config.clip
                    } else {
                        ratio > 1.0 - self.config.clip
                    };
                    let dl_dlogp = if unclipped_active { -adv * ratio } else { 0.0 };
                    // Entropy of the masked distribution.
                    let entropy = distribution_entropy(&probs);
                    // dL/dlogit_k = dl_dlogp·(δ_ak − π_k)
                    //             + c_ent·π_k·(ln π_k + H)   (masked: π=0)
                    for (k, &pk) in probs.iter().enumerate() {
                        let indicator = if k == a { 1.0 } else { 0.0 };
                        let mut g = dl_dlogp * (indicator - pk);
                        if pk > 1e-12 {
                            g += self.config.entropy_coef * pk * (pk.ln() + entropy);
                        }
                        dlogits.push(g * scale);
                    }
                    // ---- value ----
                    dvalues.push(2.0 * (v - returns[i]) * self.config.value_coef * scale);
                }
                let mut pol_grads = self.policy.backward_minibatch(&policy, &dlogits);
                let mut val_grads = self.value.backward_minibatch(&value, &dvalues);
                clip_grad_norm(&mut pol_grads, self.config.max_grad_norm);
                clip_grad_norm(&mut val_grads, self.config.max_grad_norm);
                adam_policy.step(&mut self.policy, &pol_grads);
                adam_value.step(&mut self.value, &val_grads);
            }
        }
    }
}

fn clip_grad_norm(grads: &mut Gradients, max_norm: f64) {
    let norm = grads.norm();
    if norm > max_norm {
        grads.scale(max_norm / norm);
    }
}

/// The greedy action for one row of policy logits under a legality
/// mask — the exact selection rule [`PpoAgent::act_greedy`] uses
/// (masked softmax, then argmax by `total_cmp`), factored out so the
/// batched inference path breaks ties identically to the per-vector
/// path.
///
/// # Panics
///
/// Panics if every entry is masked.
pub fn greedy_from_logits(logits: &[f64], mask: &[bool]) -> usize {
    let probs = masked_softmax(logits, mask);
    probs
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("non-empty action space")
}

/// Softmax over `logits` restricted to unmasked entries.
///
/// # Panics
///
/// Panics if every entry is masked.
pub fn masked_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(mask.iter().any(|&m| m), "all actions masked");
    let max = logits
        .iter()
        .zip(mask.iter())
        .filter(|(_, &m)| m)
        .map(|(l, _)| *l)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut probs: Vec<f64> = logits
        .iter()
        .zip(mask.iter())
        .map(|(l, &m)| if m { (l - max).exp() } else { 0.0 })
        .collect();
    let total: f64 = probs.iter().sum();
    for p in &mut probs {
        *p /= total;
    }
    probs
}

/// Shannon entropy (nats) of one probability vector. Zero-probability
/// entries (masked actions) contribute nothing, so the value compares
/// across states with different legality masks.
pub fn distribution_entropy(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|p| **p > 1e-12)
        .map(|p| -p * p.ln())
        .sum()
}

/// Samples an index from a probability vector.
pub fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let mut r: f64 = rng.gen();
    let mut last_valid = 0;
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.0 {
            last_valid = i;
            if r < p {
                return i;
            }
            r -= p;
        }
    }
    last_valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::toy::{Bandit, Corridor, Ring};
    use crate::nn::oracle;
    use proptest::prelude::*;

    /// The update PPO ran before each minibatch went batched: every
    /// sample of a minibatch through its own forward and backward pass
    /// of each network, its gradients added into zeroed buffers in
    /// minibatch order. The oracle for [`PpoAgent::update`].
    fn oracle_update(
        agent: &mut PpoAgent,
        rollout: &Rollout,
        adam_policy: &mut Adam,
        adam_value: &mut Adam,
        rng: &mut StdRng,
    ) {
        let (advantages, returns) = agent.advantages_and_returns(rollout);
        let config = agent.config.clone();
        let mut indices: Vec<usize> = (0..rollout.obs.len()).collect();
        for _ in 0..config.epochs {
            indices.shuffle(rng);
            for batch in indices.chunks(config.minibatch_size.max(1)) {
                let mut pol_grads = oracle::zero_gradients(&agent.policy);
                let mut val_grads = oracle::zero_gradients(&agent.value);
                let scale = 1.0 / batch.len() as f64;
                for &i in batch {
                    let x = &rollout.obs[i];
                    let (_, post) = oracle::forward(&agent.policy, x);
                    let probs = masked_softmax(post.last().unwrap(), &rollout.masks[i]);
                    let a = rollout.actions[i];
                    let logp = probs[a].max(1e-12).ln();
                    let ratio = (logp - rollout.log_probs[i]).exp();
                    let adv = advantages[i];
                    let unclipped_active = if adv >= 0.0 {
                        ratio < 1.0 + config.clip
                    } else {
                        ratio > 1.0 - config.clip
                    };
                    let dl_dlogp = if unclipped_active { -adv * ratio } else { 0.0 };
                    let entropy = distribution_entropy(&probs);
                    let mut dlogits = vec![0.0; agent.num_actions];
                    for k in 0..agent.num_actions {
                        let pk = probs[k];
                        let indicator = if k == a { 1.0 } else { 0.0 };
                        let mut g = dl_dlogp * (indicator - pk);
                        if pk > 1e-12 {
                            g += config.entropy_coef * pk * (pk.ln() + entropy);
                        }
                        dlogits[k] = g * scale;
                    }
                    oracle::backward(&agent.policy, x, &dlogits, &mut pol_grads);
                    let (_, vpost) = oracle::forward(&agent.value, x);
                    let v = vpost.last().unwrap()[0];
                    let dv = 2.0 * (v - returns[i]) * config.value_coef * scale;
                    oracle::backward(&agent.value, x, &[dv], &mut val_grads);
                }
                clip_grad_norm(&mut pol_grads, config.max_grad_norm);
                clip_grad_norm(&mut val_grads, config.max_grad_norm);
                adam_policy.step(&mut agent.policy, &pol_grads);
                adam_value.step(&mut agent.value, &val_grads);
            }
        }
    }

    /// [`PpoAgent::train`] with [`oracle_update`] in place of the
    /// batched update.
    fn oracle_train<E: Environment>(agent: &mut PpoAgent, env: &mut E, total: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut adam_policy = Adam::new(&agent.policy, agent.config.learning_rate);
        let mut adam_value = Adam::new(&agent.value, agent.config.learning_rate);
        let mut timesteps = 0;
        let mut obs = env.reset(&mut rng);
        let mut mask = env.action_mask();
        while timesteps < total {
            let (rollout, _, next_obs, next_mask) = agent.collect_rollout(env, obs, mask, &mut rng);
            obs = next_obs;
            mask = next_mask;
            timesteps += rollout.obs.len();
            oracle_update(agent, &rollout, &mut adam_policy, &mut adam_value, &mut rng);
        }
    }

    fn weight_bits(agent: &PpoAgent) -> Vec<u64> {
        let mut bits = Vec::new();
        for net in [&agent.policy, &agent.value] {
            let layers = net.to_value();
            for layer in layers.as_array().unwrap() {
                for key in ["w", "b"] {
                    let values = crate::nn::float_vec(layer.get(key).unwrap()).unwrap();
                    bits.extend(values.iter().map(|v| v.to_bits()));
                }
            }
        }
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn batched_update_matches_the_per_sample_oracle(
            (obs_dim, actions, hidden) in
                (1usize..20, 1usize..32, proptest::collection::vec(1usize..40, 0..3)),
            (steps_per_update, minibatch_size, epochs, updates) in
                (1usize..90, 0usize..70, 1usize..4, 1usize..3),
            seed in 0u64..1_000,
        ) {
            let config = PpoConfig {
                steps_per_update,
                minibatch_size,
                epochs,
                learning_rate: 3e-3,
                entropy_coef: 0.05,
                hidden,
                ..PpoConfig::default()
            };
            let total = steps_per_update * updates;
            let mut batched = PpoAgent::new(obs_dim, actions, config, seed);
            let mut per_sample = batched.clone();
            batched.train(&mut Ring::new(obs_dim, actions), total, seed + 1, |_| {});
            oracle_train(&mut per_sample, &mut Ring::new(obs_dim, actions), total, seed + 1);
            prop_assert_eq!(weight_bits(&batched), weight_bits(&per_sample));
        }
    }

    fn quick_config() -> PpoConfig {
        PpoConfig {
            steps_per_update: 128,
            minibatch_size: 32,
            epochs: 6,
            hidden: vec![32],
            learning_rate: 3e-3,
            ..PpoConfig::default()
        }
    }

    #[test]
    fn agent_json_round_trip_reproduces_actions() {
        let mut env = Bandit {
            payouts: vec![0.1, 0.9, 0.4, 0.2],
            mask: vec![true; 4],
        };
        let mut agent = PpoAgent::new(env.obs_dim(), env.num_actions(), quick_config(), 7);
        agent.train(&mut env, 256, 7, |_| {});
        let text = serde_json::to_string(&agent.to_value());
        let back = PpoAgent::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.obs_dim(), agent.obs_dim());
        assert_eq!(back.num_actions(), agent.num_actions());
        assert_eq!(back.config().hidden, agent.config().hidden);
        let mask = vec![true; agent.num_actions()];
        for step in 0..16 {
            let obs = vec![step as f64 * 0.1; agent.obs_dim()];
            assert_eq!(back.act_greedy(&obs, &mask), agent.act_greedy(&obs, &mask));
            let (p, q) = (
                back.action_probs(&obs, &mask),
                agent.action_probs(&obs, &mask),
            );
            for (a, b) in p.iter().zip(q.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "probabilities must be bit-equal");
            }
        }
    }

    #[test]
    fn agent_from_value_rejects_shape_mismatch() {
        let agent = PpoAgent::new(3, 2, quick_config(), 0);
        let mut v = agent.to_value();
        if let serde_json::Value::Object(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "num_actions" {
                    *val = serde_json::Value::from(5usize);
                }
            }
        }
        let err = PpoAgent::from_value(&v).unwrap_err();
        assert!(err.contains("policy shape"), "{err}");
    }

    #[test]
    fn config_from_value_rejects_an_empty_rollout() {
        let mut v = quick_config().to_value();
        if let serde_json::Value::Object(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "steps_per_update" {
                    *val = serde_json::Value::from(0usize);
                }
            }
        }
        let err = PpoConfig::from_value(&v).unwrap_err();
        assert!(err.contains("`steps_per_update`"), "{err}");
    }

    #[test]
    fn masked_softmax_properties() {
        let probs = masked_softmax(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert_eq!(probs[1], 0.0);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    #[should_panic(expected = "all actions masked")]
    fn masked_softmax_rejects_empty_mask() {
        masked_softmax(&[1.0, 2.0], &[false, false]);
    }

    #[test]
    fn sample_categorical_respects_zeros() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let i = sample_categorical(&[0.0, 0.7, 0.3, 0.0], &mut rng);
            assert!(i == 1 || i == 2);
        }
    }

    #[test]
    fn ppo_learns_bandit() {
        let mut env = Bandit {
            payouts: vec![0.1, 0.9, 0.3],
            mask: vec![true, true, true],
        };
        let mut agent = PpoAgent::new(1, 3, quick_config(), 7);
        agent.train(&mut env, 4000, 1, |_| {});
        assert_eq!(agent.act_greedy(&[1.0], &[true, true, true]), 1);
        // Sampled policy should also strongly favor arm 1.
        let probs = agent.action_probs(&[1.0], &[true, true, true]);
        assert!(probs[1] > 0.6, "probs: {probs:?}");
    }

    #[test]
    fn ppo_respects_action_masks() {
        // The best arm is masked: the agent must pick the best legal one.
        let mut env = Bandit {
            payouts: vec![0.2, 0.9, 0.5],
            mask: vec![true, false, true],
        };
        let mut agent = PpoAgent::new(1, 3, quick_config(), 3);
        agent.train(&mut env, 3000, 2, |_| {});
        let mask = vec![true, false, true];
        assert_eq!(agent.act_greedy(&[1.0], &mask), 2);
        let probs = agent.action_probs(&[1.0], &mask);
        assert_eq!(probs[1], 0.0);
    }

    #[test]
    fn ppo_learns_corridor() {
        let mut env = Corridor::new(7);
        let mut agent = PpoAgent::new(1, 2, quick_config(), 11);
        let mut last_mean = f64::NAN;
        agent.train(&mut env, 6000, 5, |s| {
            if !s.mean_episode_reward.is_nan() {
                last_mean = s.mean_episode_reward;
            }
        });
        // After training, episodes should almost always reach the goal.
        assert!(last_mean > 0.9, "mean episode reward {last_mean}");
        // Greedy policy walks right from the middle.
        let obs = vec![0.5];
        assert_eq!(agent.act_greedy(&obs, &[true, true]), 1);
    }

    #[test]
    fn entropy_bonus_prevents_policy_collapse() {
        // Near-tied arms — lots of reward-equivalent diversity worth
        // keeping (Fösel et al., arXiv:2103.07585: circuit-optimization
        // policies collapse onto one action without diversity shaping).
        // Advantage normalization amplifies even a 0.01 payout gap to
        // unit scale, so without the bonus PPO collapses onto one arm;
        // the coefficient must rival the unit-scale surrogate gradient
        // to hold diversity, at a reward cost bounded by the gap.
        let train = |entropy_coef: f64| {
            let mut env = Bandit {
                payouts: vec![0.80, 0.79, 0.78],
                mask: vec![true; 3],
            };
            let config = PpoConfig {
                entropy_coef,
                ..quick_config()
            };
            let mut agent = PpoAgent::new(1, 3, config, 13);
            let mut last = TrainStats {
                timesteps: 0,
                mean_episode_reward: f64::NAN,
                episodes: 0,
                mean_entropy: f64::NAN,
            };
            agent.train(&mut env, 6000, 21, |s| last = *s);
            (agent, last)
        };
        let (off_agent, off) = train(0.0);
        let (on_agent, on) = train(1.5);
        // Measurable collapse without the bonus…
        assert!(
            off.mean_entropy < 0.35,
            "expected collapse without entropy bonus, got {:.3} nats",
            off.mean_entropy
        );
        // …a diversity floor with it (ln 3 ≈ 1.099 is the maximum)…
        assert!(
            on.mean_entropy > 0.6,
            "entropy bonus failed to hold the floor: {:.3} nats",
            on.mean_entropy
        );
        // …and no reward regression on the near-tied arms.
        assert!(
            on.mean_episode_reward > off.mean_episode_reward - 0.02,
            "reward regressed: {} vs {}",
            on.mean_episode_reward,
            off.mean_episode_reward
        );
        // The per-state probe orders the two policies the same way.
        let mask = vec![true; 3];
        assert!(
            on_agent.policy_entropy(&[1.0], &mask) > off_agent.policy_entropy(&[1.0], &mask),
            "policy_entropy probe disagrees with rollout entropy"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let make = || {
            let mut env = Bandit {
                payouts: vec![0.4, 0.6],
                mask: vec![true, true],
            };
            let mut agent = PpoAgent::new(1, 2, quick_config(), 42);
            agent.train(&mut env, 1000, 9, |_| {});
            agent.action_probs(&[1.0], &[true, true])
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn value_estimate_tracks_returns() {
        let mut env = Bandit {
            payouts: vec![0.5, 0.5],
            mask: vec![true, true],
        };
        let mut agent = PpoAgent::new(1, 2, quick_config(), 1);
        agent.train(&mut env, 3000, 4, |_| {});
        // Every episode pays exactly 0.5; the value head should know it.
        let v = agent.value_of(&[1.0]);
        assert!((v - 0.5).abs() < 0.15, "value {v}");
    }
}
