//! # qrc-rl
//!
//! A compact reinforcement-learning stack built from scratch for the
//! `mqt-predictor` workspace, replacing OpenAI Gym + Stable-Baselines3:
//!
//! * [`Environment`] — Gym-style MDP interface with invalid-action
//!   masking,
//! * [`Mlp`] / [`Adam`] — dense networks with manual backprop,
//! * [`PpoAgent`] — Proximal Policy Optimization with clipped surrogate,
//!   GAE(λ), entropy bonus, and masked categorical policies.
//!
//! The learner is validated on toy MDPs with known optima (bandits,
//! corridors) in this crate's test-suite before the compilation
//! environment of `qrc-predictor` builds on it.
//!
//! # Examples
//!
//! ```
//! use qrc_rl::{PpoAgent, PpoConfig};
//!
//! let agent = PpoAgent::new(4, 3, PpoConfig::default(), 0);
//! let probs = agent.action_probs(&[0.1, 0.2, 0.3, 0.4], &[true, true, false]);
//! assert_eq!(probs[2], 0.0); // masked action has zero probability
//! ```

#![warn(missing_docs)]

mod env;
mod nn;
mod ppo;

pub use env::{Environment, Step};
pub use nn::{Activations, Adam, Gradients, Mlp};
pub use ppo::{
    distribution_entropy, greedy_from_logits, masked_softmax, sample_categorical, PpoAgent,
    PpoConfig, TrainStats,
};
