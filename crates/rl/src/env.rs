//! The environment interface (OpenAI-Gym-style) with action masking.

use rand::rngs::StdRng;

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the action.
    pub obs: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// `true` if the episode terminated with this step.
    pub done: bool,
}

/// A Markov decision process with a discrete, maskable action space.
///
/// Mirrors the OpenAI Gym interface the paper instantiates, plus the
/// invalid-action masking of `sb3-contrib`'s `MaskablePPO` (actions that
/// are illegal in the current state are excluded from the policy's
/// distribution rather than punished).
pub trait Environment {
    /// Dimension of the observation vector.
    fn obs_dim(&self) -> usize;

    /// Size of the (fixed) discrete action space.
    fn num_actions(&self) -> usize;

    /// Starts a new episode and returns the initial observation.
    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64>;

    /// Applies `action`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action` is currently masked out;
    /// agents must only choose unmasked actions.
    fn step(&mut self, action: usize, rng: &mut StdRng) -> Step;

    /// Which actions are currently legal. Must contain at least one
    /// `true` whenever the episode is not done.
    fn action_mask(&self) -> Vec<bool>;
}

#[cfg(test)]
pub(crate) mod toy {
    //! Toy environments with known optima, used to validate the learner.

    use super::*;
    use rand::Rng;

    /// A one-step bandit: `K` arms with fixed payouts; optimum = best arm.
    pub struct Bandit {
        pub payouts: Vec<f64>,
        pub mask: Vec<bool>,
    }

    impl Environment for Bandit {
        fn obs_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            self.payouts.len()
        }
        fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![1.0]
        }
        fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
            assert!(self.mask[action], "masked action chosen");
            Step {
                obs: vec![1.0],
                reward: self.payouts[action],
                done: true,
            }
        }
        fn action_mask(&self) -> Vec<bool> {
            self.mask.clone()
        }
    }

    /// A 1-D corridor: start in the middle, reach the right end within a
    /// step budget. Reward 1 at the goal, 0 otherwise; moving off the
    /// ends is masked out.
    pub struct Corridor {
        pub len: usize,
        pub pos: usize,
        pub steps: usize,
        pub max_steps: usize,
        pub noise: bool,
    }

    impl Corridor {
        pub fn new(len: usize) -> Self {
            Corridor {
                len,
                pos: len / 2,
                steps: 0,
                max_steps: 4 * len,
                noise: false,
            }
        }

        fn observe(&self) -> Vec<f64> {
            vec![self.pos as f64 / self.len as f64]
        }
    }

    impl Environment for Corridor {
        fn obs_dim(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            2 // 0 = left, 1 = right
        }
        fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
            self.pos = if self.noise {
                rng.gen_range(0..self.len)
            } else {
                self.len / 2
            };
            self.steps = 0;
            self.observe()
        }
        fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
            assert!(self.action_mask()[action], "masked action chosen");
            self.steps += 1;
            match action {
                0 => self.pos -= 1,
                _ => self.pos += 1,
            }
            let done = self.pos == self.len - 1 || self.steps >= self.max_steps;
            let reward = if self.pos == self.len - 1 { 1.0 } else { 0.0 };
            Step {
                obs: self.observe(),
                reward,
                done,
            }
        }
        fn action_mask(&self) -> Vec<bool> {
            vec![self.pos > 0, self.pos < self.len - 1]
        }
    }

    /// A walk on a ring of 11 cells with any observation and action
    /// count: action `a` moves `a + 1` cells (some strides masked by
    /// position), reaching cell 0 pays 1 and every other stride costs
    /// a little, and episodes last at most 12 steps. The observation is
    /// `obs_dim` rational features of the position.
    pub struct Ring {
        pub obs_dim: usize,
        pub actions: usize,
        pos: usize,
        steps: usize,
    }

    impl Ring {
        const LEN: usize = 11;

        pub fn new(obs_dim: usize, actions: usize) -> Self {
            Ring {
                obs_dim,
                actions,
                pos: 1,
                steps: 0,
            }
        }

        fn observe(&self) -> Vec<f64> {
            (0..self.obs_dim)
                .map(|k| ((self.pos * (k + 1)) % Self::LEN) as f64 / Self::LEN as f64 - 0.5)
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
            self.pos = rng.gen_range(1..Self::LEN);
            self.steps = 0;
            self.observe()
        }
        fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
            assert!(self.action_mask()[action], "masked action chosen");
            self.steps += 1;
            self.pos = (self.pos + action + 1) % Self::LEN;
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
}
