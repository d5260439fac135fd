//! The RL environment wrapping the compilation MDP.
//!
//! Observations follow the paper: the seven circuit features (qubit count,
//! depth, and the five SupermarQ composites). Because our MDP also selects
//! the platform and device inside the episode (paper Fig. 2), the
//! observation is extended with a one-hot encoding of the Fig. 2 state and
//! of the chosen device so the policy can distinguish compilation stages —
//! the action mask alone would leave them aliased.

use crate::action::Action;
use crate::flow::CompilationFlow;
use crate::reward::RewardKind;
use qrc_circuit::{FeatureVector, QuantumCircuit, NUM_FEATURES};
use qrc_device::DeviceId;
use qrc_rl::{Environment, Step};
use rand::rngs::StdRng;
use rand::Rng;

/// Size of the observation vector:
/// 7 features + 5 flow states + 6 device slots (5 devices + "none").
pub const OBS_DIM: usize = NUM_FEATURES + 5 + 6;

/// Which features the observation exposes (ablation knob).
///
/// The paper uses all seven features; `BasicOnly` zeroes the five
/// SupermarQ composites to measure how much they contribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObservationMode {
    /// All seven features (paper configuration).
    #[default]
    Full,
    /// Only qubit count and depth; composite features zeroed.
    BasicOnly,
}

/// How illegal actions are handled (ablation knob).
///
/// The paper (via `MaskablePPO`) masks them out of the policy; the
/// `Penalize` variant instead exposes the full action space and punishes
/// illegal choices — the standard alternative this reproduction ablates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidActionMode {
    /// Illegal actions are removed from the distribution (paper).
    #[default]
    Mask,
    /// All actions selectable; illegal ones cost a penalty and do nothing.
    Penalize,
}

/// Maximum actions per episode before truncation with zero reward.
pub const MAX_EPISODE_STEPS: usize = 24;

/// The compilation environment: each episode compiles one circuit from
/// the training set, drawn uniformly at random.
#[derive(Debug, Clone)]
pub struct CompilationEnv {
    circuits: Vec<QuantumCircuit>,
    reward: RewardKind,
    flow: Option<CompilationFlow>,
    /// Index of the episode's circuit (for diagnostics).
    current: usize,
    episode_seed: u64,
    /// When set, episodes always use this circuit index (evaluation mode).
    pinned: Option<usize>,
    /// Optional reward shaping: a small penalty per non-terminal step.
    step_penalty: f64,
    /// Observation ablation mode.
    obs_mode: ObservationMode,
    /// Invalid-action handling mode.
    invalid_mode: InvalidActionMode,
}

impl CompilationEnv {
    /// Creates an environment over a training set of circuits.
    ///
    /// # Panics
    ///
    /// Panics if `circuits` is empty.
    pub fn new(circuits: Vec<QuantumCircuit>, reward: RewardKind) -> Self {
        assert!(!circuits.is_empty(), "need at least one training circuit");
        CompilationEnv {
            circuits,
            reward,
            flow: None,
            current: 0,
            episode_seed: 0,
            pinned: None,
            step_penalty: 0.0,
            obs_mode: ObservationMode::Full,
            invalid_mode: InvalidActionMode::Mask,
        }
    }

    /// Enables reward shaping: every non-terminal action costs `penalty`.
    ///
    /// The paper uses a purely sparse reward; a small penalty (e.g. 0.005)
    /// speeds up convergence at reduced training budgets by pushing the
    /// agent toward short successful episodes. Exposed as an ablation.
    pub fn with_step_penalty(mut self, penalty: f64) -> Self {
        self.step_penalty = penalty;
        self
    }

    /// Selects the observation ablation mode.
    pub fn with_observation_mode(mut self, mode: ObservationMode) -> Self {
        self.obs_mode = mode;
        self
    }

    /// Selects how illegal actions are handled.
    pub fn with_invalid_action_mode(mut self, mode: InvalidActionMode) -> Self {
        self.invalid_mode = mode;
        self
    }

    /// Pins every episode to circuit `index` (used for evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn pin_circuit(&mut self, index: usize) {
        assert!(index < self.circuits.len(), "circuit index out of range");
        self.pinned = Some(index);
    }

    /// The reward function in use.
    pub fn reward(&self) -> RewardKind {
        self.reward
    }

    /// The current flow (populated after the first `reset`).
    pub fn flow(&self) -> Option<&CompilationFlow> {
        self.flow.as_ref()
    }

    fn observe(&self) -> Vec<f64> {
        let flow = self.flow.as_ref().expect("reset before observe");
        let mut obs = observation_of(flow);
        if self.obs_mode == ObservationMode::BasicOnly {
            // Zero the five SupermarQ composites (indices 2..7).
            for v in obs.iter_mut().take(NUM_FEATURES).skip(2) {
                *v = 0.0;
            }
        }
        obs
    }
}

/// Builds the observation vector for a flow (shared with inference).
pub fn observation_of(flow: &CompilationFlow) -> Vec<f64> {
    let mut obs = Vec::with_capacity(OBS_DIM);
    obs.extend_from_slice(&FeatureVector::of(flow.circuit()).to_array());
    let mut state_onehot = [0.0; 5];
    state_onehot[flow.state().index()] = 1.0;
    obs.extend_from_slice(&state_onehot);
    let mut device_onehot = [0.0; 6];
    match flow.device() {
        Some(dev) => {
            // Dynamic (registry-loaded) devices have no slot in the
            // fixed checkpoint one-hot; they encode as all-zeros,
            // which stays distinct from both the built-ins and the
            // explicit "no device yet" slot.
            if let Some(idx) = DeviceId::ALL.iter().position(|d| *d == dev.id()) {
                device_onehot[idx] = 1.0;
            }
        }
        None => device_onehot[5] = 1.0,
    }
    obs.extend_from_slice(&device_onehot);
    debug_assert_eq!(obs.len(), OBS_DIM);
    obs
}

impl Environment for CompilationEnv {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn num_actions(&self) -> usize {
        Action::COUNT
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.current = match self.pinned {
            Some(i) => i,
            None => rng.gen_range(0..self.circuits.len()),
        };
        self.episode_seed = rng.gen();
        self.flow = Some(CompilationFlow::new(
            self.circuits[self.current].clone(),
            self.episode_seed,
        ));
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
        let act = Action::ALL[action];
        let legal = self.flow.as_ref().expect("reset before step").is_legal(act);
        if !legal {
            // Reachable only in `Penalize` mode (masking filters these).
            let truncated = {
                let flow = self.flow.as_mut().expect("flow");
                flow.note_wasted_step();
                flow.steps() >= MAX_EPISODE_STEPS
            };
            return Step {
                obs: self.observe(),
                reward: -0.1,
                done: truncated,
            };
        }
        let flow = self.flow.as_mut().expect("reset before step");
        // Legality was checked; a pass failure is a hard bug in the pass
        // library, but fail soft: terminate with zero reward.
        if flow.apply(act).is_err() {
            return Step {
                obs: self.observe(),
                reward: 0.0,
                done: true,
            };
        }
        let done_by_state = flow.is_done();
        let truncated = flow.steps() >= MAX_EPISODE_STEPS;
        let reward = if done_by_state {
            let device = flow.device().expect("device chosen in Done state");
            self.reward.evaluate(flow.circuit(), device)
        } else {
            -self.step_penalty
        };
        Step {
            obs: self.observe(),
            reward,
            done: done_by_state || truncated,
        }
    }

    fn action_mask(&self) -> Vec<bool> {
        let flow = self.flow.as_ref().expect("reset before mask");
        if self.invalid_mode == InvalidActionMode::Penalize && !flow.is_done() {
            return vec![true; Action::COUNT];
        }
        let mask = flow.action_mask();
        if mask.iter().any(|&m| m) {
            mask
        } else {
            // Terminal state reached outside `step` (cannot normally
            // happen): permit a no-op optimization to keep PPO's
            // invariant that at least one action is legal.
            let mut fallback = vec![false; mask.len()];
            *fallback.last_mut().expect("non-empty") = true;
            fallback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_benchgen::BenchmarkFamily;
    use rand::SeedableRng;

    fn env() -> CompilationEnv {
        let circuits = vec![
            BenchmarkFamily::Ghz.generate(3),
            BenchmarkFamily::Dj.generate(4),
        ];
        CompilationEnv::new(circuits, RewardKind::ExpectedFidelity)
    }

    #[test]
    fn reset_produces_normalized_observation() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(0);
        let obs = e.reset(&mut rng);
        assert_eq!(obs.len(), OBS_DIM);
        assert!(obs.iter().all(|v| (0.0..=1.0).contains(v)));
        // State one-hot says Start; device one-hot says none.
        assert_eq!(obs[NUM_FEATURES], 1.0);
        assert_eq!(obs[OBS_DIM - 1], 1.0);
    }

    #[test]
    fn mask_always_has_legal_action_until_done() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(1);
        e.reset(&mut rng);
        for _ in 0..MAX_EPISODE_STEPS {
            let mask = e.action_mask();
            assert!(mask.iter().any(|&m| m));
            let action = mask.iter().position(|&m| m).unwrap();
            let step = e.step(action, &mut rng);
            if step.done {
                return;
            }
        }
    }

    #[test]
    fn random_legal_rollouts_terminate_with_bounded_reward() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..8 {
            e.reset(&mut rng);
            let mut total = 0.0;
            loop {
                let mask = e.action_mask();
                let legal: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| i)
                    .collect();
                let action = legal[rng.gen_range(0..legal.len())];
                let step = e.step(action, &mut rng);
                total += step.reward;
                if step.done {
                    break;
                }
            }
            assert!((0.0..=1.0).contains(&total), "episode reward {total}");
        }
    }

    #[test]
    fn pinned_circuit_is_used_every_episode() {
        let mut e = env();
        e.pin_circuit(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 {
            e.reset(&mut rng);
            assert_eq!(e.flow().unwrap().circuit().name(), "dj_4");
        }
    }

    #[test]
    fn successful_episode_pays_the_metric() {
        // Drive a known-good action sequence and check the reward equals
        // the metric of the final circuit.
        let mut e = env();
        e.pin_circuit(0); // ghz_3
        let mut rng = StdRng::seed_from_u64(4);
        e.reset(&mut rng);
        let all = Action::all();
        let find = |a: &Action| all.iter().position(|x| x == a).unwrap();
        use qrc_device::Platform;
        let seq = [
            Action::SelectPlatform(Platform::Ionq),
            Action::SelectDevice(DeviceId::IonqHarmony),
            Action::Synthesize,
        ];
        let mut last = None;
        for a in seq {
            last = Some(e.step(find(&a), &mut rng));
        }
        let step = last.unwrap();
        assert!(step.done);
        assert!(step.reward > 0.5, "reward {}", step.reward);
        let flow = e.flow().unwrap();
        let expect = RewardKind::ExpectedFidelity.evaluate(flow.circuit(), flow.device().unwrap());
        assert!((step.reward - expect).abs() < 1e-12);
    }
}
