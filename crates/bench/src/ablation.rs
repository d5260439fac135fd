//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. **Reward shaping** — sparse terminal reward (paper) vs a small
//!    per-step penalty,
//! 2. **Invalid-action handling** — masking (paper, via MaskablePPO) vs
//!    penalty-based rejection,
//! 3. **Feature ablation** — full 7-feature observations vs qubit
//!    count + depth only,
//! 4. **Policy baselines** — the trained policy vs a random-legal-action
//!    policy and a greedy one-step heuristic.

use qrc_benchgen::paper_suite;
use qrc_predictor::{
    Action, CompilationEnv, CompilationFlow, InvalidActionMode, ObservationMode, PredictorConfig,
    RewardKind, MAX_EPISODE_STEPS, OBS_DIM,
};
use qrc_rl::{Environment, PpoAgent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// One ablation arm: a label plus the mean achieved reward on the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Human-readable arm label.
    pub label: String,
    /// Mean reward over the evaluation suite.
    pub mean_reward: f64,
    /// Fraction of circuits compiled to an executable result.
    pub success_rate: f64,
}

/// Settings shared by all ablation arms.
#[derive(Debug, Clone)]
pub struct AblationSettings {
    /// Largest benchmark width.
    pub max_qubits: u32,
    /// PPO budget per arm.
    pub timesteps: usize,
    /// Objective to optimize/evaluate.
    pub reward: RewardKind,
    /// Master seed.
    pub seed: u64,
    /// Run the six arms rayon-parallel (identical results to serial:
    /// every arm and circuit derives its own seed via
    /// [`crate::task_seed`]).
    pub parallel: bool,
    /// Print each arm's start and finish to stderr.
    pub verbose: bool,
}

impl Default for AblationSettings {
    fn default() -> Self {
        AblationSettings {
            max_qubits: 5,
            timesteps: 6_000,
            reward: RewardKind::ExpectedFidelity,
            seed: 11,
            parallel: true,
            verbose: true,
        }
    }
}

/// Trains one agent with environment modifiers and scores it on the
/// suite. The label is stamped on by [`run_ablations`], which owns the
/// single source of arm names.
fn run_arm(
    settings: &AblationSettings,
    step_penalty: f64,
    obs_mode: ObservationMode,
    invalid_mode: InvalidActionMode,
) -> AblationResult {
    let suite = paper_suite(2, settings.max_qubits);
    let config = PredictorConfig::new(settings.reward, settings.timesteps);
    let mut env = CompilationEnv::new(suite.clone(), settings.reward)
        .with_step_penalty(step_penalty)
        .with_observation_mode(obs_mode)
        .with_invalid_action_mode(invalid_mode);
    let mut agent = PpoAgent::new(OBS_DIM, Action::COUNT, config.ppo.clone(), settings.seed);
    agent.train(&mut env, settings.timesteps, settings.seed, |_| {});
    // Greedy evaluation through a fresh env pinned to each circuit.
    // Each circuit gets its own derived seed (rather than one RNG
    // threaded through the loop) so the evaluation order never affects
    // results — the precondition for running arms in parallel.
    let mut total = 0.0;
    let mut successes = 0usize;
    for (i, _) in suite.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(crate::task_seed(settings.seed, i as u64));
        let mut eval_env = CompilationEnv::new(suite.clone(), settings.reward)
            .with_observation_mode(obs_mode)
            .with_invalid_action_mode(invalid_mode);
        eval_env.pin_circuit(i);
        let mut obs = eval_env.reset(&mut rng);
        for _ in 0..2 * MAX_EPISODE_STEPS {
            let mask = eval_env.action_mask();
            let action = agent.act_greedy(&obs, &mask);
            let step = eval_env.step(action, &mut rng);
            obs = step.obs;
            if step.done {
                if eval_env.flow().is_some_and(CompilationFlow::is_done) {
                    total += step.reward;
                    successes += 1;
                }
                break;
            }
        }
    }
    AblationResult {
        label: String::new(),
        mean_reward: total / suite.len() as f64,
        success_rate: successes as f64 / suite.len() as f64,
    }
}

/// Scores a random-legal-action policy (no learning).
fn random_policy_arm(settings: &AblationSettings) -> AblationResult {
    let suite = paper_suite(2, settings.max_qubits);
    let mut total = 0.0;
    let mut successes = 0usize;
    for (i, qc) in suite.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(crate::task_seed(settings.seed ^ 0xabc, i as u64));
        let mut flow = CompilationFlow::new(qc.clone(), settings.seed);
        for _ in 0..MAX_EPISODE_STEPS {
            if flow.is_done() {
                break;
            }
            let mask = flow.action_mask();
            let legal: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i)
                .collect();
            if legal.is_empty() {
                break;
            }
            let choice = legal[rng.gen_range(0..legal.len())];
            if flow.apply(Action::ALL[choice]).is_err() {
                break;
            }
        }
        if flow.is_done() {
            let dev = flow.device().expect("done implies device");
            total += settings.reward.evaluate(flow.circuit(), dev);
            successes += 1;
        }
    }
    AblationResult {
        label: String::new(),
        mean_reward: total / suite.len() as f64,
        success_rate: successes as f64 / suite.len() as f64,
    }
}

/// Scores a greedy one-step heuristic: among legal actions, simulate each
/// and keep the one with the best immediate (optimistic) metric value.
fn greedy_policy_arm(settings: &AblationSettings) -> AblationResult {
    let suite = paper_suite(2, settings.max_qubits);
    let mut total = 0.0;
    let mut successes = 0usize;
    for qc in &suite {
        let mut flow = CompilationFlow::new(qc.clone(), settings.seed);
        for _ in 0..MAX_EPISODE_STEPS {
            if flow.is_done() {
                break;
            }
            let mask = flow.action_mask();
            // Probe every legal action and keep the best-looking result.
            let mut best: Option<(usize, f64)> = None;
            for (i, &legal) in mask.iter().enumerate() {
                if !legal {
                    continue;
                }
                let mut probe = flow.clone();
                if probe.apply(Action::ALL[i]).is_err() {
                    continue;
                }
                let score = probe_score(&probe, settings.reward);
                match best {
                    Some((_, s)) if s >= score => {}
                    _ => best = Some((i, score)),
                }
            }
            let Some((choice, _)) = best else { break };
            if flow.apply(Action::ALL[choice]).is_err() {
                break;
            }
        }
        if flow.is_done() {
            let dev = flow.device().expect("done implies device");
            total += settings.reward.evaluate(flow.circuit(), dev);
            successes += 1;
        }
    }
    AblationResult {
        label: String::new(),
        mean_reward: total / suite.len() as f64,
        success_rate: successes as f64 / suite.len() as f64,
    }
}

/// Heuristic value of an intermediate flow state: the real metric once
/// Done, otherwise an optimistic estimate minus a distance-to-done nudge.
fn probe_score(flow: &CompilationFlow, reward: RewardKind) -> f64 {
    match flow.device() {
        Some(dev) if flow.is_done() => reward.evaluate(flow.circuit(), dev),
        Some(dev) => {
            let native = dev.check_native_gates(flow.circuit());
            let mapped = dev.check_connectivity(flow.circuit());
            let progress = 0.2 * (native as u8 + mapped as u8) as f64;
            let optimistic = match reward {
                RewardKind::ExpectedFidelity | RewardKind::Combination => {
                    qrc_device::optimistic_fidelity(flow.circuit(), dev) * 0.5
                }
                RewardKind::CriticalDepth => {
                    (1.0 - qrc_circuit::metrics::critical_depth(flow.circuit())) * 0.5
                }
            };
            progress + optimistic - 0.5
        }
        None => -1.0,
    }
}

/// Runs all ablation arms and the policy baselines.
///
/// With `settings.parallel`, the six independent arms run
/// rayon-parallel; every arm derives its own seeds, so results are
/// identical to a serial run.
pub fn run_ablations(settings: &AblationSettings) -> Vec<AblationResult> {
    type Arm = Box<dyn Fn(&AblationSettings) -> AblationResult + Sync>;
    let trained_arm =
        |step_penalty: f64, obs_mode: ObservationMode, invalid_mode: InvalidActionMode| {
            Box::new(move |s: &AblationSettings| run_arm(s, step_penalty, obs_mode, invalid_mode))
                as Arm
        };
    // The single source of arm names: each result's label is stamped
    // from this list after the arm runs.
    let arms: Vec<(&str, Arm)> = vec![
        (
            "sparse reward (paper)",
            trained_arm(0.0, ObservationMode::Full, InvalidActionMode::Mask),
        ),
        (
            "shaped reward (penalty 0.005)",
            trained_arm(0.005, ObservationMode::Full, InvalidActionMode::Mask),
        ),
        (
            "invalid actions penalized (no mask)",
            trained_arm(0.005, ObservationMode::Full, InvalidActionMode::Penalize),
        ),
        (
            "basic features only (no SupermarQ)",
            trained_arm(0.005, ObservationMode::BasicOnly, InvalidActionMode::Mask),
        ),
        ("random legal policy", Box::new(random_policy_arm) as Arm),
        (
            "greedy one-step heuristic",
            Box::new(greedy_policy_arm) as Arm,
        ),
    ];
    // Under parallel dispatch the start order is scheduler-dependent,
    // so progress lines report start/finish by name, not a counter, and
    // only when verbose: `--quiet` output must not vary between runs.
    let run_one = |(label, arm): &(&str, Arm)| {
        if settings.verbose {
            eprintln!("arm `{label}` started\u{2026}");
        }
        let mut result = arm(settings);
        result.label = label.to_string();
        if settings.verbose {
            eprintln!("arm `{label}` finished");
        }
        result
    };
    if settings.parallel {
        arms.par_iter().map(run_one).collect()
    } else {
        arms.iter().map(run_one).collect()
    }
}

/// Renders ablation results as an aligned text table.
pub fn render_ablations(results: &[AblationResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>12} {:>14}\n",
        "arm", "mean reward", "success rate"
    ));
    out.push_str(&format!("{}\n", "-".repeat(66)));
    for r in results {
        out.push_str(&format!(
            "{:<38} {:>12.4} {:>13.1}%\n",
            r.label,
            r.mean_reward,
            r.success_rate * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> AblationSettings {
        AblationSettings {
            max_qubits: 3,
            timesteps: 600,
            ..AblationSettings::default()
        }
    }

    #[test]
    fn random_policy_succeeds_sometimes() {
        let r = random_policy_arm(&mini());
        assert!(r.success_rate > 0.0, "masking should make random work");
        assert!(r.mean_reward >= 0.0);
    }

    #[test]
    fn greedy_policy_beats_random_on_average() {
        let s = mini();
        let g = greedy_policy_arm(&s);
        let r = random_policy_arm(&s);
        assert!(
            g.mean_reward >= r.mean_reward * 0.8,
            "greedy {g:?} vs random {r:?}"
        );
        assert!(g.success_rate > 0.5, "greedy should usually finish: {g:?}");
    }

    #[test]
    fn ablation_arms_run_end_to_end() {
        // Smallest possible smoke test of one trained arm.
        let s = AblationSettings {
            max_qubits: 3,
            timesteps: 300,
            ..AblationSettings::default()
        };
        let arm = run_arm(&s, 0.005, ObservationMode::Full, InvalidActionMode::Mask);
        assert!((0.0..=1.0).contains(&arm.success_rate));
    }

    #[test]
    fn renderer_formats_all_rows() {
        let rows = vec![
            AblationResult {
                label: "a".into(),
                mean_reward: 0.5,
                success_rate: 1.0,
            },
            AblationResult {
                label: "b".into(),
                mean_reward: 0.25,
                success_rate: 0.5,
            },
        ];
        let s = render_ablations(&rows);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("100.0%"));
    }
}
